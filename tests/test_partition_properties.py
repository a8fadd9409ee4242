"""Property-based invariants of the partitioning stack (hypothesis).

Random connected weighted graphs exercise :func:`partition_kway`,
:func:`evaluate_partition`, and :func:`hierarchical_partition` over a far
wider input space than the hand-built fixtures:

- totality: every vertex is assigned exactly one partition in range, and
  partition weights conserve the total vertex weight;
- metric bounds: ``0 <= Es, Ec <= 1`` and ``E == Es * Ec`` exactly;
- sweep shape: thresholds strictly increase, the dumped graph only ever
  shrinks, and the reported best is the argmax of the sweep;
- grid-coverage monotonicity: halving the Tmll step makes the candidate
  set a superset, so the best efficiency can only improve;
- balance cap: no candidate beats ``C_avg`` over its heaviest cluster, the
  sweep partitions only candidates whose cap beats the best so far, and
  the others, a tail, evaluate the same whichever order they are read in.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import evaluate_partition, hierarchical_partition
from repro.partition.graph import WeightedGraph
from repro.partition.kway import partition_kway

#: Link-latency classes (seconds) — a LAN/MAN/WAN-like mix whose spread
#: gives the Tmll sweep several distinct collapse levels.
LATENCIES = (0.05e-3, 0.1e-3, 0.25e-3, 0.5e-3, 1.0e-3, 2.0e-3)

SYNC_COST_S = 0.02e-3


@st.composite
def connected_graphs(draw) -> WeightedGraph:
    """A random connected graph: spanning tree plus random chords."""
    n = draw(st.integers(min_value=8, max_value=24))
    edges: set[tuple[int, int]] = set()
    for child in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=child - 1))
        edges.add((parent, child))
    num_chords = draw(st.integers(min_value=0, max_value=n))
    for _ in range(num_chords):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    u, v = zip(*sorted(edges))
    lat = [draw(st.sampled_from(LATENCIES)) for _ in edges]
    vwgt = [
        draw(st.floats(min_value=0.1, max_value=50.0, allow_nan=False))
        for _ in range(n)
    ]
    return WeightedGraph(
        n, list(u), list(v), edge_latency=lat, vertex_weight=vwgt
    )


common_settings = settings(max_examples=20, deadline=None)


class TestAssignmentTotality:
    @given(
        graph=connected_graphs(),
        num_parts=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=3),
    )
    @common_settings
    def test_every_vertex_assigned_exactly_once_in_range(
        self, graph, num_parts, seed
    ):
        result = hierarchical_partition(
            graph, num_parts, sync_cost_s=SYNC_COST_S, seed=seed
        )
        assignment = result.assignment
        assert assignment.shape == (graph.num_vertices,)
        assert np.all(assignment >= 0)
        assert np.all(assignment < num_parts)
        # Weight accounting: partition weights conserve the total load,
        # which fails if any vertex were double-counted or dropped.
        weights = graph.partition_weights(assignment, num_parts)
        assert weights.shape == (num_parts,)
        np.testing.assert_allclose(weights.sum(), graph.vwgt.sum())

    @given(
        graph=connected_graphs(),
        num_parts=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=3),
    )
    @common_settings
    def test_flat_partitioner_totality(self, graph, num_parts, seed):
        result = partition_kway(graph, num_parts, seed=seed)
        graph.validate_partition(result.assignment, num_parts)


class TestEfficiencyBounds:
    @given(
        graph=connected_graphs(),
        num_parts=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=3),
    )
    @common_settings
    def test_e_is_es_times_ec_within_unit_interval(self, graph, num_parts, seed):
        result = hierarchical_partition(
            graph, num_parts, sync_cost_s=SYNC_COST_S, seed=seed
        )
        for rec in result.sweep:
            ev = rec.evaluation
            assert 0.0 <= ev.es <= 1.0
            assert 0.0 <= ev.ec <= 1.0
            assert 0.0 <= ev.efficiency <= 1.0
            assert ev.efficiency == ev.es * ev.ec

    @given(
        graph=connected_graphs(),
        num_parts=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=3),
    )
    @common_settings
    def test_random_assignment_evaluation_bounds(self, graph, num_parts, seed):
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, num_parts, size=graph.num_vertices)
        ev = evaluate_partition(graph, assignment, num_parts, SYNC_COST_S)
        assert 0.0 <= ev.es <= 1.0
        assert 0.0 <= ev.ec <= 1.0
        assert ev.efficiency == ev.es * ev.ec
        assert ev.mll_s > 0.0
        assert ev.predicted_imbalance >= 0.0


class TestSweepShape:
    @given(
        graph=connected_graphs(),
        num_parts=st.integers(min_value=2, max_value=3),
        seed=st.integers(min_value=0, max_value=3),
    )
    @common_settings
    def test_thresholds_increase_and_dumped_graph_shrinks(
        self, graph, num_parts, seed
    ):
        result = hierarchical_partition(
            graph, num_parts, sync_cost_s=SYNC_COST_S, seed=seed
        )
        sweep = result.sweep
        assert sweep, "sweep always contains at least the flat baseline"
        assert sweep[0].tmll_s == 0.0
        assert sweep[0].coarse_vertices == graph.num_vertices
        tmlls = [rec.tmll_s for rec in sweep]
        assert tmlls == sorted(tmlls)
        assert len(set(tmlls)) == len(tmlls)
        coarse = [rec.coarse_vertices for rec in sweep]
        assert all(a >= b for a, b in zip(coarse, coarse[1:]))

    @given(
        graph=connected_graphs(),
        num_parts=st.integers(min_value=2, max_value=3),
        seed=st.integers(min_value=0, max_value=3),
    )
    @common_settings
    def test_reported_best_is_sweep_argmax(self, graph, num_parts, seed):
        result = hierarchical_partition(
            graph, num_parts, sync_cost_s=SYNC_COST_S, seed=seed
        )
        best = max(rec.evaluation.efficiency for rec in result.sweep)
        assert result.evaluation.efficiency == best
        assert result.tmll_s in {rec.tmll_s for rec in result.sweep}


class TestGridCoverageMonotonicity:
    @given(
        graph=connected_graphs(),
        num_parts=st.integers(min_value=2, max_value=3),
        seed=st.integers(min_value=0, max_value=2),
    )
    @common_settings
    def test_finer_tmll_grid_never_scores_worse(self, graph, num_parts, seed):
        # Every multiple of the coarse step is a multiple of the halved
        # step, so the finer sweep evaluates a superset of candidate
        # contractions (same seed -> same partition per contraction);
        # its best efficiency therefore dominates.
        step = 0.1e-3
        coarse = hierarchical_partition(
            graph, num_parts, sync_cost_s=SYNC_COST_S, seed=seed,
            tmll_step_s=step,
        )
        fine = hierarchical_partition(
            graph, num_parts, sync_cost_s=SYNC_COST_S, seed=seed,
            tmll_step_s=step / 2,
        )
        assert fine.evaluation.efficiency >= coarse.evaluation.efficiency - 1e-12
        coarse_counts = {rec.coarse_vertices for rec in coarse.sweep}
        fine_counts = {rec.coarse_vertices for rec in fine.sweep}
        assert coarse_counts <= fine_counts


def _with_integer_weights(graph: WeightedGraph) -> WeightedGraph:
    u, v, w, lat = graph.edge_list()
    return WeightedGraph(graph.num_vertices, u, v, w, lat, np.ceil(graph.vwgt))


def _evaluation_key(evaluation) -> tuple:
    floats = (evaluation.mll_s, evaluation.es, evaluation.ec, evaluation.efficiency,
              evaluation.predicted_imbalance, evaluation.edge_cut)
    return tuple(f.hex() for f in floats) + (evaluation.part_weights.tobytes(),)


#: Six unit weights on a path, two parts, no barrier cost: the flat
#: partition reaches E = 1, and the 0.1 ms candidate's cluster {0, 1, 2}
#: caps it at exactly 1, so it must be partitioned all the same.
CAP_EQUALS_BEST = WeightedGraph(
    6, [0, 1, 2, 3, 4], [1, 2, 3, 4, 5],
    edge_latency=[0.05e-3, 0.05e-3, 1e-3, 1e-3, 1e-3],
)


class TestBalanceCap:
    @given(
        graph=connected_graphs(),
        num_parts=st.integers(min_value=2, max_value=3),
        seed=st.integers(min_value=0, max_value=3),
        sync_cost_s=st.sampled_from((0.0, SYNC_COST_S)),
        integer_weights=st.booleans(),
    )
    @example(graph=CAP_EQUALS_BEST, num_parts=2, seed=0, sync_cost_s=0.0, integer_weights=True)
    @common_settings
    def test_capped_candidates_are_a_tail_evaluated_when_read(
        self, balance_cap, graph, num_parts, seed, sync_cost_s, integer_weights
    ):
        if integer_weights:  # a cap can then equal the best E exactly
            graph = _with_integer_weights(graph)
        handed: list[int] = []

        def noting(target, k, **kwargs):
            handed.append(target.num_vertices)
            return partition_kway(target, k, **kwargs)

        def sweep():
            return hierarchical_partition(
                graph, num_parts, sync_cost_s=sync_cost_s, seed=seed, partitioner=noting
            ).sweep

        in_order = sweep()
        partitioned_in_sweep = len(handed)
        caps = [balance_cap(graph, record.tmll_s, num_parts) for record in in_order]
        assert caps == sorted(caps, reverse=True)
        efficiency = [record.evaluation.efficiency for record in in_order]
        assert all(e <= cap * (1 + 1e-9) for e, cap in zip(efficiency, caps))
        capped = [
            i > 0 and cap * (1 + 1e-9) <= max(efficiency[:i]) for i, cap in enumerate(caps)
        ]
        assert capped == sorted(capped)  # the capped records are the tail
        assert partitioned_in_sweep == capped.count(False)

        in_reverse = sweep()
        read_backwards = [_evaluation_key(r.evaluation) for r in reversed(in_reverse)]
        assert read_backwards[::-1] == [_evaluation_key(r.evaluation) for r in in_order]
