"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.core.evaluate import balance_efficiency, sync_efficiency
from repro.engine import (
    bucket_event_counts,
    predict_from_trace,
    predict_wallclock,
    remote_send_counts,
)
from repro.metrics import load_imbalance
from repro.partition import WeightedGraph, partition_kway
from repro.partition.graph import component_labels
from repro.routing.bgp import BgpEngine, BgpSpeaker, best_route, decision_key, Route

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# Graph strategies
# ----------------------------------------------------------------------
@st.composite
def weighted_graphs(draw, max_n=24):
    n = draw(st.integers(min_value=2, max_value=max_n))
    # random spanning tree (guarantees one component) + extra edges
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    rng_seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    us = list(range(1, n))
    vs = [int(rng.integers(0, i)) for i in range(1, n)]
    for _ in range(extra):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            us.append(int(a))
            vs.append(int(b))
    m = len(us)
    weights = rng.uniform(0.1, 10.0, m)
    lats = rng.uniform(1e-5, 1e-2, m)
    vw = rng.uniform(0.1, 5.0, n)
    return WeightedGraph(n, us, vs, weights, lats, vw)


class TestGraphProperties:
    @SETTINGS
    @given(weighted_graphs())
    def test_total_weight_preserved_by_contraction(self, g):
        labels = g.connected_components()  # trivially dense labels
        c = g.contract(labels)
        assert c.coarse.total_vertex_weight == pytest.approx(g.total_vertex_weight)

    @SETTINGS
    @given(weighted_graphs(), st.floats(min_value=1e-5, max_value=1e-2))
    def test_collapse_respects_threshold(self, g, threshold):
        u, v, _, lat = g.edge_list()
        c = g.contract(component_labels(g.num_vertices, u[lat < threshold], v[lat < threshold]))
        _, _, _, lat = c.coarse.edge_list()
        assert np.all(lat >= threshold)

    @SETTINGS
    @given(weighted_graphs(), st.floats(min_value=1e-5, max_value=1e-2))
    def test_collapsed_partition_mll_at_least_threshold(self, g, threshold):
        u, v, _, lat = g.edge_list()
        c = g.contract(component_labels(g.num_vertices, u[lat < threshold], v[lat < threshold]))
        k = c.coarse.num_vertices
        rng = np.random.default_rng(0)
        coarse_part = rng.integers(0, 2, size=k)
        part = c.project(coarse_part)
        mll = g.min_cut_latency(part)
        assert mll >= threshold or np.isinf(mll)

    @SETTINGS
    @given(weighted_graphs())
    def test_edge_cut_nonnegative_and_bounded(self, g):
        rng = np.random.default_rng(1)
        part = rng.integers(0, 3, size=g.num_vertices)
        cut = g.edge_cut(part)
        _, _, w, _ = g.edge_list()
        assert 0.0 <= cut <= w.sum() + 1e-9

    @SETTINGS
    @given(weighted_graphs(), st.integers(min_value=1, max_value=6))
    def test_partition_weights_sum_to_total(self, g, k):
        rng = np.random.default_rng(2)
        part = rng.integers(0, k, size=g.num_vertices)
        weights = g.partition_weights(part, k)
        assert weights.sum() == pytest.approx(g.total_vertex_weight)


class TestPartitionerProperties:
    @SETTINGS
    @given(weighted_graphs(), st.integers(min_value=1, max_value=5))
    def test_kway_valid_assignment(self, g, k):
        res = partition_kway(g, k, seed=0)
        assert res.assignment.shape == (g.num_vertices,)
        assert res.assignment.min() >= 0
        assert res.assignment.max() < k

    @SETTINGS
    @given(weighted_graphs())
    def test_kway_cut_consistent(self, g):
        res = partition_kway(g, 2, seed=0)
        assert res.edge_cut == pytest.approx(g.edge_cut(res.assignment))


class TestCostModelProperties:
    @SETTINGS
    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=1e-4, max_value=0.5),
    )
    def test_sparse_equals_dense(self, n_events, num_lps, window):
        rng = np.random.default_rng(n_events * 7 + num_lps)
        cluster = ClusterSpec(name="t", num_engine_nodes=num_lps)
        end = 1.0
        times = rng.uniform(0, end, n_events)
        nodes = rng.integers(0, 10, n_events)
        assignment = rng.integers(0, num_lps, 10)
        dense = predict_wallclock(
            bucket_event_counts(times, nodes, assignment, num_lps, window, end),
            np.zeros_like(
                bucket_event_counts(times, nodes, assignment, num_lps, window, end),
                dtype=float,
            ),
            cluster,
            num_lps,
        )
        sparse = predict_from_trace(
            times, nodes, assignment, num_lps, window, end, cluster
        )
        assert sparse.total_s == pytest.approx(dense.total_s)

    @SETTINGS
    @given(st.integers(min_value=2, max_value=8))
    def test_all_events_accounted(self, num_lps):
        rng = np.random.default_rng(num_lps)
        cluster = ClusterSpec(name="t", num_engine_nodes=num_lps)
        times = rng.uniform(0, 1.0, 300)
        nodes = rng.integers(0, 20, 300)
        assignment = rng.integers(0, num_lps, 20)
        pred = predict_from_trace(times, nodes, assignment, num_lps, 0.01, 1.0, cluster)
        assert pred.total_events == 300

    @SETTINGS
    @given(st.floats(min_value=1e-4, max_value=1.0))
    def test_finer_windows_never_faster(self, window):
        """More windows => more barriers => total time monotonically grows
        as the window shrinks (same trace)."""
        rng = np.random.default_rng(3)
        cluster = ClusterSpec(name="t", num_engine_nodes=4)
        times = rng.uniform(0, 1.0, 200)
        nodes = rng.integers(0, 12, 200)
        assignment = rng.integers(0, 4, 12)
        t_fine = predict_from_trace(
            times, nodes, assignment, 4, window / 2, 1.0, cluster
        ).total_s
        t_coarse = predict_from_trace(
            times, nodes, assignment, 4, window, 1.0, cluster
        ).total_s
        assert t_fine >= t_coarse - 1e-9


class TestMetricProperties:
    @SETTINGS
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    def test_imbalance_nonnegative(self, rates):
        assert load_imbalance(np.asarray(rates)) >= 0.0

    @SETTINGS
    @given(
        st.lists(st.floats(min_value=0.01, max_value=1e3), min_size=1, max_size=30),
        st.floats(min_value=1.001, max_value=100.0),
    )
    def test_imbalance_scale_invariant(self, rates, factor):
        a = np.asarray(rates)
        assert load_imbalance(a) == pytest.approx(load_imbalance(a * factor), abs=1e-9)

    @SETTINGS
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    def test_balance_efficiency_in_unit_interval(self, weights):
        e = balance_efficiency(np.asarray(weights))
        assert 0.0 <= e <= 1.0 + 1e-12

    @SETTINGS
    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_sync_efficiency_in_unit_interval(self, mll, cost):
        e = sync_efficiency(mll, cost)
        assert 0.0 <= e <= 1.0


class TestHierarchicalProperties:
    @settings(max_examples=15, deadline=None)
    @given(weighted_graphs(max_n=18), st.integers(min_value=2, max_value=3))
    def test_achieved_mll_at_least_threshold(self, g, k):
        """The hierarchical result's achieved MLL is never below its chosen
        collapse threshold — the algorithm's core guarantee."""
        from repro.core import hierarchical_partition

        res = hierarchical_partition(
            g, k, sync_cost_s=1e-4, tmll_step_s=5e-4, seed=0
        )
        mll = g.min_cut_latency(res.assignment)
        assert mll >= res.tmll_s or np.isinf(mll)

    @settings(max_examples=15, deadline=None)
    @given(weighted_graphs(max_n=18))
    def test_best_efficiency_is_sweep_max(self, g):
        from repro.core import hierarchical_partition

        res = hierarchical_partition(g, 2, sync_cost_s=1e-4, tmll_step_s=5e-4, seed=0)
        assert res.evaluation.efficiency == pytest.approx(
            max(r.evaluation.efficiency for r in res.sweep)
        )


class TestKwayRefineProperties:
    @SETTINGS
    @given(weighted_graphs(max_n=20), st.integers(min_value=2, max_value=4))
    def test_refine_never_increases_cut(self, g, k):
        from repro.partition import kway_refine, random_partition

        base = random_partition(g, k, seed=3)
        refined = kway_refine(g, base.assignment, k, imbalance_tolerance=1.5)
        assert g.edge_cut(refined) <= base.edge_cut + 1e-9


class TestBgpProperties:
    @SETTINGS
    @given(st.integers(min_value=0, max_value=10_000))
    def test_decision_total_order(self, seed):
        rng = np.random.default_rng(seed)
        routes = [
            Route(
                prefix=9,
                as_path=tuple(rng.integers(1, 50, size=rng.integers(1, 5)).tolist()),
                local_pref=int(rng.choice([80, 90, 100])),
                next_hop_as=int(rng.integers(1, 50)),
                med=int(rng.integers(0, 3)),
            )
            for _ in range(5)
        ]
        best = best_route(routes)
        assert all(decision_key(best) <= decision_key(r) for r in routes)

    @SETTINGS
    @given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=1000))
    def test_random_hierarchy_converges_loop_free(self, n, seed):
        """Random provider trees + peer edges always converge, and best
        routes never contain the deciding AS (loop freedom)."""
        rng = np.random.default_rng(seed)
        rels: dict[int, dict[int, str]] = {i: {} for i in range(n)}
        # provider tree: parent(i) provides to i
        for i in range(1, n):
            p = int(rng.integers(0, i))
            rels[i][p] = "provider"
            rels[p][i] = "customer"
        # a few peer edges between unrelated nodes
        for _ in range(n // 2):
            a, b = rng.integers(0, n, size=2)
            a, b = int(a), int(b)
            if a != b and b not in rels[a]:
                rels[a][b] = "peer"
                rels[b][a] = "peer"
        engine = BgpEngine({i: BgpSpeaker(i, rels[i]) for i in range(n)})
        iters = engine.run(max_iterations=200)
        assert iters <= 200
        for a, sp in engine.speakers.items():
            for prefix, route in sp.rib.items():
                assert a not in route.as_path
                if not route.is_local:
                    assert route.as_path[-1] == prefix
