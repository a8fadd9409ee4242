"""Operation counts of one ``Tmll`` sweep: a cost guard without a stopwatch.

The terms below made the sweep dearer than it had to be
(docs/performance.md, "Mapping: the ``Tmll`` sweep") and each can come
back through an innocent-looking refactor while a timing on a noisy host
still reads "within bound". They are counted, not timed, on the HTOP
sweep of the shared ``flat_net`` for 4 engines, stepped at 0.01 ms so
that, as on the benchmark's larger network, most steps change nothing.
The sweep also hands the partitioner no candidate whose balance cap
cannot beat the best ``E`` before it; such a record partitions once,
when it is first read. Its clusters grow in one union-find: no edge is
joined twice, no step labels the whole dumped graph afresh, and the
clusters are labelled only at steps where their count falls.
"""

from __future__ import annotations

import pytest

from repro.core import Approach, MappingPipeline, build_weighted_graph, hierarchical_partition
from repro.core import hierarchical
from repro.partition import WeightedGraph, initial, kway, partition_kway, refine
from repro.partition import graph as graph_module


@pytest.fixture(scope="module")
def counted_sweep(flat_net):
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _counted_sweep(flat_net, monkeypatch)


def _counted_sweep(flat_net, monkeypatch):
    graph = build_weighted_graph(flat_net, Approach.HTOP, None, None)
    counts = {"collapses": 0, "bisections": 0, "gain_vectors": 0, "degree_scans": 0}
    counts |= {"grows": 0, "constructions": 0}
    counts |= {"unions": 0, "labellings": 0, "whole_graph_labellings": 0}
    joined_edges: list[tuple[int, int]] = []
    scans_per_balance_call: list[int] = []
    constructions_per_extraction: list[int] = []
    grows_and_seeds_per_bisection: list[tuple[int, int, int]] = []  # grows, draws, distinct

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    contract = WeightedGraph.contract

    def contract_counting_collapses(self, labels):
        counts["collapses"] += self is graph  # coarsening contracts other graphs
        return contract(self, labels)

    def noting_per_call(counter, function, per_call):  # what each call adds to a count
        def wrapper(*args, **kwargs):
            before = counts[counter]
            result = function(*args, **kwargs)
            per_call.append(counts[counter] - before)
            return result

        return wrapper

    best_bisection = kway.best_bisection

    def bisection_counting_grows_and_seeds(graph, rng, *args, **kwargs):
        drawn: list[int] = []

        class Drawing:  # the generator, noting each seed vertex it hands out
            def integers(self, *a, **k):
                drawn.append(int(rng.integers(*a, **k)))
                return drawn[-1]

        before = counts["grows"]
        result = best_bisection(graph, Drawing(), *args, **kwargs)
        grows = counts["grows"] - before
        grows_and_seeds_per_bisection.append((grows, len(drawn), len(set(drawn))))
        return result

    monkeypatch.setattr(WeightedGraph, "contract", contract_counting_collapses)
    monkeypatch.setattr(
        kway,
        "balance_partition",
        noting_per_call("degree_scans", kway.balance_partition, scans_per_balance_call),
    )
    monkeypatch.setattr(
        kway,
        "extract_subgraph",
        noting_per_call("constructions", kway.extract_subgraph, constructions_per_extraction),
    )
    monkeypatch.setattr(
        WeightedGraph, "__init__", counting("constructions", WeightedGraph.__init__)
    )
    monkeypatch.setattr(initial, "_grow", counting("grows", initial._grow))
    monkeypatch.setattr(
        kway, "best_bisection", counting("bisections", bisection_counting_grows_and_seeds)
    )
    monkeypatch.setattr(
        refine, "_external_internal", counting("degree_scans", refine._external_internal)
    )
    gains = getattr(initial, "_initial_gains", None)  # absent: that guard fails, not all three
    monkeypatch.setattr(initial, "_initial_gains", counting("gain_vectors", gains), raising=False)

    components = getattr(graph_module, "Components", None)  # absent: its guards fail
    if components is not None:
        union = components.union

        def union_noting_edges(self, u, v):
            counts["unions"] += 1
            joined_edges.extend(zip(u.tolist(), v.tolist()))
            return union(self, u, v)

        monkeypatch.setattr(components, "union", union_noting_edges)
        monkeypatch.setattr(components, "labels", counting("labellings", components.labels))
    for module in (graph_module, hierarchical):  # a labelling from scratch, however reached
        labelling = counting("whole_graph_labellings", module.component_labels)
        monkeypatch.setattr(module, "component_labels", labelling)
    monkeypatch.setattr(
        WeightedGraph,
        "connected_components",
        counting("whole_graph_labellings", WeightedGraph.connected_components),
    )

    pipeline = MappingPipeline.for_network(flat_net, num_engines=4)
    result = hierarchical_partition(graph, 4, pipeline.sync_cost_s, seed=0, tmll_step_s=0.01e-3)
    per_call = {
        "balance_scans": scans_per_balance_call,
        "extract_constructions": constructions_per_extraction,
        "bisection_grows_and_seeds": grows_and_seeds_per_bisection,
        "joined_edges": joined_edges,
    }
    return result, counts, per_call


def test_one_collapsed_graph_per_candidate(counted_sweep):
    result, counts, _ = counted_sweep
    steps = (result.sweep[-1].tmll_s - result.sweep[1].tmll_s) / 0.01e-3
    assert steps > len(result.sweep) + 10  # or collapsing at every step would pass too
    assert 0 < counts["collapses"] <= len(result.sweep) + 1


def test_each_sub_threshold_edge_is_joined_once(counted_sweep):
    joined = counted_sweep[2]["joined_edges"]
    assert joined, "the sweep no longer grows its clusters edge by edge"
    assert len(set(joined)) == len(joined)


def test_clusters_are_labelled_once_per_component_count(counted_sweep):
    result, counts, _ = counted_sweep
    # Steps that add edges outnumber the counts they reach (or labelling
    # at every such step would pass too) ...
    assert counts["unions"] > len(result.sweep) - 1
    # ... and each count the sweep records was labelled once.
    assert counts["labellings"] == len(result.sweep) - 1


def test_no_whole_graph_labelling_during_the_sweep(counted_sweep):
    _, counts, _ = counted_sweep
    assert counts["whole_graph_labellings"] == 0


def test_balance_partition_does_not_rescan_the_graph_per_move(counted_sweep):
    scans_per_balance_call = counted_sweep[2]["balance_scans"]
    assert scans_per_balance_call, "the sweep no longer exercises balance_partition"
    assert max(scans_per_balance_call) <= 1


def test_initial_gains_are_built_once_per_coarsest_graph(counted_sweep):
    _, counts, _ = counted_sweep
    assert 0 < counts["gain_vectors"] == counts["bisections"]


def test_extract_subgraph_slices_the_parent_without_the_constructor(counted_sweep):
    constructions = counted_sweep[2]["extract_constructions"]
    assert constructions, "the sweep no longer extracts subgraphs"
    assert max(constructions) == 0


def test_best_bisection_grows_each_seed_vertex_once(counted_sweep):
    """A repeated seed grows the same region, whose key ties and so loses."""
    per_bisection = counted_sweep[2]["bisection_grows_and_seeds"]
    assert any(distinct < draws for _, draws, distinct in per_bisection)  # repeats happen
    assert all(grows <= distinct for grows, _, distinct in per_bisection)


def _handed_sweep(flat_net):
    """The guard's sweep, noting the size of each graph the partitioner gets."""
    graph = build_weighted_graph(flat_net, Approach.HTOP, None, None)
    handed: list[int] = []

    def noting(target, num_parts, **kwargs):
        handed.append(target.num_vertices)
        return partition_kway(target, num_parts, **kwargs)

    pipeline = MappingPipeline.for_network(flat_net, num_engines=4)
    result = hierarchical_partition(
        graph, 4, pipeline.sync_cost_s, seed=0, tmll_step_s=0.01e-3, partitioner=noting
    )
    return graph, result, handed


def test_no_candidate_after_the_first_capped_one_is_partitioned(flat_net, balance_cap):
    graph, result, handed = _handed_sweep(flat_net)
    during_sweep = list(handed)
    efficiency = [record.evaluation.efficiency for record in result.sweep]
    capped = [
        i
        for i, record in enumerate(result.sweep)
        if i and balance_cap(graph, record.tmll_s, 4) * (1 + 1e-9) <= max(efficiency[:i])
    ]
    assert capped, "no candidate of the guard's sweep is capped any more"
    assert during_sweep == [record.coarse_vertices for record in result.sweep[: capped[0]]]


def test_a_capped_record_hands_its_graph_over_once(flat_net):
    _, result, handed = _handed_sweep(flat_net)
    assert len(handed) < len(result.sweep)  # the tail was not partitioned
    last, before = result.sweep[-1], len(handed)
    first_read = last.evaluation
    assert last.evaluation is first_read
    assert handed[before:] == [last.coarse_vertices]
