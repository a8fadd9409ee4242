"""Operation counts of one ``Tmll`` sweep: a cost guard without a stopwatch.

The three terms below made the sweep several times dearer than it had
to be (docs/performance.md, "Mapping: the ``Tmll`` sweep") and each can
come back through an innocent-looking refactor while a timing on a noisy
host still reads "within bound". They are counted, not timed, on the
HTOP sweep of the shared ``flat_net`` for 4 engines, stepped at 0.01 ms
so that, as on the benchmark's larger network, most steps change nothing.
"""

from __future__ import annotations

import pytest

from repro.core import Approach, MappingPipeline, build_weighted_graph, hierarchical_partition
from repro.partition import WeightedGraph, initial, kway, refine


@pytest.fixture(scope="module")
def counted_sweep(flat_net):
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _counted_sweep(flat_net, monkeypatch)


def _counted_sweep(flat_net, monkeypatch):
    graph = build_weighted_graph(flat_net, Approach.HTOP, None, None)
    counts = {"collapses": 0, "bisections": 0, "gain_vectors": 0, "degree_scans": 0}
    scans_per_balance_call: list[int] = []

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    contract = WeightedGraph.contract

    def contract_counting_collapses(self, labels):
        counts["collapses"] += self is graph  # coarsening contracts other graphs
        return contract(self, labels)

    balance_partition = kway.balance_partition

    def balance_counting_scans(*args, **kwargs):
        before = counts["degree_scans"]
        result = balance_partition(*args, **kwargs)
        scans_per_balance_call.append(counts["degree_scans"] - before)
        return result

    monkeypatch.setattr(WeightedGraph, "contract", contract_counting_collapses)
    monkeypatch.setattr(kway, "balance_partition", balance_counting_scans)
    monkeypatch.setattr(kway, "best_bisection", counting("bisections", kway.best_bisection))
    monkeypatch.setattr(
        refine, "_external_internal", counting("degree_scans", refine._external_internal)
    )
    gains = getattr(initial, "_initial_gains", None)  # absent: that guard fails, not all three
    monkeypatch.setattr(initial, "_initial_gains", counting("gain_vectors", gains), raising=False)

    pipeline = MappingPipeline.for_network(flat_net, num_engines=4)
    result = hierarchical_partition(graph, 4, pipeline.sync_cost_s, seed=0, tmll_step_s=0.01e-3)
    return result, counts, scans_per_balance_call


def test_one_collapsed_graph_per_candidate(counted_sweep):
    result, counts, _ = counted_sweep
    steps = (result.sweep[-1].tmll_s - result.sweep[1].tmll_s) / 0.01e-3
    assert steps > len(result.sweep) + 10  # or collapsing at every step would pass too
    assert 0 < counts["collapses"] <= len(result.sweep) + 1


def test_balance_partition_does_not_rescan_the_graph_per_move(counted_sweep):
    _, _, scans_per_balance_call = counted_sweep
    assert scans_per_balance_call, "the sweep no longer exercises balance_partition"
    assert max(scans_per_balance_call) <= 1


def test_initial_gains_are_built_once_per_coarsest_graph(counted_sweep):
    _, counts, _ = counted_sweep
    assert 0 < counts["gain_vectors"] == counts["bisections"]
