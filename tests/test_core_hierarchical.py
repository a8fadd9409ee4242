"""Tests for the hierarchical partitioning algorithm (paper §3.4.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Approach,
    MappingPipeline,
    build_weighted_graph,
    hierarchical_partition,
)
from repro.cluster import ClusterSpec
from repro.partition import WeightedGraph


def latency_tiers_graph(seed=0):
    """12 cliques of 4 vertices; intra-clique latency 0.05 ms, inter-clique
    ring + chords at 2 ms. Collapsing at any threshold in (0.05 ms, 2 ms]
    yields 12 super-vertices — plenty of parallelism for 3 parts."""
    us, vs, lat = [], [], []
    groups = 12
    for g in range(groups):
        base = g * 4
        for i in range(4):
            for j in range(i + 1, 4):
                us.append(base + i)
                vs.append(base + j)
                lat.append(0.05e-3)
    for g in range(groups):
        us.append(g * 4)
        vs.append(((g + 1) % groups) * 4)
        lat.append(2e-3)
        us.append(g * 4 + 1)
        vs.append(((g + 3) % groups) * 4 + 1)
        lat.append(2e-3)
    return WeightedGraph(groups * 4, us, vs, np.ones(len(us)), np.asarray(lat))


class TestHierarchicalPartition:
    def test_mll_guarantee(self):
        g = latency_tiers_graph()
        res = hierarchical_partition(g, 3, sync_cost_s=0.1e-3, seed=0)
        # Best partition should avoid the 0.05 ms edges entirely.
        assert res.achieved_mll_s >= res.tmll_s
        assert res.achieved_mll_s == pytest.approx(2e-3)

    def test_beats_flat_on_e_metric(self):
        from repro.core import evaluate_partition
        from repro.partition import partition_kway

        g = latency_tiers_graph()
        sync = 0.1e-3
        res = hierarchical_partition(g, 3, sync_cost_s=sync, seed=0)
        flat = partition_kway(g, 3, seed=0)
        flat_eval = evaluate_partition(g, flat.assignment, 3, sync)
        assert res.evaluation.efficiency >= flat_eval.efficiency

    def test_sweep_records(self):
        g = latency_tiers_graph()
        res = hierarchical_partition(g, 3, sync_cost_s=0.1e-3, seed=0)
        assert len(res.sweep) >= 2
        assert res.sweep[0].tmll_s == 0.0  # flat baseline always evaluated
        tmlls = [s.tmll_s for s in res.sweep]
        assert tmlls == sorted(tmlls)

    def test_best_is_argmax_of_sweep(self):
        g = latency_tiers_graph()
        res = hierarchical_partition(g, 3, sync_cost_s=0.1e-3, seed=0)
        best_e = max(s.evaluation.efficiency for s in res.sweep)
        assert res.evaluation.efficiency == pytest.approx(best_e)

    def test_sweep_starts_above_sync_cost(self):
        g = latency_tiers_graph()
        sync = 0.35e-3
        res = hierarchical_partition(g, 3, sync_cost_s=sync, tmll_step_s=0.1e-3, seed=0)
        nonzero = [s.tmll_s for s in res.sweep if s.tmll_s > 0]
        assert min(nonzero) > sync

    def test_stops_when_parallelism_exhausted(self):
        g = latency_tiers_graph()
        # 3 coarse vertices < 2*4 parts: threshold beyond 0.05 ms is skipped.
        res = hierarchical_partition(
            g, 4, sync_cost_s=0.01e-3, tmll_step_s=0.02e-3, seed=0
        )
        assert all(s.coarse_vertices >= 8 for s in res.sweep if s.tmll_s > 0)

    def test_all_parts_populated(self):
        g = latency_tiers_graph()
        res = hierarchical_partition(g, 3, sync_cost_s=0.1e-3, seed=0)
        assert set(res.assignment.tolist()) == {0, 1, 2}

    def test_invalid_args(self):
        g = latency_tiers_graph()
        with pytest.raises(ValueError):
            hierarchical_partition(g, 0, 1e-3)
        with pytest.raises(ValueError):
            hierarchical_partition(g, 2, 1e-3, tmll_step_s=0.0)
        with pytest.raises(ValueError):
            hierarchical_partition(g, 2, -1.0)

    def test_seed_must_be_an_integer(self):
        """A shared generator would tie each candidate's partition to the
        candidates partitioned, or read, before it."""
        g = latency_tiers_graph()
        with pytest.raises(TypeError, match="seed must be an integer"):
            hierarchical_partition(g, 3, 0.1e-3, seed=np.random.default_rng(5))
        with pytest.raises(TypeError, match="seed must be an integer"):
            hierarchical_partition(g, 3, 0.1e-3, seed=5.0)
        numpy_int = hierarchical_partition(g, 3, 0.1e-3, seed=np.int64(5))
        python_int = hierarchical_partition(g, 3, 0.1e-3, seed=5)
        assert np.array_equal(numpy_int.assignment, python_int.assignment)

    def test_custom_partitioner_injected(self):
        from repro.partition import round_robin_partition

        calls = []

        def fake_partitioner(graph, k, seed=0, imbalance_tolerance=1.05):
            calls.append(graph.num_vertices)
            return round_robin_partition(graph, k)

        g = latency_tiers_graph()
        hierarchical_partition(g, 3, sync_cost_s=0.1e-3, partitioner=fake_partitioner)
        assert calls  # partitioner actually used
        assert calls[0] == 48  # flat baseline first


class TestMappingPipeline:
    def test_flat_and_hierarchical_paths(self, flat_net):
        pipe = MappingPipeline(flat_net, num_engines=4)
        m_top = pipe.run(Approach.TOP)
        assert m_top.tmll_s == 0.0
        assert not m_top.sweep
        m_htop = pipe.run(Approach.HTOP)
        assert m_htop.sweep
        assert set(m_htop.assignment.tolist()) <= set(range(4))

    def test_hierarchical_mll_at_least_flat(self, flat_net):
        pipe = MappingPipeline(flat_net, num_engines=4)
        m_top = pipe.run(Approach.TOP)
        m_htop = pipe.run(Approach.HTOP)
        assert m_htop.achieved_mll_s >= m_top.achieved_mll_s

    def test_run_all(self, flat_net):
        from repro.profilers import TrafficProfile

        profile = TrafficProfile(
            node_events=np.ones(flat_net.num_nodes),
            link_bytes=np.ones(flat_net.num_links),
            link_packets=np.ones(flat_net.num_links),
            duration_s=1.0,
        )
        pipe = MappingPipeline(flat_net, num_engines=4)
        mappings = pipe.run_all([Approach.TOP2, Approach.HPROF], profile)
        assert set(mappings) == {Approach.TOP2, Approach.HPROF}

    def test_invalid_engines(self, flat_net):
        with pytest.raises(ValueError):
            MappingPipeline(flat_net, num_engines=0)

    def test_sync_cost_exposed(self, flat_net):
        pipe = MappingPipeline(flat_net, num_engines=16)
        assert pipe.sync_cost_s == pipe.cluster.sync_cost_s(16)
