"""Tests for k-way boundary refinement and RED queue management."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ShardEngine
from repro.netsim import NetworkSimulator, RedParams, start_transfer
from repro.netsim.link import LinkRuntime, LinkTable
from repro.partition import WeightedGraph, kway_refine, partition_kway, round_robin_partition
from repro.routing import ForwardingPlane
from repro.topology import Network, NodeKind
from repro.topology.models import Link


class TestKwayRefine:
    def test_improves_bad_partition(self, grid_graph):
        from repro.partition import random_partition

        rnd = random_partition(grid_graph, 4, seed=1)
        refined = kway_refine(grid_graph, rnd.assignment, 4, imbalance_tolerance=1.3)
        assert grid_graph.edge_cut(refined) < rnd.edge_cut

    def test_respects_balance_cap(self, grid_graph):
        rr = round_robin_partition(grid_graph, 4)
        refined = kway_refine(grid_graph, rr.assignment, 4, imbalance_tolerance=1.10)
        weights = grid_graph.partition_weights(refined, 4)
        cap = 1.10 * grid_graph.total_vertex_weight / 4
        assert weights.max() <= cap + 1e-9

    def test_never_worsens_good_partition(self, two_cluster_graph):
        part = np.array([0] * 10 + [1] * 10)
        refined = kway_refine(two_cluster_graph, part, 2)
        assert two_cluster_graph.edge_cut(refined) <= two_cluster_graph.edge_cut(part)

    def test_no_parts_emptied(self, grid_graph):
        rr = round_robin_partition(grid_graph, 8)
        refined = kway_refine(grid_graph, rr.assignment, 8, imbalance_tolerance=1.5)
        assert len(np.unique(refined)) == 8

    def test_trivial_inputs(self):
        g = WeightedGraph(0, [], [])
        assert kway_refine(g, np.zeros(0, dtype=np.int64), 4).size == 0
        g1 = WeightedGraph(3, [0, 1], [1, 2])
        part = np.zeros(3, dtype=np.int64)
        assert np.array_equal(kway_refine(g1, part, 1), part)

    def test_partition_kway_flag(self, grid_graph):
        with_ref = partition_kway(grid_graph, 4, seed=0, kway_refinement=True)
        without = partition_kway(grid_graph, 4, seed=0, kway_refinement=False)
        assert with_ref.edge_cut <= without.edge_cut


class TestRedParams:
    def test_valid_defaults(self):
        RedParams()

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            RedParams(min_th_fraction=0.5, max_th_fraction=0.3)
        with pytest.raises(ValueError):
            RedParams(max_p=0.0)
        with pytest.raises(ValueError):
            RedParams(max_th_fraction=1.5)


class TestRedQueue:
    def _link(self, discipline):
        return LinkRuntime(LinkTable([Link(0, 1, 2, 1e6, 1e-3, 20_000)], discipline), 0)

    def _pkt(self):
        from repro.netsim import Packet, Protocol

        return Packet(src=1, dst=2, size_bytes=1000, protocol=Protocol.UDP, flow_id=1)

    def test_unknown_discipline_rejected(self):
        with pytest.raises(ValueError):
            self._link("codel")

    def test_no_early_drop_below_min_threshold(self):
        lr = self._link("red")
        # queue 20k, min_th = 1k: first packet sees zero backlog.
        res = lr.transmit(1, self._pkt(), 0.0)
        assert res.accepted

    def test_red_drops_before_buffer_full(self):
        red = self._link("red")
        tail = self._link("droptail")
        pkt = self._pkt()
        for _ in range(18):  # backlog stays below queue_bytes
            red.transmit(1, self._pkt(), 0.0)
            tail.transmit(1, self._pkt(), 0.0)
        assert tail.total_drops == 0
        assert red.total_drops > 0  # early random drops occurred

    def test_red_deterministic_per_link(self):
        a = self._link("red")
        b = self._link("red")
        drops_a = [a.transmit(1, self._pkt(), 0.0).accepted for _ in range(30)]
        drops_b = [b.transmit(1, self._pkt(), 0.0).accepted for _ in range(30)]
        assert drops_a == drops_b

    def test_tcp_completes_over_red(self):
        net = Network()
        r0 = net.add_node(NodeKind.ROUTER)
        r1 = net.add_node(NodeKind.ROUTER)
        h0 = net.add_node(NodeKind.HOST)
        h1 = net.add_node(NodeKind.HOST)
        net.add_link(r0, r1, 5e6, 5e-3, 16_000)
        net.add_link(h0, r0, 1e9, 20e-6)
        net.add_link(h1, r1, 1e9, 20e-6)
        k = ShardEngine([0] * net.num_nodes, 1, lookahead=120.0)
        sim = NetworkSimulator(net, ForwardingPlane(net), k, queue_discipline="red")
        done = []
        sender = start_transfer(sim, h0, h1, 300_000, lambda t: done.append(t))
        k.run(until=120.0)
        assert done, "transfer must survive RED"
        assert sim.counters.packets_dropped_queue > 0  # RED was active
