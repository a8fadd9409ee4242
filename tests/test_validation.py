"""Validation tests: simulator behavior against analytic expectations.

These pin the physics of the substrate: TCP against slow-start theory and
capacity bounds, OSPF against an independent shortest-path oracle
(networkx), and full multi-AS experiments against basic invariants.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest

from repro.core import Approach
from repro.engine import ShardEngine
from repro.netsim import (
    NetworkSimulator,
    TCP_HEADER_BYTES,
    TCP_MSS_BYTES,
    start_transfer,
)
from repro.routing import ForwardingPlane, OspfRouting, ospf_link_metric
from repro.topology import Network, NodeKind


def clean_path_net(bw=100e6, lat=10e-3):
    net = Network()
    r0 = net.add_node(NodeKind.ROUTER)
    r1 = net.add_node(NodeKind.ROUTER)
    h0 = net.add_node(NodeKind.HOST)
    h1 = net.add_node(NodeKind.HOST)
    net.add_link(r0, r1, bw, lat, queue_bytes=10**7)
    net.add_link(h0, r0, 1e9, 20e-6)
    net.add_link(h1, r1, 1e9, 20e-6)
    return net, h0, h1


class TestTcpAgainstTheory:
    def test_cannot_beat_capacity(self):
        bw = 10e6
        net, h0, h1 = clean_path_net(bw=bw, lat=1e-3)
        k = ShardEngine([0] * net.num_nodes, 1, lookahead=60.0)
        sim = NetworkSimulator(net, ForwardingPlane(net), k)
        done = []
        nbytes = 1_000_000
        start_transfer(sim, h0, h1, nbytes, lambda t: done.append(t))
        k.run(until=60.0)
        assert done
        # Lower bound: payload + headers over the bottleneck.
        segments = math.ceil(nbytes / TCP_MSS_BYTES)
        wire_bytes = nbytes + segments * TCP_HEADER_BYTES
        assert done[0] >= wire_bytes * 8 / bw

    def test_slow_start_dominates_small_transfers(self):
        # 64 segments from cwnd=2 needs ~5 doubling rounds: the transfer
        # takes several RTTs even though serialization is negligible.
        rtt = 2 * (10e-3 + 2 * 20e-6)
        net, h0, h1 = clean_path_net(bw=1e9, lat=10e-3)
        k = ShardEngine([0] * net.num_nodes, 1, lookahead=10.0)
        sim = NetworkSimulator(net, ForwardingPlane(net), k)
        done = []
        start_transfer(sim, h0, h1, 64 * TCP_MSS_BYTES, lambda t: done.append(t))
        k.run(until=10.0)
        assert done
        rounds = math.ceil(math.log2(64 / 2))  # cwnd 2 -> 64
        assert done[0] >= (rounds - 1) * rtt
        assert done[0] <= (rounds + 4) * rtt  # and not much more

    def test_long_transfer_approaches_capacity(self):
        bw = 50e6
        net, h0, h1 = clean_path_net(bw=bw, lat=2e-3)
        k = ShardEngine([0] * net.num_nodes, 1, lookahead=60.0)
        sim = NetworkSimulator(net, ForwardingPlane(net), k)
        done = []
        nbytes = 4_000_000
        start_transfer(sim, h0, h1, nbytes, lambda t: done.append(t))
        k.run(until=60.0)
        assert done
        achieved = nbytes * 8 / done[0]
        assert achieved > 0.5 * bw  # within 2x of line rate after ramp-up

    def test_utilization_bounded(self):
        # No link direction carries more bytes than its line rate allows.
        net, h0, h1 = clean_path_net(bw=10e6, lat=1e-3)
        k = ShardEngine([0] * net.num_nodes, 1, lookahead=5.0)
        sim = NetworkSimulator(net, ForwardingPlane(net), k)
        start_transfer(sim, h0, h1, 2_000_000)
        k.run(until=5.0)
        for lr in sim.links:
            carried = lr.table.bytes_carried[2 * lr.index:2 * lr.index + 2]
            assert max(carried) > 0
            assert max(carried) * 8.0 <= lr.link.bandwidth_bps * 5.0


class TestOspfAgainstOracle:
    def test_matches_networkx_dijkstra(self, flat_net):
        """Our reverse-SPT next hops must produce paths with the same total
        metric as networkx's Dijkstra on the identical weighted graph."""
        g = nx.Graph()
        for link in flat_net.links:
            g.add_edge(
                link.u, link.v, w=ospf_link_metric(link.latency_s, link.bandwidth_bps)
            )
        ospf = OspfRouting(flat_net, list(range(flat_net.num_nodes)))
        rng = np.random.default_rng(7)
        nodes = rng.choice(flat_net.num_nodes, size=8, replace=False)
        for a in nodes[:4]:
            for b in nodes[4:]:
                ours = ospf.distance(int(a), int(b))
                oracle = nx.dijkstra_path_length(g, int(a), int(b), weight="w")
                assert ours == pytest.approx(oracle, rel=1e-9)


class TestMultiAsExperimentInvariants:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ExperimentScale, run_experiment

        scale = ExperimentScale(
            name="val-micro",
            flat_routers=60,
            flat_hosts=24,
            num_ases=8,
            routers_per_as=8,
            multi_hosts=28,
            http_clients=16,
            http_servers=6,
            http_mean_gap_s=0.4,
            num_engines=6,
            app_processes=4,
            scalapack_iterations=2,
            duration_s=4.0,
            profile_duration_s=2.0,
            event_cost_s=75e-6,
            remote_event_cost_s=190e-6,
        )
        return run_experiment("multi-as", "gridnpb", scale=scale, seed=1)

    def test_all_metrics_finite_positive(self, result):
        for row in result.rows:
            assert math.isfinite(row.sim_time_s) and row.sim_time_s > 0
            assert math.isfinite(row.achieved_mll_ms) and row.achieved_mll_ms > 0
            assert 0 <= row.parallel_eff <= 1

    def test_every_engine_loaded(self, result):
        """No simulation engine may end up with zero events under any of
        the serious mappings (all parts populated + traffic spread)."""
        for row in result.rows:
            if row.approach in (Approach.HPROF, Approach.PROF2):
                assert np.all(row.prediction.events_per_lp > 0)

    def test_time_decomposition(self, result):
        for row in result.rows:
            pred = row.prediction
            assert pred.total_s == pytest.approx(pred.compute_s + pred.sync_s)
            assert 0 <= pred.sync_fraction <= 1
