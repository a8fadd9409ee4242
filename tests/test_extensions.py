"""Tests for the extension features: failure injection."""

from __future__ import annotations

from repro.engine import ShardEngine
from repro.netsim import NetworkSimulator, start_transfer
from repro.routing import ForwardingPlane
from repro.topology import Network, NodeKind


def path_net():
    net = Network()
    r0 = net.add_node(NodeKind.ROUTER)
    r1 = net.add_node(NodeKind.ROUTER)
    h0 = net.add_node(NodeKind.HOST)
    h1 = net.add_node(NodeKind.HOST)
    core = net.add_link(r0, r1, 1e9, 1e-3)
    net.add_link(h0, r0, 1e9, 20e-6)
    net.add_link(h1, r1, 1e9, 20e-6)
    return net, h0, h1, core


class TestFailureInjection:
    def test_failed_link_drops_everything(self):
        net, h0, h1, core = path_net()
        k = ShardEngine([0] * net.num_nodes, 1, lookahead=5.0)
        sim = NetworkSimulator(net, ForwardingPlane(net), k)
        sim.fail_link(core)
        done = []
        start_transfer(sim, h0, h1, 10_000, lambda t: done.append(t))
        k.run(until=5.0)
        assert not done
        assert sim.counters.packets_dropped_queue > 0

    def test_tcp_survives_transient_failure(self):
        net, h0, h1, core = path_net()
        k = ShardEngine([0] * net.num_nodes, 1, lookahead=120.0)
        sim = NetworkSimulator(net, ForwardingPlane(net), k)
        done = []
        start_transfer(sim, h0, h1, 200_000, lambda t: done.append(t))
        # Fail the core link mid-transfer for 1.5 s, then restore.
        k.schedule_at(0.002, lambda: sim.fail_link(core))
        k.schedule_at(1.5, lambda: sim.restore_link(core))
        k.run(until=120.0)
        assert done, "TCP must recover via RTO after the link returns"
        assert done[0] > 1.5

    def test_restore_is_clean(self):
        net, h0, h1, core = path_net()
        k = ShardEngine([0] * net.num_nodes, 1, lookahead=5.0)
        sim = NetworkSimulator(net, ForwardingPlane(net), k)
        sim.fail_link(core)
        sim.restore_link(core)
        done = []
        start_transfer(sim, h0, h1, 10_000, lambda t: done.append(t))
        k.run(until=5.0)
        assert done
