"""Tests for the packet simulator core: forwarding, delivery, counters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ShardEngine, SimKernel
from repro.netsim import (
    LOOPBACK_LATENCY_S,
    NetworkSimulator,
    Packet,
    Protocol,
    send_datagram,
)
from repro.routing import ForwardingPlane
from repro.topology import Network, NodeKind


@pytest.fixture()
def line_net():
    """h0 - r0 - r1 - h1 with 1 ms router link, 20 us access links."""
    net = Network()
    r0 = net.add_node(NodeKind.ROUTER)
    r1 = net.add_node(NodeKind.ROUTER)
    h0 = net.add_node(NodeKind.HOST)
    h1 = net.add_node(NodeKind.HOST)
    net.add_link(r0, r1, 1e9, 1e-3)
    net.add_link(h0, r0, 100e6, 20e-6)
    net.add_link(h1, r1, 100e6, 20e-6)
    return net, (r0, r1, h0, h1)


def mk_sim(net, record=False):
    k = SimKernel(record_trace=True)
    sim = NetworkSimulator(net, ForwardingPlane(net), k, record_transmissions=record)
    return k, sim


class TestForwarding:
    def test_udp_end_to_end(self, line_net):
        net, (r0, r1, h0, h1) = line_net
        k, sim = mk_sim(net)
        got = []
        sim.udp_bind(h1, 9, lambda p: got.append((p.seq, sim.now)))
        send_datagram(sim, h0, h1, 1000, port=9)
        k.run(until=1.0)
        assert len(got) == 1
        # latency >= propagation path (20us + 1ms + 20us)
        assert got[0][1] >= 1.04e-3

    def test_hop_count(self, line_net):
        net, (r0, r1, h0, h1) = line_net
        k, sim = mk_sim(net)
        seen = []
        sim.udp_bind(h1, 9, lambda p: seen.append(p.hops))
        send_datagram(sim, h0, h1, 500, port=9)
        k.run(until=1.0)
        assert seen == [3]  # h0->r0, r0->r1, r1->h1

    def test_node_packets_counted_along_path(self, line_net):
        net, (r0, r1, h0, h1) = line_net
        k, sim = mk_sim(net)
        sim.udp_bind(h1, 9, lambda p: None)
        send_datagram(sim, h0, h1, 500, port=9)
        k.run(until=1.0)
        for node in (h0, r0, r1, h1):
            assert sim.node_packets[node] == 1

    def test_ttl_expiry(self, line_net):
        net, (r0, r1, h0, h1) = line_net
        k, sim = mk_sim(net)
        p = Packet(src=h0, dst=h1, size_bytes=100, protocol=Protocol.UDP,
                   flow_id=sim.next_flow_id(), ttl=1)
        sim.inject(p)
        k.run(until=1.0)
        assert sim.counters.packets_dropped_ttl == 1
        assert sim.counters.packets_delivered == 0

    def test_unroutable_counted(self, line_net):
        net, (r0, r1, h0, h1) = line_net
        iso = net.add_node(NodeKind.HOST)  # no link
        k, sim = mk_sim(net)
        p = Packet(src=h0, dst=iso, size_bytes=100, protocol=Protocol.UDP,
                   flow_id=sim.next_flow_id())
        sim.inject(p)
        k.run(until=1.0)
        assert sim.counters.packets_unroutable == 1

    def test_loopback_delivery(self, line_net):
        net, (r0, r1, h0, h1) = line_net
        k, sim = mk_sim(net)
        got = []
        sim.udp_bind(h0, 9, lambda p: got.append(sim.now))
        send_datagram(sim, h0, h0, 100, port=9)
        k.run(until=1.0)
        assert got == [pytest.approx(LOOPBACK_LATENCY_S)]

    def test_transmissions_recorded(self, line_net):
        net, (r0, r1, h0, h1) = line_net
        k, sim = mk_sim(net, record=True)
        sim.udp_bind(h1, 9, lambda p: None)
        send_datagram(sim, h0, h1, 500, port=9)
        k.run(until=1.0)
        t, f, to = sim.transmissions()
        assert f.tolist() == [h0, r0, r1]
        assert to.tolist() == [r0, r1, h1]
        assert np.all(np.diff(t) > 0)

    def test_link_byte_counters(self, line_net):
        net, (r0, r1, h0, h1) = line_net
        k, sim = mk_sim(net)
        sim.udp_bind(h1, 9, lambda p: None)
        send_datagram(sim, h0, h1, 1000, port=9)
        k.run(until=1.0)
        assert sim.link_bytes().sum() == pytest.approx(3 * 1028)  # 3 hops

    def test_udp_bind_conflict(self, line_net):
        net, (_, _, h0, _) = line_net
        _, sim = mk_sim(net)
        sim.udp_bind(h0, 5, lambda p: None)
        with pytest.raises(ValueError):
            sim.udp_bind(h0, 5, lambda p: None)
        sim.udp_unbind(h0, 5)
        sim.udp_bind(h0, 5, lambda p: None)


class TestFlowIds:
    def test_every_fresh_simulator_numbers_flows_from_one(self, line_net):
        net, (r0, r1, h0, h1) = line_net
        seen = []
        for _ in range(2):
            k, sim = mk_sim(net)
            sim.udp_bind(h1, 9, lambda p, log=seen: log.append(p.flow_id))
            send_datagram(sim, h0, h1, 500, port=9)
            send_datagram(sim, h0, h1, 500, port=9)
            k.run(until=1.0)
        assert seen == [1, 2, 1, 2]


class TestOnConservativeEngine:
    def test_runs_when_lookahead_below_cut_latency(self, line_net):
        net, (r0, r1, h0, h1) = line_net
        # Partition across the 1 ms router link; lookahead 0.5 ms is safe.
        assignment = np.array([0, 1, 0, 1])
        eng = ShardEngine(assignment, 2, lookahead=0.5e-3)
        sim = NetworkSimulator(net, ForwardingPlane(net), eng)
        got = []
        sim.udp_bind(h1, 9, lambda p: got.append(eng.current_time))
        eng.schedule_at(0.0, lambda: send_datagram(sim, h0, h1, 500, port=9), node=h0)
        eng.run(until=0.01)
        assert len(got) == 1
        assert sum(int(ws.remote_sends_per_lp.sum()) for ws in eng.window_stats) == 1

    def test_same_delivery_time_as_sequential(self, line_net):
        net, (r0, r1, h0, h1) = line_net
        k, sim_seq = mk_sim(net)
        t_seq = []
        sim_seq.udp_bind(h1, 9, lambda p: t_seq.append(sim_seq.now))
        k.schedule_at(0.0, lambda: send_datagram(sim_seq, h0, h1, 500, port=9), node=h0)
        k.run(until=0.01)

        assignment = np.array([0, 1, 0, 1])
        eng = ShardEngine(assignment, 2, lookahead=0.5e-3)
        sim_par = NetworkSimulator(net, ForwardingPlane(net), eng)
        t_par = []
        sim_par.udp_bind(h1, 9, lambda p: t_par.append(eng.current_time))
        eng.schedule_at(0.0, lambda: send_datagram(sim_par, h0, h1, 500, port=9), node=h0)
        eng.run(until=0.01)
        assert t_par == pytest.approx(t_seq)


class TestParallelLinks:
    """Two links between one router pair: the packet rides the one SPF
    routed over, the cheapest in service (the first-created among equals)."""

    @staticmethod
    def _pair(latencies=(5e-3, 1e-3)):
        net = Network()
        a = net.add_node(NodeKind.ROUTER)
        b = net.add_node(NodeKind.ROUTER)
        for latency in latencies:
            net.add_link(a, b, 1e8, latency)
        fib = ForwardingPlane(net)
        kernel = SimKernel()
        sim = NetworkSimulator(net, fib, kernel)
        got = []
        sim.udp_bind(b, 9, lambda p: got.append(sim.now))
        return kernel, sim, fib, (a, b), got

    def test_healthy_run_uses_the_cheaper_link(self):
        kernel, sim, fib, (a, b), got = self._pair()
        send_datagram(sim, a, b, 500, port=9)
        kernel.run(until=1.0)
        assert sim.link_packets().tolist() == [0, 1]
        assert got == [pytest.approx(1e-3, rel=0.1)]

    def test_equal_links_tie_break_to_the_first_created(self):
        kernel, sim, _, (a, b), _ = self._pair(latencies=(1e-3, 1e-3))
        send_datagram(sim, a, b, 500, port=9)
        kernel.run(until=1.0)
        assert sim.link_packets().tolist() == [1, 0]

    def test_packet_is_delivered_over_the_survivor_after_link_down(self):
        from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultSchedule

        kernel, sim, fib, (a, b), got = self._pair(latencies=(1e-3, 5e-3))
        schedule = FaultSchedule.from_events([FaultEvent(0.1, FaultKind.LINK_DOWN, (0,))])
        FaultInjector(sim, fib, schedule).install(kernel)
        for t in (0.0, 0.2):
            kernel.schedule_at(t, lambda: send_datagram(sim, a, b, 500, port=9), node=a)
        kernel.run(until=1.0)
        assert fib.next_hop(a, b) == b  # link 1 keeps the pair adjacent
        assert sim.link_packets().tolist() == [1, 1]
        assert sim.counters.packets_delivered == 2
        assert sim.counters.packets_dropped_queue == 0
