"""Tests for TCP Reno: handshake, transfer, loss recovery, congestion."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.engine import ShardEngine
from repro.netsim import (
    NetworkSimulator,
    TCP_MSS_BYTES,
    start_transfer,
)
from repro.netsim.tcp import TcpSender
from repro.routing import ForwardingPlane
from repro.topology import Network, NodeKind


def make_path_net(bw=1e9, lat=1e-3, queue=64 * 1024):
    """h0 - r0 - r1 - h1, with the router link parameterized."""
    net = Network()
    r0 = net.add_node(NodeKind.ROUTER)
    r1 = net.add_node(NodeKind.ROUTER)
    h0 = net.add_node(NodeKind.HOST)
    h1 = net.add_node(NodeKind.HOST)
    net.add_link(r0, r1, bw, lat, queue)
    net.add_link(h0, r0, 1e9, 20e-6)
    net.add_link(h1, r1, 1e9, 20e-6)
    return net, h0, h1


def run_transfer(net, h0, h1, nbytes, until=60.0):
    k = ShardEngine([0] * net.num_nodes, 1, lookahead=until)
    sim = NetworkSimulator(net, ForwardingPlane(net), k)
    done = []
    sender = start_transfer(sim, h0, h1, nbytes, lambda t: done.append(t))
    k.run(until=until)
    return k, sim, sender, done


class TestCleanPath:
    def test_completes(self):
        net, h0, h1 = make_path_net()
        _, _, sender, done = run_transfer(net, h0, h1, 100_000)
        assert done
        assert sender.stats.completed_at >= 0.0

    def test_no_retransmits_without_loss(self):
        net, h0, h1 = make_path_net()
        _, sim, sender, _ = run_transfer(net, h0, h1, 100_000)
        assert sender.stats.retransmits == 0
        assert sender.stats.timeouts == 0
        assert sim.counters.packets_dropped_queue == 0

    def test_segment_count(self):
        net, h0, h1 = make_path_net()
        _, _, sender, _ = run_transfer(net, h0, h1, 100_000)
        assert sender.stats.segments_sent == math.ceil(100_000 / TCP_MSS_BYTES)

    def test_completion_time_sane(self):
        # 100 KB over ~1 ms RTT path: slow start from 2 needs ~6 RTTs.
        net, h0, h1 = make_path_net()
        _, _, _, done = run_transfer(net, h0, h1, 100_000)
        assert 2e-3 < done[0] < 0.1

    def test_tiny_transfer(self):
        net, h0, h1 = make_path_net()
        _, _, sender, done = run_transfer(net, h0, h1, 10)
        assert done and sender.stats.segments_sent == 1

    def test_throughput_reasonable(self):
        # 1 MB over a fat short path should finish in well under a second.
        net, h0, h1 = make_path_net(bw=1e9, lat=0.5e-3)
        _, _, _, done = run_transfer(net, h0, h1, 1_000_000)
        assert done
        assert done[0] < 1.0

    def test_endpoints_deregistered_after_completion(self):
        net, h0, h1 = make_path_net()
        k, sim, sender, done = run_transfer(net, h0, h1, 10_000)
        assert not sim._tcp_endpoints


class TestCongestion:
    def test_bottleneck_causes_loss_and_recovery(self):
        # Narrow bottleneck with a small queue: drops are inevitable, yet
        # the transfer completes via retransmission.
        net, h0, h1 = make_path_net(bw=5e6, lat=5e-3, queue=8_000)
        _, sim, sender, done = run_transfer(net, h0, h1, 400_000, until=120.0)
        assert sim.counters.packets_dropped_queue > 0
        assert sender.stats.retransmits > 0
        assert done, "transfer must complete despite loss"

    def test_fast_retransmit_used(self):
        net, h0, h1 = make_path_net(bw=5e6, lat=5e-3, queue=8_000)
        _, _, sender, _ = run_transfer(net, h0, h1, 400_000, until=120.0)
        assert sender.stats.fast_retransmits > 0

    def test_competing_flows_share(self):
        net, h0, h1 = make_path_net(bw=20e6, lat=2e-3, queue=32_000)
        k = ShardEngine([0] * net.num_nodes, 1, lookahead=60.0)
        sim = NetworkSimulator(net, ForwardingPlane(net), k)
        finished = []
        senders = [
            start_transfer(sim, h0, h1, 200_000, lambda t, i=i: finished.append(i))
            for i in range(4)
        ]
        k.run(until=60.0)
        assert len(finished) == 4

    def test_burst_loss_repairs_via_go_back_n(self):
        """Regression: when a whole flight is lost (small queue, several
        flows bursting from one host), an RTO must repair the full window
        at cwnd pace — not one segment per exponentially backed-off
        timeout (which once stalled flows for tens of seconds)."""
        net = Network()
        r0 = net.add_node(NodeKind.ROUTER)
        r1 = net.add_node(NodeKind.ROUTER)
        h0 = net.add_node(NodeKind.HOST)
        peers = [net.add_node(NodeKind.HOST) for _ in range(3)]
        net.add_link(r0, r1, 1e9, 1e-3)
        net.add_link(h0, r0, 100e6, 20e-6, queue_bytes=16_000)
        for p in peers:
            net.add_link(p, r1, 1e9, 20e-6)
        k = ShardEngine([0] * net.num_nodes, 1, lookahead=10.0)
        sim = NetworkSimulator(net, ForwardingPlane(net), k)
        done: list[float] = []
        for p in peers:
            start_transfer(sim, h0, p, 200_000, lambda t: done.append(t))
        k.run(until=10.0)
        assert len(done) == 3
        assert max(done) < 5.0, "burst loss must not stall into RTO backoff"

    def test_loopback_transfer(self):
        net, h0, h1 = make_path_net()
        k = ShardEngine([0] * net.num_nodes, 1, lookahead=10.0)
        sim = NetworkSimulator(net, ForwardingPlane(net), k)
        done = []
        start_transfer(sim, h0, h0, 50_000, lambda t: done.append(t))
        k.run(until=10.0)
        assert done
        assert done[0] < 0.1


class TestRenoStateMachine:
    def _sim(self):
        net, h0, h1 = make_path_net()
        k = ShardEngine([0] * net.num_nodes, 1, lookahead=1.0)
        sim = NetworkSimulator(net, ForwardingPlane(net), k)
        return sim, h0, h1

    def test_slow_start_doubles(self):
        sim, h0, h1 = self._sim()
        sender = TcpSender(sim, 999, h0, h1, 100_000)
        sender._established = True
        sender.cwnd = 2.0
        sender._fill_window()
        assert sender.next_seq == 2
        sender._on_ack(1)
        assert sender.cwnd == pytest.approx(3.0)

    def test_congestion_avoidance_linear(self):
        sim, h0, h1 = self._sim()
        sender = TcpSender(sim, 998, h0, h1, 10_000_000)
        sender._established = True
        sender.cwnd = 10.0
        sender.ssthresh = 5.0
        sender.next_seq = 10
        sender._on_ack(1)
        assert sender.cwnd == pytest.approx(10.1)

    def test_triple_dupack_enters_recovery(self):
        sim, h0, h1 = self._sim()
        sender = TcpSender(sim, 997, h0, h1, 10_000_000)
        sender._established = True
        sender.cwnd = 8.0
        sender._fill_window()
        before = sender.stats.segments_sent
        for _ in range(3):
            sender._on_ack(0)
        assert sender.in_recovery
        assert sender.ssthresh == pytest.approx(4.0)
        assert sender.stats.fast_retransmits == 1

    def test_recovery_exit_deflates(self):
        sim, h0, h1 = self._sim()
        sender = TcpSender(sim, 996, h0, h1, 10_000_000)
        sender._established = True
        sender.cwnd = 8.0
        sender._fill_window()
        for _ in range(3):
            sender._on_ack(0)
        recover = sender.recover_point
        sender._on_ack(recover)
        assert not sender.in_recovery
        assert sender.cwnd == pytest.approx(sender.ssthresh)

    def test_rto_resets_to_slow_start(self):
        sim, h0, h1 = self._sim()
        sender = TcpSender(sim, 995, h0, h1, 10_000_000)
        sender._established = True
        sender.cwnd = 16.0
        sender._fill_window()
        sender._on_rto()
        assert sender.cwnd == 1.0
        assert sender.stats.timeouts == 1

    def test_rtt_estimator_converges(self):
        sim, h0, h1 = self._sim()
        sender = TcpSender(sim, 994, h0, h1, 10_000_000)
        for _ in range(20):
            sender._measure_rtt(0.05)
        assert sender.srtt == pytest.approx(0.05, rel=0.01)
        assert sender.rto >= 0.2  # MIN_RTO floor
