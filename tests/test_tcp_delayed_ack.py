"""Tests for RFC-1122-style delayed acknowledgements."""

from __future__ import annotations

import pytest

from repro.engine import ShardEngine
from repro.netsim import NetworkSimulator, start_transfer
from repro.routing import ForwardingPlane
from repro.topology import Network, NodeKind


def mk_env():
    net = Network()
    r0 = net.add_node(NodeKind.ROUTER)
    r1 = net.add_node(NodeKind.ROUTER)
    h0 = net.add_node(NodeKind.HOST)
    h1 = net.add_node(NodeKind.HOST)
    net.add_link(r0, r1, 1e9, 2e-3, queue_bytes=10**7)
    net.add_link(h0, r0, 1e9, 20e-6)
    net.add_link(h1, r1, 1e9, 20e-6)
    k = ShardEngine([0] * net.num_nodes, 1, lookahead=1.0)
    sim = NetworkSimulator(net, ForwardingPlane(net), k)
    return k, sim, h0, h1


def run_one(delayed_ack: bool, nbytes: int = 300_000):
    k, sim, h0, h1 = mk_env()
    done = []
    sender = start_transfer(
        sim, h0, h1, nbytes, lambda t: done.append(t), delayed_ack=delayed_ack
    )
    k.run(until=60.0)
    receiver = None  # endpoints deregistered on completion; use stats
    return sender, done, k.events_executed


class TestDelayedAck:
    def test_transfer_completes(self):
        sender, done, _ = run_one(True)
        assert done
        assert sender.stats.retransmits == 0

    def test_fewer_events_than_per_packet_acks(self):
        s_imm, done_imm, ev_imm = run_one(False)
        s_del, done_del, ev_del = run_one(True)
        assert done_imm and done_del
        # Delayed ACKs roughly halve the ACK stream: clearly fewer events.
        assert ev_del < 0.9 * ev_imm

    def test_slower_ramp_than_immediate(self):
        _, done_imm, _ = run_one(False)
        _, done_del, _ = run_one(True)
        # Fewer ACKs -> slower cwnd growth -> the delayed-ACK transfer is
        # never faster.
        assert done_del[0] >= done_imm[0] * 0.999

    def test_final_segment_acked_immediately(self):
        # A 1-segment transfer must not wait for a second segment.
        k, sim, h0, h1 = mk_env()
        done = []
        start_transfer(sim, h0, h1, 500, lambda t: done.append(t), delayed_ack=True)
        k.run(until=5.0)
        assert done

    def test_odd_segment_count_completes(self):
        # 3 segments: second is delayed, third (final) forces the ACK.
        k, sim, h0, h1 = mk_env()
        done = []
        start_transfer(sim, h0, h1, 3 * 1460, lambda t: done.append(t), delayed_ack=True)
        k.run(until=5.0)
        assert done
