"""Additional edge-case coverage across modules."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import run_profiling_simulation
from repro.engine import ShardEngine, SimKernel
from repro.netsim import NetworkSimulator, Packet, Protocol, send_datagram
from repro.netsim.tcp import TcpReceiver
from repro.online import Agent
from repro.routing import ForwardingPlane
from repro.topology import (
    Network,
    NodeKind,
    attach_hosts,
    pick_clients_and_servers,
)


class TestHostsEdgeCases:
    def test_attach_hosts_no_routers(self):
        net = Network()
        net.add_node(NodeKind.HOST)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="no candidate routers"):
            attach_hosts(net, 2, rng, router_ids=[])

    def test_pick_clients_servers_scales_down(self, flat_net, rng):
        clients, servers = pick_clients_and_servers(flat_net, 10_000, 3_000, rng)
        assert len(clients) + len(servers) <= flat_net.num_hosts
        assert clients and servers
        assert not set(clients) & set(servers)

    def test_pick_needs_hosts(self, rng):
        net = Network()
        net.add_node(NodeKind.ROUTER)
        with pytest.raises(ValueError, match="no hosts"):
            pick_clients_and_servers(net, 1, 1, rng)


class TestUdpEdgeCases:
    def test_zero_payload_rejected(self, flat_net, flat_fib):
        k = SimKernel()
        sim = NetworkSimulator(flat_net, flat_fib, k)
        with pytest.raises(ValueError):
            send_datagram(sim, 0, 1, 0)

    def test_fragment_count(self, flat_net, flat_fib):
        k = SimKernel()
        sim = NetworkSimulator(flat_net, flat_fib, k)
        hosts = flat_net.host_ids()
        n = send_datagram(sim, hosts[0], hosts[1], 5000)
        assert n == 4  # ceil(5000/1472)


class TestConservativeEngineEdgeCases:
    def test_multiple_run_calls_accumulate(self):
        eng = ShardEngine(np.zeros(1, dtype=np.int64), 1, lookahead=0.5)
        eng.schedule_at(0.2, lambda: None, node=0)
        eng.schedule_at(1.2, lambda: None, node=0)
        assert eng.run(until=1.0) == 1
        assert eng.run(until=2.0) == 1
        assert eng.events_executed == 2
        assert len(eng.window_stats) == 4

    def test_schedule_into_past_rejected(self):
        eng = ShardEngine(np.zeros(1, dtype=np.int64), 1, lookahead=0.5)
        eng.run(until=1.0)
        with pytest.raises(ValueError):
            eng.schedule_at(0.5, lambda: None, node=0)

    def test_pending_counts_mailboxes(self):
        eng = ShardEngine(np.array([0, 1]), 2, lookahead=0.1)

        def sender():
            eng.schedule_at(eng.current_time + 0.5, lambda: None, node=1)

        eng.schedule_at(0.0, sender, node=0)
        eng.run(until=0.05)  # partial window processing is not possible;
        assert eng.pending >= 0  # but pending never goes negative


class TestProfilingHelper:
    def test_run_profiling_simulation(self, flat_net, flat_fib):
        calls = {}

        def setup(sim, agent):
            calls["sim"] = sim
            calls["agent"] = agent
            hosts = flat_net.host_ids()
            sim.sched.schedule_at(
                0.1,
                lambda: send_datagram(sim, hosts[0], hosts[1], 4000),
                node=hosts[0],
            )

        profile = run_profiling_simulation(flat_net, flat_fib, setup, 1.0)
        assert isinstance(calls["agent"], Agent)
        assert profile.duration_s == 1.0
        assert profile.total_events > 0


class TestTcpReceiverProperty:
    @settings(max_examples=30, deadline=None)
    @given(st.permutations(list(range(12))))
    def test_any_arrival_order_reconstructs(self, order):
        """Whatever order segments arrive in, the receiver's cumulative
        counter must end complete and on_complete must fire exactly once."""
        completions: list[float] = []

        class FakeSim:
            now = 0.0

            def inject(self, packet):  # swallow ACKs
                pass

        receiver = TcpReceiver(
            FakeSim(), 1, src=0, dst=1, total_segments=12,
            on_complete=completions.append,
        )
        for seq in order:
            receiver.receive(
                Packet(src=0, dst=1, size_bytes=100, protocol=Protocol.TCP,
                       flow_id=1, seq=seq)
            )
        assert receiver.cumulative == 12
        assert completions == [0.0]

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=40))
    def test_duplicates_never_overcount(self, seqs):
        class FakeSim:
            now = 0.0

            def inject(self, packet):
                pass

        receiver = TcpReceiver(FakeSim(), 1, 0, 1, total_segments=12)
        for seq in seqs:
            receiver.receive(
                Packet(src=0, dst=1, size_bytes=100, protocol=Protocol.TCP,
                       flow_id=1, seq=seq)
            )
        # Cumulative == length of the longest contiguous prefix delivered.
        delivered = set(seqs)
        expected = 0
        while expected in delivered:
            expected += 1
        assert receiver.cumulative == expected


class TestForwardingPlaneCache:
    def test_cache_returns_none_consistently(self, flat_net):
        fib = ForwardingPlane(flat_net)
        h = flat_net.host_ids()[0]
        assert fib.next_hop(h, h) is None
        assert fib.next_hop(h, h) is None  # cached path
