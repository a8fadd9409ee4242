"""Tests for the online layer: IP mapping, Agent, WrapSocket, real-time."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ShardEngine
from repro.engine.costmodel import WallclockPrediction
from repro.netsim import NetworkSimulator
from repro.online import (
    Agent,
    OnlineTimeoutError,
    SocketClosed,
    VirtualIpMapper,
    VirtualTimeController,
    WrapSocket,
    required_slowdown,
)


class TestVirtualIpMapper:
    def test_roundtrip(self):
        for node in (0, 1, 255, 256, 65_536, 1_000_000):
            ip = VirtualIpMapper.virtual_ip(node)
            assert VirtualIpMapper.node_of(ip) == node

    def test_format(self):
        assert VirtualIpMapper.virtual_ip(0) == "10.0.0.0"
        assert VirtualIpMapper.virtual_ip(257) == "10.0.1.1"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            VirtualIpMapper.virtual_ip(1 << 24)
        with pytest.raises(ValueError):
            VirtualIpMapper.virtual_ip(-1)

    def test_invalid_parse(self):
        with pytest.raises(ValueError):
            VirtualIpMapper.node_of("192.168.0.1")
        with pytest.raises(ValueError):
            VirtualIpMapper.node_of("10.0.0")
        with pytest.raises(ValueError):
            VirtualIpMapper.node_of("10.0.0.999")

    def test_registration(self):
        m = VirtualIpMapper()
        ip = m.register("proc1:5000", 42)
        assert ip == VirtualIpMapper.virtual_ip(42)
        assert len(m) == 1

    def test_duplicate_rejected(self):
        m = VirtualIpMapper()
        m.register("a", 1)
        with pytest.raises(ValueError):
            m.register("a", 2)
        with pytest.raises(ValueError):
            m.register("b", 1)


@pytest.fixture()
def agent_env(flat_net, flat_fib):
    k = ShardEngine([0] * flat_net.num_nodes, 1, lookahead=1.0)
    sim = NetworkSimulator(flat_net, flat_fib, k)
    return k, sim, Agent(sim)


class TestAgent:
    def test_transfer_completes_with_stats(self, agent_env, flat_net):
        k, sim, agent = agent_env
        hosts = flat_net.host_ids()
        done = []
        agent.transfer(hosts[0], hosts[1], 30_000, lambda t: done.append(t))
        k.run(until=10.0)
        assert done
        assert agent.stats.streams_opened == 1
        assert agent.stats.streams_completed == 1
        assert agent.stats.bytes_requested == 30_000

    def test_schedule(self, agent_env):
        k, sim, agent = agent_env
        fired = []
        agent.schedule(0.5, lambda: fired.append(agent.now))
        k.run(until=1.0)
        assert fired == [pytest.approx(0.5)]

    def test_attach_process(self, agent_env):
        k, sim, agent = agent_env
        ip = agent.attach_process("rank0@test", 5)
        assert VirtualIpMapper.node_of(ip) == 5


class TestWrapSocket:
    def test_send_and_listen(self, agent_env, flat_net):
        k, sim, agent = agent_env
        hosts = flat_net.host_ids()
        a = WrapSocket(agent, hosts[0], "a@test")
        b = WrapSocket(agent, hosts[1], "b@test")
        received = []
        b.listen(lambda src, n, t: received.append((src, n)))
        a.connect(b.virtual_ip)
        sent = []
        a.send(10_000, lambda t: sent.append(t))
        k.run(until=10.0)
        assert received == [(hosts[0], 10_000)]
        assert sent

    def test_unconnected_send_raises(self, agent_env, flat_net):
        k, sim, agent = agent_env
        a = WrapSocket(agent, flat_net.host_ids()[0], "x@test")
        with pytest.raises(SocketClosed):
            a.send(100)

    def test_closed_socket_raises(self, agent_env, flat_net):
        k, sim, agent = agent_env
        a = WrapSocket(agent, flat_net.host_ids()[0], "y@test")
        a.close()
        with pytest.raises(SocketClosed):
            a.connect_node(3)

    def test_reopen_same_node_reuses_ip(self, agent_env, flat_net):
        k, sim, agent = agent_env
        h = flat_net.host_ids()[0]
        a = WrapSocket(agent, h, "p@test")
        b = WrapSocket(agent, h, "q@test")  # same node, new process
        assert a.virtual_ip == b.virtual_ip

    def test_close_removes_listener(self, agent_env, flat_net):
        k, sim, agent = agent_env
        hosts = flat_net.host_ids()
        b = WrapSocket(agent, hosts[1], "l@test")
        received = []
        b.listen(lambda *a: received.append(a))
        b.close()
        a = WrapSocket(agent, hosts[0], "m@test")
        a.connect_node(hosts[1])
        a.send(1000)
        k.run(until=5.0)
        assert received == []

    def test_sibling_close_keeps_the_listener_another_socket_registered(
        self, agent_env, flat_net
    ):
        # GridNPB opens one socket per task per host: closing one must
        # not silence the listener a sibling on the same host registered.
        k, sim, agent = agent_env
        hosts = flat_net.host_ids()
        a = WrapSocket(agent, hosts[1], "task0@test")
        received = []
        a.listen(lambda src, n, t: received.append((src, n)))
        b = WrapSocket(agent, hosts[1], "task1@test")
        b.close()
        sender = WrapSocket(agent, hosts[0], "peer@test")
        sender.connect_node(hosts[1])
        sender.send(4000)
        k.run(until=5.0)
        assert received == [(hosts[0], 4000)]
        a.close()
        assert hosts[1] not in agent.listeners

    def test_two_simulations_in_one_process_keep_their_own_listeners(
        self, flat_net, flat_fib
    ):
        # Same node id listening in both simulations: each stream reaches
        # its own simulation's listener and only it.
        hosts = flat_net.host_ids()
        got = {}
        sims = {}
        for name in ("A", "B"):
            k = ShardEngine([0] * flat_net.num_nodes, 1, lookahead=5.0)
            agent = Agent(NetworkSimulator(flat_net, flat_fib, k))
            got[name] = []
            listener = WrapSocket(agent, hosts[1], f"srv{name}@test")
            listener.listen(lambda src, n, t, log=got[name]: log.append((src, n)))
            sims[name] = (k, agent)
        for name, nbytes in (("A", 5000), ("B", 7000)):
            k, agent = sims[name]
            sender = WrapSocket(agent, hosts[0], f"cli{name}@test")
            sender.connect_node(hosts[1])
            sender.send(nbytes)
        for k, _agent in sims.values():
            k.run(until=5.0)
        assert got == {"A": [(hosts[0], 5000)], "B": [(hosts[0], 7000)]}


class TestSendTimeout:
    """send(timeout_s=...): the watchdog-with-backoff path.

    A black-holed peer (node marked down, as router-crash faults do)
    never acknowledges, so every attempt times out; a healthy peer
    completes before the first watchdog and no retry happens.
    """

    def test_send_completes_without_retry(self, agent_env, flat_net):
        k, sim, agent = agent_env
        hosts = flat_net.host_ids()
        a = WrapSocket(agent, hosts[0], "to@test")
        a.connect_node(hosts[1])
        sent, timeouts = [], []
        a.send(10_000, lambda t: sent.append(t), timeout_s=30.0,
               on_timeout=timeouts.append)
        k.run(until=60.0)
        assert len(sent) == 1
        assert timeouts == []
        assert agent.stats.streams_opened == 1  # no retransmission

    def test_blackhole_exhausts_retries_into_callback(self, agent_env, flat_net):
        k, sim, agent = agent_env
        hosts = flat_net.host_ids()
        sim.set_node_down(hosts[1])
        a = WrapSocket(agent, hosts[0], "bh@test")
        a.connect_node(hosts[1])
        sent, timeouts = [], []
        a.send(5_000, lambda t: sent.append(t), timeout_s=0.1, max_retries=2,
               on_timeout=timeouts.append)
        k.run(until=30.0)
        assert sent == []
        assert len(timeouts) == 1
        err = timeouts[0]
        assert isinstance(err, OnlineTimeoutError)
        assert err.attempts == 3  # initial attempt + 2 retries
        assert err.waited_s > 0.1  # backed-off waits accumulate
        assert "send 5000B" in err.operation
        assert agent.stats.streams_opened == 3

    def test_blackhole_raises_without_callback(self, agent_env, flat_net):
        k, sim, agent = agent_env
        hosts = flat_net.host_ids()
        sim.set_node_down(hosts[1])
        a = WrapSocket(agent, hosts[0], "br@test")
        a.connect_node(hosts[1])
        a.send(1_000, timeout_s=0.05, max_retries=1)
        with pytest.raises(OnlineTimeoutError):
            k.run(until=30.0)

    def test_invalid_timeout_rejected(self, agent_env, flat_net):
        k, sim, agent = agent_env
        a = WrapSocket(agent, flat_net.host_ids()[0], "iv@test")
        a.connect_node(flat_net.host_ids()[1])
        with pytest.raises(ValueError):
            a.send(100, timeout_s=0.0)

    def test_backoff_is_bounded_and_deterministic(self, agent_env, flat_net):
        k, sim, agent = agent_env
        h = flat_net.host_ids()[0]
        a = WrapSocket(agent, h, "bd@test")
        timeouts = [a._backoff_timeout(1.0, k) for k in range(1, 10)]
        assert all(t <= 8.0 * 1.1 + 1e-12 for t in timeouts)
        assert all(t >= 1.0 for t in timeouts)
        b = WrapSocket(agent, h, "bd2@test")  # same node, same stream
        assert timeouts == [b._backoff_timeout(1.0, k) for k in range(1, 10)]


class TestRealTime:
    def test_identity_at_slowdown_1(self):
        vtc = VirtualTimeController(slowdown=1.0)
        assert vtc.wallclock_deadline(5.0) == 5.0

    def test_slowdown_scales(self):
        vtc = VirtualTimeController(slowdown=8.0)
        assert vtc.wallclock_deadline(1.0) == pytest.approx(8.0)

    def test_epoch_offset(self):
        vtc = VirtualTimeController(slowdown=2.0, wallclock_epoch=10.0)
        assert vtc.wallclock_deadline(2.0) == pytest.approx(14.0)

    def test_invalid_slowdown(self):
        with pytest.raises(ValueError):
            VirtualTimeController(slowdown=0.0)

    def _pred(self, total):
        return WallclockPrediction(
            total_s=total, compute_s=total, sync_s=0.0, num_windows=1,
            num_lps=4, events_per_lp=np.zeros(4), remote_per_lp=np.zeros(4),
        )

    def test_required_slowdown(self):
        assert required_slowdown(self._pred(80.0), 10.0) == pytest.approx(8.0)

    def test_realtime_feasible_clamps_to_1(self):
        assert required_slowdown(self._pred(5.0), 10.0) == 1.0

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            required_slowdown(self._pred(1.0), 0.0)
