"""Tests for live-traffic admission on the parallel engine.

The Agent must align injected live traffic to synchronization barriers —
the mechanism that lets application callbacks execute on arbitrary LPs
without violating the conservative lookahead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ShardEngine, SimKernel
from repro.netsim import NetworkSimulator
from repro.online import Agent, WrapSocket
from repro.routing import ForwardingPlane
from repro.topology import Network, NodeKind


@pytest.fixture()
def split_net():
    """Two host/router pairs joined by a 2 ms link; LP 0 = left, LP 1 = right."""
    net = Network()
    r0 = net.add_node(NodeKind.ROUTER)
    r1 = net.add_node(NodeKind.ROUTER)
    h0 = net.add_node(NodeKind.HOST)
    h1 = net.add_node(NodeKind.HOST)
    net.add_link(r0, r1, 1e9, 2e-3)
    net.add_link(h0, r0, 1e9, 20e-6)
    net.add_link(h1, r1, 1e9, 20e-6)
    assignment = np.array([0, 1, 0, 1])
    return net, assignment, (r0, r1, h0, h1)


class TestBarrierAlignment:
    def test_sequential_injects_immediately(self, split_net):
        net, assignment, (r0, r1, h0, h1) = split_net
        k = SimKernel()
        sim = NetworkSimulator(net, ForwardingPlane(net), k)
        agent = Agent(sim)
        assert agent._injection_time() == k.now

    def test_parallel_defers_to_window_end(self, split_net):
        net, assignment, (r0, r1, h0, h1) = split_net
        eng = ShardEngine(assignment, 2, lookahead=1e-3)
        sim = NetworkSimulator(net, ForwardingPlane(net), eng)
        agent = Agent(sim)
        observed = []

        def probe():
            observed.append((eng.current_time, agent._injection_time()))

        eng.schedule_at(0.0004, probe, node=h0)
        eng.run(until=0.01)
        (now, inj), = observed
        assert now == pytest.approx(0.0004)
        assert inj == pytest.approx(1e-3)  # end of the first window

    def test_cross_lp_callback_chain_runs_strict(self, split_net):
        """A ping-pong between sockets on different LPs, fully callback-
        driven, must run without lookahead violations."""
        net, assignment, (r0, r1, h0, h1) = split_net
        eng = ShardEngine(assignment, 2, lookahead=2e-3, strict=True)
        sim = NetworkSimulator(net, ForwardingPlane(net), eng)
        agent = Agent(sim)
        a = WrapSocket(agent, h0, "a@pp")
        b = WrapSocket(agent, h1, "b@pp")
        a.connect_node(h1)
        b.connect_node(h0)
        hops = []

        def pong(src, nbytes, t):
            hops.append(("b-got", t))
            if len(hops) < 6:
                b.send(4_000)

        def ping_back(src, nbytes, t):
            hops.append(("a-got", t))
            if len(hops) < 6:
                a.send(4_000)

        b.listen(pong)
        a.listen(ping_back)
        a.send(4_000)
        eng.run(until=2.0)
        assert len(hops) >= 6
        assert eng.lookahead_violations == 0
        times = [t for _, t in hops]
        assert times == sorted(times)

    def test_agent_schedule_clamps_to_barrier(self, split_net):
        net, assignment, (r0, r1, h0, h1) = split_net
        eng = ShardEngine(assignment, 2, lookahead=1e-3, strict=True)
        sim = NetworkSimulator(net, ForwardingPlane(net), eng)
        agent = Agent(sim)
        fired = []

        def inside_window():
            # Schedule "zero-delay" app work onto the OTHER LP: without
            # barrier clamping this would violate the lookahead.
            agent.schedule(0.0, lambda: fired.append(eng.current_time), node=h1)

        eng.schedule_at(0.0002, inside_window, node=h0)
        eng.run(until=0.01)
        assert fired
        assert fired[0] >= 1e-3 - 1e-12
        assert eng.lookahead_violations == 0
