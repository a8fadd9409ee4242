"""Unit tests for ``repro.faults``: schedules, injector mechanics, sessions.

Covers the determinism contract at the schedule level (same scenario +
network + seed -> same digest), the injector's application of each fault
kind to the simulator/forwarding plane, and the BGP session FSM
(withdrawal on reset, backoff re-establishment, retry exhaustion).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.engine import ShardEngine
from repro.faults import (
    BUILTIN_SCENARIOS,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultScenario,
    FaultSchedule,
)
from repro.netsim.simulator import NetworkSimulator
from repro.obs.trace import traced_run
from repro.partition.rebalance import slowdown_spans
from repro.routing import ForwardingPlane
from repro.routing.bgp.engine import BgpEngine, BgpSpeaker
from repro.routing.bgp.session import BgpSessionManager, SessionState
from repro.topology import generate_flat_network, generate_multi_as_network


class TestFaultEvent:
    def test_param_lookup_and_default(self):
        fe = FaultEvent(
            1.0, FaultKind.LOSS_BURST_START, (3,), (("corrupt_prob", 0.1), ("loss_prob", 0.2))
        )
        assert fe.param("loss_prob") == 0.2
        assert fe.param("corrupt_prob") == 0.1
        assert fe.param("absent", 7.0) == 7.0

    def test_canonical_is_stable_text(self):
        fe = FaultEvent(0.5, FaultKind.LINK_DOWN, (9,))
        assert fe.canonical() == "0.5|link.down|(9,)|"


class TestFaultSchedule:
    def test_events_sorted_by_time_then_kind(self):
        late = FaultEvent(2.0, FaultKind.LINK_UP, (1,))
        early = FaultEvent(1.0, FaultKind.LINK_DOWN, (1,))
        sched = FaultSchedule.from_events([late, early])
        assert [e.time for e in sched] == [1.0, 2.0]
        assert len(sched) == 2

    def test_digest_reflects_content(self):
        a = FaultSchedule.from_events([FaultEvent(1.0, FaultKind.LINK_DOWN, (1,))])
        b = FaultSchedule.from_events([FaultEvent(1.0, FaultKind.LINK_DOWN, (2,))])
        same_as_a = FaultSchedule.from_events([FaultEvent(1.0, FaultKind.LINK_DOWN, (1,))])
        assert a.digest() == same_as_a.digest()
        assert a.digest() != b.digest()
        assert FaultSchedule.from_events([]).digest() == FaultSchedule.from_events([]).digest()


class TestFaultScenario:
    def test_dict_round_trip(self):
        sc = BUILTIN_SCENARIOS["chaos-mixed"]
        assert FaultScenario.from_dict(dataclasses.asdict(sc)) == sc

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            FaultScenario.from_dict({"link_flaps": 1, "blast_radius": 3})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start_s": 2.0, "end_s": 1.0},
            {"loss_prob": 1.5},
            {"corrupt_prob": -0.1},
            {"slowdown_factor": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultScenario(**kwargs)


class TestScenarioMaterialization:
    @pytest.fixture(scope="class")
    def tiny_multi_net(self):
        return generate_multi_as_network(num_ases=4, routers_per_as=4, num_hosts=12, seed=5)

    def test_same_inputs_same_digest(self, tiny_multi_net):
        sc = BUILTIN_SCENARIOS["chaos-mixed"]
        d1 = FaultSchedule.from_scenario(sc, tiny_multi_net, seed=3).digest()
        d2 = FaultSchedule.from_scenario(sc, tiny_multi_net, seed=3).digest()
        assert d1 == d2

    def test_seed_changes_schedule(self, tiny_multi_net):
        sc = BUILTIN_SCENARIOS["chaos-mixed"]
        d1 = FaultSchedule.from_scenario(sc, tiny_multi_net, seed=3).digest()
        d2 = FaultSchedule.from_scenario(sc, tiny_multi_net, seed=4).digest()
        assert d1 != d2

    def test_event_counts_match_scenario(self, tiny_multi_net):
        sc = FaultScenario(
            link_flaps=2,
            flap_cycles=2,
            router_restarts=1,
            loss_bursts=1,
            lp_slowdowns=1,
            bgp_resets=1,
        )
        sched = FaultSchedule.from_scenario(sc, tiny_multi_net, seed=0)
        kinds = [e.kind for e in sched]
        # Each flap cycle is a down/up pair; restarts and bursts pair too.
        assert kinds.count(FaultKind.LINK_DOWN) == 4
        assert kinds.count(FaultKind.LINK_UP) == 4
        assert kinds.count(FaultKind.ROUTER_DOWN) == 1
        assert kinds.count(FaultKind.ROUTER_UP) == 1
        assert kinds.count(FaultKind.LOSS_BURST_START) == 1
        assert kinds.count(FaultKind.LOSS_BURST_END) == 1
        assert kinds.count(FaultKind.LP_SLOWDOWN_START) == 1
        assert kinds.count(FaultKind.LP_SLOWDOWN_END) == 1
        assert kinds.count(FaultKind.BGP_SESSION_RESET) == 1

    def test_events_fall_inside_window(self, tiny_multi_net):
        sc = FaultScenario(start_s=2.0, end_s=6.0, link_flaps=3, router_restarts=2)
        sched = FaultSchedule.from_scenario(sc, tiny_multi_net, seed=1)
        downs = [e for e in sched if e.kind in (FaultKind.LINK_DOWN, FaultKind.ROUTER_DOWN)]
        assert downs and all(2.0 <= e.time <= 6.0 + 2 * sc.flap_down_s for e in downs)


@pytest.fixture()
def small_sim():
    net = generate_flat_network(num_routers=12, num_hosts=6, seed=3)
    fib = ForwardingPlane(net)
    kernel = ShardEngine([0] * net.num_nodes, 1, lookahead=1.0)
    sim = NetworkSimulator(net, fib, kernel)
    return net, fib, kernel, sim


class TestFaultInjector:
    def test_empty_schedule_is_inert(self, small_sim):
        _net, fib, kernel, sim = small_sim
        with traced_run() as tracer:
            injector = FaultInjector(sim, fib, FaultSchedule.from_events([]))
            injector.install(kernel)
            kernel.run(until=1.0)
        assert injector.counts.injected == 0
        assert not tracer.faults
        assert fib.route_recompute_stats()["invalidations"] == 0

    def test_link_flap_round_trip(self, small_sim):
        net, fib, kernel, sim = small_sim
        link_id = net.links[0].link_id
        sched = FaultSchedule.from_events(
            [
                FaultEvent(1.0, FaultKind.LINK_DOWN, (link_id,)),
                FaultEvent(2.0, FaultKind.LINK_UP, (link_id,)),
            ]
        )
        with traced_run() as tracer:
            injector = FaultInjector(sim, fib, sched)
            injector.install(kernel)
            kernel.run(until=3.0)
        assert injector.counts.link_transitions == 2
        assert not injector.links_down
        assert not sim.links[link_id].failed
        assert fib.route_recompute_stats()["invalidations"] >= 2
        assert [(r.kind, r.phase) for r in tracer.faults] == [
            ("link.down", "inject"),
            ("link.up", "recover"),
        ]

    def test_router_crash_and_restart(self, small_sim):
        net, fib, kernel, sim = small_sim
        node = next(n.node_id for n in net.nodes if net.degree(n.node_id) >= 2)
        sched = FaultSchedule.from_events(
            [
                FaultEvent(1.0, FaultKind.ROUTER_DOWN, (node,)),
                FaultEvent(2.0, FaultKind.ROUTER_UP, (node,)),
            ]
        )
        injector = FaultInjector(sim, fib, sched)
        injector.install(kernel)
        kernel.run(until=1.5)
        assert injector.nodes_down == {node}
        kernel.run(until=3.0)
        assert not injector.nodes_down
        assert injector.counts.router_transitions == 2

    def test_crashed_router_blackholes_packets(self, small_sim):
        net, fib, kernel, sim = small_sim
        node = net.nodes[0].node_id
        sim.set_node_down(node)
        before = sim.dropped_fault
        sim._handle_at(node, object())
        assert sim.dropped_fault == before + 1
        sim.set_node_up(node)

    def test_loss_burst_sets_and_clears_probabilities(self, small_sim):
        net, fib, kernel, sim = small_sim
        link_id = net.links[0].link_id
        sched = FaultSchedule.from_events(
            [
                FaultEvent(
                    1.0,
                    FaultKind.LOSS_BURST_START,
                    (link_id,),
                    (("corrupt_prob", 0.05), ("loss_prob", 0.3)),
                ),
                FaultEvent(2.0, FaultKind.LOSS_BURST_END, (link_id,)),
            ]
        )
        injector = FaultInjector(sim, fib, sched)
        injector.install(kernel)
        kernel.run(until=1.5)
        assert sim.links[link_id].loss_prob == 0.3
        assert sim.links[link_id].corrupt_prob == 0.05
        kernel.run(until=3.0)
        assert sim.links[link_id].loss_prob == 0.0
        assert sim.links[link_id].corrupt_prob == 0.0
        assert injector.counts.loss_transitions == 2

    def test_busy_multipliers_cover_slowdown_spans(self, small_sim):
        _net, fib, kernel, sim = small_sim
        sched = FaultSchedule.from_events(
            [
                FaultEvent(2.0, FaultKind.LP_SLOWDOWN_START, (1,), (("factor", 3.0),)),
                FaultEvent(5.0, FaultKind.LP_SLOWDOWN_END, (1,)),
            ]
        )
        injector = FaultInjector(sim, fib, sched)
        injector.install(kernel)
        kernel.run(until=6.0)
        assert injector.slowdown_spans == [(1, 2.0, 5.0, 3.0)]
        mult = injector.busy_multipliers(10, 4, window_s=1.0, end_time=10.0)
        assert mult.shape == (10, 4)
        assert np.all(mult[2:5, 1] == 3.0)
        assert np.all(mult[:2, 1] == 1.0)
        assert np.all(mult[5:, 1] == 1.0)
        assert np.all(mult[:, [0, 2, 3]] == 1.0)

    def test_open_slowdown_extends_to_end_time(self, small_sim):
        _net, fib, kernel, sim = small_sim
        sched = FaultSchedule.from_events(
            [FaultEvent(4.0, FaultKind.LP_SLOWDOWN_START, (0,), (("factor", 2.0),))]
        )
        injector = FaultInjector(sim, fib, sched)
        injector.install(kernel)
        kernel.run(until=6.0)
        mult = injector.busy_multipliers(8, 2, window_s=1.0, end_time=8.0)
        assert np.all(mult[4:, 0] == 2.0)

    def test_bgp_reset_without_sessions_is_noted_not_fatal(self, small_sim):
        _net, fib, kernel, sim = small_sim
        sched = FaultSchedule.from_events(
            [FaultEvent(1.0, FaultKind.BGP_SESSION_RESET, (1, 2), (("down_for", 1.0),))]
        )
        with traced_run() as tracer:
            injector = FaultInjector(sim, fib, sched)
            injector.install(kernel)
            kernel.run(until=2.0)
        assert injector.counts.injected == 1
        assert [r.kind for r in tracer.faults] == ["bgp.reset.skipped"]


class TestOverlappingWindows:
    """Two windows on one target, ``[1, 3)`` and ``[2, 4)``: the target is
    down, lossy or slow until the later one ends, at 4, not at 3.
    ``FaultSchedule.from_scenario`` draws targets with replacement, so a
    preset can produce this."""

    def _run(self, small_sim, kind_start, kind_end, target, params=((), ())):
        _net, fib, kernel, sim = small_sim
        sched = FaultSchedule.from_events(
            [
                FaultEvent(1.0, kind_start, (target,), params[0]),
                FaultEvent(2.0, kind_start, (target,), params[1]),
                FaultEvent(3.0, kind_end, (target,)),
                FaultEvent(4.0, kind_end, (target,)),
            ]
        )
        with traced_run() as tracer:
            injector = FaultInjector(sim, fib, sched)
            injector.install(kernel)
            kernel.run(until=3.5)
            at_3_5 = injector.capture()
            kernel.run(until=5.0)
        assert injector.counts.injected == 4 and len(tracer.faults) == 4
        return sim, injector, at_3_5

    def test_a_link_stays_down_until_its_last_outage_ends(self, small_sim):
        net, fib, kernel, sim = small_sim
        failed_at_3_5, flushes = [], []
        kernel.schedule_at(3.5, lambda: failed_at_3_5.append(sim.links[0].failed))
        set_link_state = fib.set_link_state
        fib.set_link_state = lambda *args: flushes.append(args) or set_link_state(*args)
        sim, injector, at_3_5 = self._run(small_sim, FaultKind.LINK_DOWN, FaultKind.LINK_UP, 0)
        assert failed_at_3_5 == [True]
        assert flushes == [(0, False), (0, True)]  # state moved at 1 and at 4 only
        assert ("link", 0) in at_3_5["_open_windows"]  # open windows are checkpointed
        assert not sim.links[0].failed and not injector.links_down
        assert injector.counts.link_transitions == 4

    def test_a_router_stays_down_until_its_last_crash_ends(self, small_sim):
        net, fib, kernel, sim = small_sim
        down_at_3_5 = []
        kernel.schedule_at(3.5, lambda: down_at_3_5.append(set(sim._down_nodes)))
        sim, injector, _ = self._run(small_sim, FaultKind.ROUTER_DOWN, FaultKind.ROUTER_UP, 2)
        assert down_at_3_5 == [{2}]
        assert not injector.nodes_down and not sim._down_nodes

    def test_a_loss_burst_applies_the_latest_open_bursts_probabilities(self, small_sim):
        net, fib, kernel, sim = small_sim
        probs = []
        for t in (1.5, 2.5, 3.5, 4.5):
            kernel.schedule_at(
                t, lambda: probs.append((sim.links[0].loss_prob, sim.links[0].corrupt_prob))
            )
        self._run(
            small_sim, FaultKind.LOSS_BURST_START, FaultKind.LOSS_BURST_END, 0,
            ((("corrupt_prob", 0.1), ("loss_prob", 0.3)), (("loss_prob", 0.5),)),
        )
        assert probs == [(0.3, 0.1), (0.5, 0.0), (0.5, 0.0), (0.0, 0.0)]
        assert sim.link_table.fast[0]

    def test_slowdown_spans_pair_first_in_first_out(self, small_sim):
        events = [
            FaultEvent(1.0, FaultKind.LP_SLOWDOWN_START, (2,), (("factor", 4.0),)),
            FaultEvent(2.0, FaultKind.LP_SLOWDOWN_START, (2,), (("factor", 8.0),)),
            FaultEvent(3.0, FaultKind.LP_SLOWDOWN_END, (2,)),
            FaultEvent(4.0, FaultKind.LP_SLOWDOWN_END, (2,)),
        ]
        _sim, injector, _ = self._run(
            small_sim, FaultKind.LP_SLOWDOWN_START, FaultKind.LP_SLOWDOWN_END, 2,
            ((("factor", 4.0),), (("factor", 8.0),)),
        )
        expected = [(2, 1.0, 3.0, 4.0), (2, 2.0, 4.0, 8.0)]
        assert injector.slowdown_spans == expected
        assert slowdown_spans(events, 10.0) == expected
        assert slowdown_spans(events[:3], 10.0) == [expected[0], (2, 2.0, 10.0, 8.0)]


def _chain_engine() -> BgpEngine:
    """AS1 <- AS2 <- AS3 provider chain (customer routes reach everyone)."""
    speakers = {
        1: BgpSpeaker(1, {2: "provider"}),
        2: BgpSpeaker(2, {1: "customer", 3: "provider"}),
        3: BgpSpeaker(3, {2: "customer"}),
    }
    engine = BgpEngine(speakers)
    engine.run()
    return engine


class TestBgpSessionManager:
    def test_reset_withdraws_then_reestablishes(self):
        engine = _chain_engine()
        assert engine.route(1, 3) is not None
        kernel = ShardEngine([], 1, lookahead=1.0)
        events: list[str] = []
        mgr = BgpSessionManager(
            engine, kernel, base_retry_s=0.2, seed=0,
            on_change=lambda ev, a, b, detail: events.append(ev),
        )
        mgr.reset(2, 3, down_for_s=1.0)
        info = mgr.session(2, 3)
        assert info.state is SessionState.CONNECT
        # Withdrawal propagated network-wide: AS1 lost the transit route.
        assert engine.route(1, 3) is None
        assert engine.route(3, 1) is None
        kernel.run(until=30.0)
        assert info.state is SessionState.ESTABLISHED
        assert mgr.all_established()
        assert engine.route(1, 3) is not None
        assert mgr.stats.resets == 1
        assert mgr.stats.reestablished == 1
        assert mgr.stats.gave_up == 0
        assert mgr.stats.withdraw_iterations >= 1
        assert mgr.stats.readvertise_iterations >= 1
        assert events[0] == "withdrawn"
        assert events[-1] == "reestablished"

    def test_retry_budget_exhaustion_gives_up(self):
        engine = _chain_engine()
        kernel = ShardEngine([], 1, lookahead=1.0)
        mgr = BgpSessionManager(
            engine, kernel, base_retry_s=0.1, max_retry_s=0.2, max_retries=2, seed=0
        )
        mgr.reset(1, 2, down_for_s=1e9)
        kernel.run(until=60.0)
        assert mgr.session(1, 2).state is SessionState.DOWN
        assert mgr.stats.gave_up == 1
        assert mgr.stats.retry_attempts == 3  # budget + the failing final one
        assert not mgr.all_established()

    def test_second_reset_extends_outage_without_new_teardown(self):
        engine = _chain_engine()
        kernel = ShardEngine([], 1, lookahead=1.0)
        events: list[str] = []
        mgr = BgpSessionManager(
            engine, kernel, base_retry_s=0.2, seed=0,
            on_change=lambda ev, a, b, detail: events.append(ev),
        )
        mgr.reset(2, 3, down_for_s=5.0)
        first_deadline = mgr.session(2, 3).down_until
        mgr.reset(2, 3, down_for_s=9.0)
        assert mgr.stats.resets == 1
        assert mgr.session(2, 3).down_until > first_deadline
        assert "reset-extended" in events
        kernel.run(until=60.0)
        assert mgr.all_established()

    def test_backoff_is_bounded_and_jittered(self):
        engine = _chain_engine()
        kernel = ShardEngine([], 1, lookahead=1.0)
        mgr = BgpSessionManager(
            engine, kernel, base_retry_s=0.5, max_retry_s=2.0, jitter=0.1, seed=0
        )
        delays = [mgr._backoff_delay(k) for k in range(8)]
        assert all(d >= 0.5 for d in delays)
        assert all(d <= 2.0 * 1.1 + 1e-12 for d in delays)
        # Deterministic: same seed reproduces the same jittered sequence.
        mgr2 = BgpSessionManager(
            _chain_engine(), ShardEngine([], 1, lookahead=1.0), base_retry_s=0.5, max_retry_s=2.0, jitter=0.1, seed=0
        )
        assert delays == [mgr2._backoff_delay(k) for k in range(8)]
