"""Differential determinism across scheduler and process backends.

The same seeded workload is run on the sequential kernel and on the
conservative engine: the two must produce the same set of deliveries,
the same traffic counters, and the same per-node packet counts (the
interleaving across LPs legitimately differs within a window, so the
delivery logs are compared sorted).

The cross-process classes extend the bar to the multi-process backend:
1, 2, and 4 real worker processes must produce byte-identical delivery
logs, traffic-counter fingerprints, and fault outcomes against the
single-process reference — on a plain workload and under a chaos
schedule — and a hypothesis sweep drives arbitrary LP counts and
partition interleavings through the in-process shard group (which runs
the identical barrier/mail protocol, serialization included).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.kernel import SimKernel
from repro.engine.parallel import LocalShardGroup, ParallelConservativeEngine, ShardEngine
from repro.experiments.shard import (
    chain_spec,
    delivery_log_bytes,
    merge_collected,
    run_reference,
)
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultSchedule
from repro.netsim.packet import Packet, Protocol
from repro.netsim.simulator import NetworkSimulator
from repro.obs.trace import traced_run
from repro.routing.fib import ForwardingPlane
from repro.topology.models import Network, NodeKind

NUM_NODES = 8
LATENCY_S = 1e-4  # every link; also the conservative lookahead
# contiguous halves: nodes 0-3 on LP 0, nodes 4-7 on LP 1
ASSIGNMENT = np.array([0, 0, 0, 0, 1, 1, 1, 1])
PACKETS = 40


def _build_chain() -> tuple[Network, ForwardingPlane]:
    net = Network()
    for _ in range(NUM_NODES):
        net.add_node(NodeKind.ROUTER)
    for u in range(NUM_NODES - 1):
        net.add_link(u, u + 1, 1e9, LATENCY_S, 1 << 26)
    return net, ForwardingPlane(net)


def _run(scheduler):
    """Run the canonical workload; returns (sim, delivery log).

    The log records ``(time, node, flow_id, seq)`` per delivery by
    shadowing ``sim._deliver`` with a recording wrapper. Flow ids are
    explicit (not drawn from the global allocator) so the three runs see
    byte-identical packets.
    """
    net, fib = _build_chain()
    sim = NetworkSimulator(net, fib, scheduler)
    log: list[tuple[float, int, int, int]] = []
    orig_deliver = sim._deliver

    def recording(node: int, packet: Packet) -> None:
        log.append((round(sim.now, 12), node, packet.flow_id, packet.seq))
        orig_deliver(node, packet)

    sim._deliver = recording
    rng = np.random.default_rng(7)
    times = np.sort(rng.uniform(0.0, 0.01, size=PACKETS)).tolist()
    for i, t in enumerate(times):
        src, dst = (0, NUM_NODES - 1) if i % 2 == 0 else (NUM_NODES - 1, 0)
        packet = Packet(
            src=src, dst=dst, size_bytes=1000, protocol=Protocol.UDP,
            flow_id=i, seq=i,
        )
        scheduler.schedule_at(t, sim.inject, node=src, args=(packet,))
    scheduler.run(until=0.05)
    return sim, log


def _run_with_faults(scheduler, events):
    """The canonical workload plus a fault schedule; returns the run's
    (sim, delivery log, fault trace records)."""
    net, fib = _build_chain()
    sim = NetworkSimulator(net, fib, scheduler)
    log: list[tuple[float, int, int, int]] = []
    orig_deliver = sim._deliver

    def recording(node: int, packet: Packet) -> None:
        log.append((round(sim.now, 12), node, packet.flow_id, packet.seq))
        orig_deliver(node, packet)

    sim._deliver = recording
    with traced_run() as tracer:
        injector = FaultInjector(sim, fib, FaultSchedule.from_events(events))
        injector.install(scheduler)
        rng = np.random.default_rng(7)
        times = np.sort(rng.uniform(0.0, 0.01, size=PACKETS)).tolist()
        for i, t in enumerate(times):
            src, dst = (0, NUM_NODES - 1) if i % 2 == 0 else (NUM_NODES - 1, 0)
            packet = Packet(
                src=src, dst=dst, size_bytes=1000, protocol=Protocol.UDP,
                flow_id=i, seq=i,
            )
            scheduler.schedule_at(t, sim.inject, node=src, args=(packet,))
        scheduler.run(until=0.05)
        faults = list(tracer.faults)
    return sim, log, faults


# Faults confined to LP 0's half of the chain (links 1-2 and 2-3), so
# the conservative runs order them against packet events within one LP.
FAULT_EVENTS = [
    FaultEvent(0.001, FaultKind.LOSS_BURST_START, (2,), (("loss_prob", 0.3),)),
    FaultEvent(0.002, FaultKind.LINK_DOWN, (1,)),
    FaultEvent(0.004, FaultKind.LINK_UP, (1,)),
    FaultEvent(0.006, FaultKind.LOSS_BURST_END, (2,)),
]


class TestDifferentialDeterminism:
    def test_backends_are_interchangeable(self):
        kern_sim, kern_log = _run(SimKernel())
        cons_eng = ShardEngine(ASSIGNMENT, 2, lookahead=LATENCY_S)
        cons_sim, cons_log = _run(cons_eng)

        # Sanity: the workload is drop-free and fully delivered.
        assert kern_sim.counters.packets_delivered == PACKETS
        assert kern_sim.counters.packets_dropped_queue == 0

        # Sequential vs conservative: same deliveries (order compared
        # sorted — within a window the LP interleaving differs), same
        # counters, same per-node packet counts.
        assert sorted(kern_log) == sorted(cons_log)
        assert kern_sim.counters.as_dict() == cons_sim.counters.as_dict()
        assert np.array_equal(kern_sim.node_packets, cons_sim.node_packets)


class TestFaultDeterminism:
    """The robustness acceptance bar: same seed + scenario gives the same
    fault trace and deliveries on the sequential kernel and on the
    conservative engine, and a run with an *empty* schedule is
    bit-identical to no injector at all."""

    def test_fault_run_identical_across_kernel_and_conservative(self):
        kern_sim, kern_log, kern_faults = _run_with_faults(SimKernel(), FAULT_EVENTS)
        cons_sim, cons_log, cons_faults = _run_with_faults(
            ShardEngine(ASSIGNMENT, 2, lookahead=LATENCY_S), FAULT_EVENTS
        )
        assert kern_faults, "fault schedule produced no trace records"
        # Faults actually bit: the burst lost packets and the down link
        # left some traffic unroutable.
        assert kern_sim.links[2].total_lost > 0
        assert kern_sim.counters.packets_delivered < PACKETS
        # Per-node packet counts are not compared: both LPs read one
        # forwarding plane here, so a packet the down link strands is
        # counted unroutable a hop earlier when LP 0 ran the window first.
        assert sorted(cons_log) == sorted(kern_log)
        assert cons_faults == kern_faults
        assert cons_sim.counters.as_dict() == kern_sim.counters.as_dict()
        assert cons_sim.dropped_fault == kern_sim.dropped_fault
        assert cons_sim.links[2].total_lost == kern_sim.links[2].total_lost

    def test_empty_schedule_is_bit_identical_to_no_injector(self):
        plain_sim, plain_log = _run(SimKernel())
        faulted_sim, faulted_log, faults = _run_with_faults(SimKernel(), [])
        assert not faults
        assert faulted_log == plain_log
        assert faulted_sim.counters.as_dict() == plain_sim.counters.as_dict()
        assert faulted_sim.dropped_fault == 0
        assert np.array_equal(faulted_sim.node_packets, plain_sim.node_packets)


# ----------------------------------------------------------------------
# Cross-process suite: real worker processes, same bytes
# ----------------------------------------------------------------------
UNTIL = 0.05


def _reference(spec):
    _, collected = run_reference(spec, ASSIGNMENT, 2, LATENCY_S, UNTIL)
    return collected


def _mp_run(spec, procs, start_method="fork", until=UNTIL):
    engine = ParallelConservativeEngine(
        ASSIGNMENT, 2, LATENCY_S, procs=procs, start_method=start_method
    )
    result = engine.run_scenario(spec, until=until)
    return result, merge_collected(result.collected)


class TestCrossProcessDeterminism:
    """1, 2, and 4 worker processes against the single-process engine:
    identical delivery-log bytes, identical TrafficCounters fingerprint,
    identical fault outcomes — the headline acceptance bar."""

    def test_plain_workload_byte_identical_across_procs(self):
        spec = chain_spec(NUM_NODES, LATENCY_S, PACKETS)
        ref = _reference(spec)
        ref_bytes = delivery_log_bytes(ref)
        assert ref["counters"]["delivered"] == PACKETS
        for procs in (1, 2, 4):
            result, merged = _mp_run(spec, procs)
            assert delivery_log_bytes(merged) == ref_bytes, (
                f"{procs}-process delivery log diverged"
            )
            assert merged["counters"] == ref["counters"]
            assert merged["node_packets"] == ref["node_packets"]
            assert merged["events_executed"] == ref["events_executed"]
            assert result.lookahead_violations == 0

    def test_chaos_workload_byte_identical_across_procs(self):
        spec = chain_spec(NUM_NODES, LATENCY_S, PACKETS, faults=FAULT_EVENTS)
        ref = _reference(spec)
        ref_bytes = delivery_log_bytes(ref)
        # The schedule bites: lossy burst plus a down link.
        assert ref["dropped_fault"] > 0 or sum(ref["link_lost"]) > 0
        assert ref["counters"]["delivered"] < PACKETS
        for procs in (1, 2, 4):
            _, merged = _mp_run(spec, procs)
            assert delivery_log_bytes(merged) == ref_bytes, (
                f"{procs}-process chaos delivery log diverged"
            )
            assert merged["counters"] == ref["counters"]
            assert merged["dropped_fault"] == ref["dropped_fault"]
            assert merged["link_lost"] == ref["link_lost"]
            assert merged["faults"] == ref["faults"]
            assert merged["fault_counts"] == ref["fault_counts"]
            assert merged["schedule_digest"] == ref["schedule_digest"]

    def test_two_proc_run_stays_within_ci_budget(self):
        # The tier-1 gate runs this file on every commit; the procs=2
        # barrier loop must stay comfortably inside the suite's budget.
        spec = chain_spec(NUM_NODES, LATENCY_S, PACKETS)
        result, merged = _mp_run(spec, 2)
        assert result.wall_s < 60.0
        assert delivery_log_bytes(merged) == delivery_log_bytes(_reference(spec))

    def test_spawn_start_method_proves_picklability(self):
        # spawn re-imports everything in a fresh interpreter, so any
        # non-picklable payload in configs, mail, or results fails here.
        spec = chain_spec(NUM_NODES, LATENCY_S, PACKETS, faults=FAULT_EVENTS)
        ref = _reference(spec)
        _, merged = _mp_run(spec, 2, start_method="spawn")
        assert delivery_log_bytes(merged) == delivery_log_bytes(ref)
        assert merged["counters"] == ref["counters"]
        assert merged["fault_counts"] == ref["fault_counts"]


class TestRebalanceDeterminism:
    """The re-balancer's cardinal invariant: placement changes execution,
    never outcomes. A chaos-straggler workload (loss burst + link flap +
    an LP slowdown that concentrates blame) runs with the online
    re-balancer enabled; delivery-log bytes, counter fingerprints, and
    fault traces must match the non-rebalanced single-process reference
    at 1, 2, and 4 worker processes, under fork and spawn, and the
    migration decisions themselves must be identical on every repeat."""

    LOOKAHEAD = 1e-3
    UNTIL = 0.06
    NODES = 16

    # Chaos on LP 0's half of the chain plus a factor-8 slowdown on the
    # LP the straggler blame should concentrate on. With 4 LPs over 2
    # shards ([[0,1],[2,3]]) the profitable move is LP 3 off shard 1.
    @classmethod
    def _spec(cls, slow_lp: int):
        faults = [
            FaultEvent(0.001, FaultKind.LOSS_BURST_START, (2,), (("loss_prob", 0.3),)),
            FaultEvent(0.002, FaultKind.LINK_DOWN, (1,)),
            FaultEvent(0.004, FaultKind.LINK_UP, (1,)),
            FaultEvent(0.006, FaultKind.LOSS_BURST_END, (2,)),
            FaultEvent(
                0.0, FaultKind.LP_SLOWDOWN_START, (slow_lp,), (("factor", 8.0),)
            ),
        ]
        return chain_spec(cls.NODES, cls.LOOKAHEAD, packets=200, faults=faults)

    @classmethod
    def _assignment(cls, num_lps: int) -> np.ndarray:
        return np.array([i * num_lps // cls.NODES for i in range(cls.NODES)])

    @classmethod
    def _config(cls):
        from repro.partition.rebalance import RebalanceConfig

        return RebalanceConfig(
            threshold=0.5, patience=2, cooldown=2, history=6,
            max_migrations=2, min_gain_fraction=0.02,
        )

    @classmethod
    def _rebalanced(cls, procs, num_lps=4, start_method="fork", slow_lp=2):
        engine = ParallelConservativeEngine(
            cls._assignment(num_lps), num_lps, cls.LOOKAHEAD, procs=procs,
            start_method=start_method, rebalance=cls._config(),
        )
        result = engine.run_scenario(cls._spec(slow_lp), until=cls.UNTIL)
        return result, merge_collected(result.collected)

    @classmethod
    def _ref(cls, num_lps=4, slow_lp=2):
        _, collected = run_reference(
            cls._spec(slow_lp), cls._assignment(num_lps), num_lps,
            cls.LOOKAHEAD, cls.UNTIL,
        )
        return collected

    def test_rebalanced_chaos_run_byte_identical_across_procs(self):
        ref = self._ref()
        ref_bytes = delivery_log_bytes(ref)
        assert ref["dropped_fault"] > 0 or sum(ref["link_lost"]) > 0
        for procs in (1, 2):
            result, merged = self._rebalanced(procs)
            assert delivery_log_bytes(merged) == ref_bytes, (
                f"{procs}-process rebalanced delivery log diverged"
            )
            assert merged["counters"] == ref["counters"]
            assert merged["faults"] == ref["faults"]
            assert merged["fault_counts"] == ref["fault_counts"]
            assert merged["node_packets"] == ref["node_packets"]
        # procs=1 has nowhere to migrate to; procs=2 must actually move
        # the blamed shard's fast LP mid-run for this test to mean much.
        assert len(result.migrations) >= 1
        assert all(d.lp != 0 for d in result.migrations)
        assert result.migrations[0].src_shard == 1

    def test_four_proc_migration_byte_identical(self):
        # 8 LPs over 4 shards so single-LP moves are legal everywhere
        # (a 4-over-4 split would empty the source shard). The slowdown
        # sits on LP 4, blaming shard 2 = {4, 5}.
        ref = self._ref(num_lps=8, slow_lp=4)
        result, merged = self._rebalanced(4, num_lps=8, slow_lp=4)
        assert delivery_log_bytes(merged) == delivery_log_bytes(ref)
        assert merged["counters"] == ref["counters"]
        assert merged["faults"] == ref["faults"]
        # Which shard the ramp-up history blames first is a model detail
        # (traffic reaches the slowed LP's nodes only after 8 hops); the
        # bar here is that migrations happen at all at 4 shards, never
        # touch LP 0, and leave the outcome bytes untouched.
        assert len(result.migrations) >= 1
        assert all(d.lp != 0 for d in result.migrations)

    def test_spawn_matches_fork_decisions_and_bytes(self):
        fork_result, fork_merged = self._rebalanced(2)
        spawn_result, spawn_merged = self._rebalanced(2, start_method="spawn")
        assert delivery_log_bytes(spawn_merged) == delivery_log_bytes(fork_merged)
        assert spawn_merged["counters"] == fork_merged["counters"]
        assert [d.as_dict() for d in spawn_result.migrations] == [
            d.as_dict() for d in fork_result.migrations
        ]

    def test_migration_decisions_deterministic_across_repeats(self):
        runs = [self._rebalanced(2) for _ in range(2)]
        decisions = [
            [d.as_dict() for d in result.migrations] for result, _ in runs
        ]
        assert decisions[0], "no migration decided — trigger never armed"
        assert decisions[0] == decisions[1]
        assert runs[0][0].shards == runs[1][0].shards
        # The in-process group runs the identical controller protocol:
        # same windows, same counters, same decisions, same bytes.
        group = LocalShardGroup(
            self._assignment(4), 4, self.LOOKAHEAD, procs=2,
            rebalance=self._config(),
        )
        local = group.run_scenario(self._spec(2), until=self.UNTIL)
        assert [d.as_dict() for d in local.migrations] == decisions[0]
        assert delivery_log_bytes(merge_collected(local.collected)) == (
            delivery_log_bytes(runs[0][1])
        )


class TestShardSweepDeterminism:
    """Hypothesis-driven LP counts, assignments, and shard partitions
    through the in-process group (identical protocol, serialization
    round-trip included): every interleaving must reproduce its own
    single-process reference bit-for-bit."""

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_arbitrary_partitions_match_reference(self, data):
        num_lps = data.draw(st.integers(1, 5), label="num_lps")
        assignment = data.draw(
            st.lists(
                st.integers(0, num_lps - 1),
                min_size=NUM_NODES,
                max_size=NUM_NODES,
            ),
            label="assignment",
        )
        num_shards = data.draw(st.integers(1, num_lps), label="num_shards")
        shard_of_lp = data.draw(
            st.lists(
                st.integers(0, num_shards - 1),
                min_size=num_lps,
                max_size=num_lps,
            ),
            label="shard_of_lp",
        )
        shards = [
            [lp for lp in range(num_lps) if shard_of_lp[lp] == s]
            for s in range(num_shards)
        ]
        # Every chain link's latency equals the lookahead, so *any*
        # node->LP assignment satisfies the conservative contract.
        spec = chain_spec(NUM_NODES, LATENCY_S, packets=25)
        until = 0.02
        _, ref = run_reference(
            spec, np.asarray(assignment), num_lps, LATENCY_S, until
        )
        group = LocalShardGroup(
            assignment, num_lps, LATENCY_S, shards=shards
        )
        result = group.run_scenario(spec, until=until)
        merged = merge_collected(result.collected)
        assert delivery_log_bytes(merged) == delivery_log_bytes(ref)
        assert merged["counters"] == ref["counters"]
        assert merged["node_packets"] == ref["node_packets"]
        assert merged["events_executed"] == ref["events_executed"]
