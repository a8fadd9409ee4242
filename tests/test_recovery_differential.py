"""Differential recovery suite: crashed runs byte-match clean runs.

The fault-tolerance headline: a multi-process run whose workers are
SIGKILLed (or hung, or pipe-dropped) at seeded windows must produce a
delivery log and traffic counters *byte-identical* to an uninterrupted
single-process run of the same seeded workload — through checkpoint
restore + respawn, and through the degraded survivor-adoption rung.
Also pinned here: checkpointing itself never perturbs the run (same
log, zero added mail bytes), recovery disabled is exactly the pre-PR
engine, recovery composes with online rebalancing, with a second loss,
a loss after an adoption and the loss of shard 0, replay from the build
or from a cut keeps the merged obs counts exact, and the escalation modes
('fail', exhausted 'respawn') raise typed errors instead of diverging
silently.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import test_differential_determinism as determinism
import test_multi_as_executed as multi_as_executed
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.parallel import (
    LocalShardGroup,
    ParallelConservativeEngine,
    RecoveryExhaustedError,
    WorkerCrashError,
)
from repro.engine.recovery import RecoveryConfig
from repro.engine.windows import iter_windows
from repro.experiments.shard import (
    chain_spec,
    delivery_log_bytes,
    merge_collected,
    run_reference,
)
from repro.faults import FaultEvent, FaultKind
from repro.faults.plan import FaultPlan, ProcessFault, ProcessFaultKind
from repro.obs import export, names
from repro.obs.distributed import merged_registry_snapshot
from repro.obs.registry import observed_run

NUM_NODES = 8
LATENCY_S = 1e-4
PACKETS = 40
UNTIL = 0.05  # ~500 barrier windows
ASSIGN2 = np.array([0, 0, 0, 0, 1, 1, 1, 1])
ASSIGN4 = np.array([0, 0, 1, 1, 2, 2, 3, 3])


def _spec():
    return chain_spec(num_nodes=NUM_NODES, latency_s=LATENCY_S, packets=PACKETS)


def _mp(spec, procs, assignment, num_lps, recovery=None,
        start_method="fork", window_timeout_s=120.0):
    engine = ParallelConservativeEngine(
        assignment, num_lps, LATENCY_S, procs=procs,
        start_method=start_method, window_timeout_s=window_timeout_s,
        recovery=recovery,
    )
    return engine.run_scenario(spec, until=UNTIL)


def _local(spec, procs, assignment, num_lps, recovery, until=UNTIL):
    group = LocalShardGroup(
        assignment, num_lps, LATENCY_S, procs=procs, recovery=recovery
    )
    return group.run_scenario(spec, until=until)


#: what the one ladder decides — identical whichever transport carried it
PARITY_KEYS = ("respawns", "windows_replayed", "adoptions", "committed_window")


def _on_both_transports(procs, assignment, num_lps, recovery, ref):
    """Run real processes and the in-process group; both must match
    ``ref`` and report *equal* recovery summaries. Returns the local run."""
    mp_result = _mp(_spec(), procs, assignment, num_lps, recovery=recovery)
    local = _local(_spec(), procs, assignment, num_lps, recovery)
    _assert_matches(mp_result, ref)
    _assert_matches(local, ref)
    assert {k: local.recovery[k] for k in PARITY_KEYS} == {
        k: mp_result.recovery[k] for k in PARITY_KEYS
    }
    assert local.shards == mp_result.shards
    return local


def _assert_matches(result, ref):
    merged = merge_collected(result.collected)
    assert delivery_log_bytes(merged) == delivery_log_bytes(ref)
    assert merged["counters"] == ref["counters"]
    assert merged["node_packets"] == ref["node_packets"]
    return merged


def _assert_identical(result, ref, where=""):
    """``_assert_matches`` plus the fault trace the control owner reports."""
    merged = merge_collected(result.collected)
    assert delivery_log_bytes(merged) == delivery_log_bytes(ref), where
    for key in ("counters", "node_packets", "faults", "fault_counts"):
        assert merged.get(key) == ref.get(key), f"{key} {where}"


#: a loss burst and a link flap on the chain: pending fault applications
#: are control events, so LP 0 carries them and every shard replays them.
#: The burst is on link 0, inside LP 0 for every split used here: a
#: link's loss stream must be drawn by one LP's events only.
CHAIN_FAULTS = [
    FaultEvent(0.0003, FaultKind.LOSS_BURST_START, (0,), (("loss_prob", 0.3),)),
    FaultEvent(0.0005, FaultKind.LINK_DOWN, (5,)),
    FaultEvent(0.0007, FaultKind.LINK_UP, (5,)),
    FaultEvent(0.0013, FaultKind.LOSS_BURST_END, (0,)),
]


def _short_faulted_spec():
    """The chain with :data:`CHAIN_FAULTS`, all traffic inside 20 windows."""
    spec = chain_spec(
        num_nodes=NUM_NODES, latency_s=LATENCY_S, packets=12, faults=CHAIN_FAULTS
    )
    return replace(spec, params={**spec.params, "inject_window_s": 0.0015})


@pytest.fixture(scope="module")
def ref2():
    return run_reference(_spec(), ASSIGN2, 2, LATENCY_S, UNTIL)[1]


@pytest.fixture(scope="module")
def ref4():
    return run_reference(_spec(), ASSIGN4, 4, LATENCY_S, UNTIL)[1]


class TestCheckpointingIsFree:
    def test_checkpointing_on_is_invisible_without_faults(self, ref2):
        plain = _mp(_spec(), 2, ASSIGN2, 2)
        ckpt = _mp(
            _spec(), 2, ASSIGN2, 2,
            recovery=RecoveryConfig(checkpoint_every_n_windows=64),
        )
        _assert_matches(ckpt, ref2)
        # Checkpoints ride the control plane, never barrier mail.
        assert ckpt.total_mail_bytes == plain.total_mail_bytes
        assert ckpt.recovery is not None
        assert ckpt.recovery["checkpoints_taken"] > 0
        assert ckpt.recovery["checkpoint_bytes"] > 0
        assert ckpt.recovery["detections"] == 0
        assert ckpt.recovery["respawns"] == 0

    def test_recovery_disabled_is_exactly_the_plain_engine(self, ref2):
        result = _mp(_spec(), 2, ASSIGN2, 2, recovery=None)
        _assert_matches(result, ref2)
        assert result.recovery is None


class TestRecoveryWithRebalance:
    """Recovery composes with online rebalancing: the migration's
    payloads are in the same per-shard log a respawn and an adopter
    replay. ``TestRebalanceDeterminism``'s chaos-straggler run, with its
    first migration's source and destination shards killed before, at and
    after the migration window, before and after sending, on both
    transports, stays byte-identical to the single-process reference;
    under ``respawn`` the rebalancer decides exactly the unkilled run's
    migrations."""

    RB = determinism.TestRebalanceDeterminism

    @pytest.fixture(scope="class")
    def unkilled(self):
        rb = self.RB
        plain = LocalShardGroup(
            rb._assignment(4), 4, rb.LOOKAHEAD, procs=2, rebalance=rb._config()
        ).run_scenario(rb._spec(2), until=rb.UNTIL)
        assert plain.migrations
        return rb._ref(), plain.migrations

    @pytest.mark.parametrize("mode", ["respawn", "adopt"])
    @pytest.mark.parametrize("backend", [LocalShardGroup, ParallelConservativeEngine])
    def test_kills_around_the_first_migration(self, backend, mode, unkilled):
        rb = self.RB
        ref, migrations = unkilled
        first = migrations[0]
        for shard in (first.src_shard, first.dst_shard):
            for window in range(first.window_index - 1, first.window_index + 2):
                for after_send in (False, True):
                    plan = FaultPlan([
                        ProcessFault(window, shard, ProcessFaultKind.SIGKILL,
                                     after_send=after_send)
                    ])
                    recovery = RecoveryConfig(
                        checkpoint_every_n_windows=4,
                        max_respawns=0 if mode == "adopt" else 1,
                        on_worker_loss=mode, backoff_base_s=0.0, fault_plan=plan,
                    )
                    result = backend(
                        rb._assignment(4), 4, rb.LOOKAHEAD, procs=2,
                        rebalance=rb._config(), recovery=recovery,
                    ).run_scenario(rb._spec(2), until=rb.UNTIL)
                    where = f"shard {shard}, window {window}, after_send={after_send}"
                    _assert_identical(result, ref, where)
                    if mode == "respawn":
                        assert result.migrations == migrations, where
                        assert result.recovery["respawns"] == 1, where
                    else:
                        assert result.recovery["adoptions"] == 1, where
                        assert result.shards[shard] == [], where


class TestRespawnByteIdentity:
    def test_random_kills_2procs_fork(self, ref2):
        plan = FaultPlan.random_kills(480, 2, kills=2, seed=3)
        assert len(plan) == 2
        result = _mp(
            _spec(), 2, ASSIGN2, 2,
            recovery=RecoveryConfig(
                checkpoint_every_n_windows=16, fault_plan=plan
            ),
        )
        _assert_matches(result, ref2)
        assert result.recovery["detections"] == 2
        assert result.recovery["respawns"] == 2
        assert result.recovery["adoptions"] == 0

    def test_random_kills_4procs_fork(self, ref4):
        plan = FaultPlan.random_kills(480, 4, kills=2, seed=5)
        result = _mp(
            _spec(), 4, ASSIGN4, 4,
            recovery=RecoveryConfig(
                checkpoint_every_n_windows=16, fault_plan=plan
            ),
        )
        _assert_matches(result, ref4)
        assert result.recovery["respawns"] == len(plan)

    def test_random_kills_2procs_spawn(self, ref2):
        plan = FaultPlan.random_kills(480, 2, kills=1, seed=7)
        result = _mp(
            _spec(), 2, ASSIGN2, 2, start_method="spawn",
            recovery=RecoveryConfig(
                checkpoint_every_n_windows=32, fault_plan=plan
            ),
        )
        _assert_matches(result, ref2)
        assert result.recovery["respawns"] == 1

    def test_after_send_and_pipe_drop_kills(self, ref2):
        # after_send exercises the partially-collected-barrier path (the
        # window message is already in the pipe buffer when the worker
        # dies); the pipe drop surfaces as EOF instead of a dead PID.
        plan = FaultPlan([
            ProcessFault(40, 1, ProcessFaultKind.SIGKILL, incarnation=0,
                         after_send=True),
            ProcessFault(200, 1, ProcessFaultKind.PIPE_DROP, incarnation=1),
        ])
        result = _mp(
            _spec(), 2, ASSIGN2, 2,
            recovery=RecoveryConfig(
                checkpoint_every_n_windows=16, fault_plan=plan
            ),
        )
        _assert_matches(result, ref2)
        assert result.recovery["detections"] == 2
        assert result.recovery["respawns"] == 2

    def test_hang_is_detected_and_respawned(self, ref2):
        plan = FaultPlan([
            ProcessFault(100, 1, ProcessFaultKind.HANG)
        ])
        result = _mp(
            _spec(), 2, ASSIGN2, 2, window_timeout_s=1.5,
            recovery=RecoveryConfig(
                checkpoint_every_n_windows=16, fault_plan=plan
            ),
        )
        _assert_matches(result, ref2)
        assert result.recovery["respawns"] == 1

    def test_crashed_run_is_repeatable(self, ref2):
        plan = FaultPlan.random_kills(480, 2, kills=1, seed=11)
        cfg = RecoveryConfig(checkpoint_every_n_windows=16, fault_plan=plan)
        first = _mp(_spec(), 2, ASSIGN2, 2, recovery=cfg)
        second = _mp(_spec(), 2, ASSIGN2, 2, recovery=cfg)
        a, b = merge_collected(first.collected), merge_collected(second.collected)
        assert delivery_log_bytes(a) == delivery_log_bytes(b)
        assert first.recovery["respawns"] == second.recovery["respawns"]
        _assert_matches(first, ref2)


class TestDegradedAdoption:
    def test_adoption_4procs_byte_identical(self, ref4):
        # Shard 2 dies twice with a budget of one respawn: the second
        # loss exhausts the budget and a survivor adopts its LPs after a
        # global rollback to the commit cut.
        plan = FaultPlan([
            ProcessFault(120, 2, ProcessFaultKind.SIGKILL, incarnation=0),
            ProcessFault(240, 2, ProcessFaultKind.SIGKILL, incarnation=1),
        ])
        result = _mp(
            _spec(), 4, ASSIGN4, 4,
            recovery=RecoveryConfig(
                checkpoint_every_n_windows=16, max_respawns=1,
                on_worker_loss="adopt", fault_plan=plan,
            ),
        )
        _assert_matches(result, ref4)
        assert result.recovery["adoptions"] == 1
        assert result.recovery["dead_shards"] == [2]
        # The dead shard's LPs moved to a survivor.
        assert result.shards[2] == []
        adopted = [lp for part in result.shards for lp in part]
        assert sorted(adopted) == [0, 1, 2, 3]

    def test_fail_mode_raises_on_first_loss(self):
        plan = FaultPlan([
            ProcessFault(50, 1, ProcessFaultKind.SIGKILL)
        ])
        with pytest.raises(WorkerCrashError):
            _mp(
                _spec(), 2, ASSIGN2, 2,
                recovery=RecoveryConfig(
                    checkpoint_every_n_windows=16, on_worker_loss="fail",
                    fault_plan=plan,
                ),
            )

    def test_exhausted_respawn_budget_raises_typed_error(self):
        plan = FaultPlan([
            ProcessFault(50, 1, ProcessFaultKind.SIGKILL, incarnation=0),
            ProcessFault(80, 1, ProcessFaultKind.SIGKILL, incarnation=1),
        ])
        with pytest.raises(RecoveryExhaustedError):
            _mp(
                _spec(), 2, ASSIGN2, 2,
                recovery=RecoveryConfig(
                    checkpoint_every_n_windows=16, max_respawns=1,
                    on_worker_loss="respawn", fault_plan=plan,
                ),
            )


class TestLocalGroupParity:
    """The in-process group runs the same ladder: same bytes as the
    reference *and* the same recovery decisions as real processes."""

    def test_local_respawn_byte_identity(self, ref2):
        plan = FaultPlan.random_kills(480, 2, kills=2, seed=3)
        result = _on_both_transports(
            2, ASSIGN2, 2,
            RecoveryConfig(checkpoint_every_n_windows=16, fault_plan=plan),
            ref2,
        )
        assert result.recovery["respawns"] == 2

    def test_local_adoption_byte_identity(self, ref2):
        plan = FaultPlan([
            ProcessFault(120, 1, ProcessFaultKind.SIGKILL, incarnation=0),
            ProcessFault(240, 1, ProcessFaultKind.SIGKILL, incarnation=1),
        ])
        result = _on_both_transports(
            2, ASSIGN2, 2,
            RecoveryConfig(
                checkpoint_every_n_windows=16, max_respawns=1,
                on_worker_loss="adopt", fault_plan=plan,
            ),
            ref2,
        )
        assert result.recovery["adoptions"] == 1
        assert result.shards[1] == []

    def test_after_send_and_pipe_drop_parity(self, ref2):
        # Window 47 is a checkpoint window (cadence 16): the worker dies
        # with its window message already delivered, so the respawn
        # replays *through* 47 and that round must not commit.
        plan = FaultPlan([
            ProcessFault(47, 1, ProcessFaultKind.PIPE_DROP, incarnation=0,
                         after_send=True),
            ProcessFault(200, 1, ProcessFaultKind.SIGKILL, incarnation=1),
        ])
        result = _on_both_transports(
            2, ASSIGN2, 2,
            RecoveryConfig(checkpoint_every_n_windows=16, fault_plan=plan),
            ref2,
        )
        assert result.recovery["respawns"] == 2
        assert result.recovery["windows_replayed"] == (47 - 31) + (199 - 191)

    def test_respawn_after_adoption_routes_by_current_placement(self):
        # Shard 2 is adopted away, a checkpoint commits, then shard 1 is
        # respawned: its config must carry the post-adoption placement,
        # or its mail for the adopted LP goes to the dead shard.
        assign3 = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        spec = chain_spec(num_nodes=9, latency_s=LATENCY_S, packets=PACKETS)
        until = 0.02
        ref = run_reference(spec, assign3, 3, LATENCY_S, until)[1]
        plan = FaultPlan([
            ProcessFault(20, 2, ProcessFaultKind.SIGKILL, incarnation=0),
            ProcessFault(40, 2, ProcessFaultKind.SIGKILL, incarnation=1),
            ProcessFault(90, 1, ProcessFaultKind.SIGKILL, incarnation=0),
        ])
        recovery = RecoveryConfig(
            checkpoint_every_n_windows=8, max_respawns=1,
            on_worker_loss="adopt", backoff_base_s=0.0, fault_plan=plan,
        )
        engine = ParallelConservativeEngine(
            assign3, 3, LATENCY_S, procs=3, recovery=recovery
        )
        for result in (
            engine.run_scenario(spec, until=until),
            _local(spec, 3, assign3, 3, recovery, until=until),
        ):
            _assert_matches(result, ref)
            assert result.recovery["adoptions"] == 1
            assert result.recovery["respawns"] == 2
            assert result.shards == [[0, 2], [1], []]


    def test_second_adoption_keeps_the_first_dead_shards_results(self, ref4):
        # Shards 3 and 2 are adopted away at different commit cuts; each
        # must contribute its *own* checkpointed partial results.
        plan = FaultPlan([
            ProcessFault(30, 3, ProcessFaultKind.SIGKILL),
            ProcessFault(90, 2, ProcessFaultKind.SIGKILL),
        ])
        result = _on_both_transports(
            4, ASSIGN4, 4,
            RecoveryConfig(
                checkpoint_every_n_windows=8, max_respawns=0,
                on_worker_loss="adopt", backoff_base_s=0.0, fault_plan=plan,
            ),
            ref4,
        )
        assert result.recovery["adoptions"] == 2
        assert result.recovery["dead_shards"] == [2, 3]
        assert result.shards == [[0, 3], [1, 2], [], []]


class TestLossesAfterAdoptionAndOfShardZero:
    """A loss after an adoption and before the next commit is recovered
    like any other, and shard 0 — the control owner — is adopted like
    any other shard, its heir taking the control plane over. Both transports, on the chain with a fault schedule, so
    the fault trace the control owner reports is compared too."""

    UNTIL = 0.02

    @pytest.fixture(scope="class")
    def faulted(self):
        spec = chain_spec(
            num_nodes=9, latency_s=LATENCY_S, packets=PACKETS, faults=CHAIN_FAULTS
        )
        assign3 = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        return spec, assign3, run_reference(spec, assign3, 3, LATENCY_S, self.UNTIL)[1]

    def _both(self, faulted, recovery):
        spec, assign3, ref = faulted
        results = [
            backend(assign3, 3, LATENCY_S, procs=3, recovery=recovery).run_scenario(
                spec, until=self.UNTIL
            )
            for backend in (ParallelConservativeEngine, LocalShardGroup)
        ]
        for result in results:
            _assert_identical(result, ref)
        assert {k: results[0].recovery[k] for k in PARITY_KEYS} == {
            k: results[1].recovery[k] for k in PARITY_KEYS
        }
        assert results[0].shards == results[1].shards
        return results[1]

    def test_heir_and_another_shard_lost_before_the_next_commit(self, faulted):
        # Shard 2 is adopted by shard 0 at window 30; the heir dies at 35
        # and shard 1 at 38, all before the commit after window 63.
        plan = FaultPlan([
            ProcessFault(20, 2, ProcessFaultKind.SIGKILL, incarnation=0),
            ProcessFault(30, 2, ProcessFaultKind.SIGKILL, incarnation=1),
            ProcessFault(35, 0, ProcessFaultKind.SIGKILL, incarnation=0),
            ProcessFault(38, 1, ProcessFaultKind.SIGKILL, incarnation=0, after_send=True),
        ])
        result = self._both(faulted, RecoveryConfig(
            checkpoint_every_n_windows=64, max_respawns=1,
            on_worker_loss="adopt", backoff_base_s=0.0, fault_plan=plan,
        ))
        assert result.recovery["adoptions"] == 1
        assert result.recovery["respawns"] == 3
        assert result.shards == [[0, 2], [1], []]

    def test_shard_zero_lost_past_its_respawn_budget_is_adopted(self, faulted):
        plan = FaultPlan([
            ProcessFault(40, 0, ProcessFaultKind.SIGKILL, incarnation=0),
            ProcessFault(90, 0, ProcessFaultKind.SIGKILL, incarnation=1),
        ])
        result = self._both(faulted, RecoveryConfig(
            checkpoint_every_n_windows=16, max_respawns=1,
            on_worker_loss="adopt", backoff_base_s=0.0, fault_plan=plan,
        ))
        assert result.recovery["adoptions"] == 1
        assert result.recovery["dead_shards"] == [0]
        assert result.shards == [[], [0, 1], [2]]


class TestMultiAsSessionReset:
    """A BGP session reset on the tiny multi-AS network, then a worker
    lost while the session is down. The reset is control-lane work that
    every shard replays; a respawn from the build replays it, and one
    from a cut inside the outage restores the session FSM, its pending
    retry and the RIBs the withdrawal left. Both transports."""

    KILL_WINDOW = 30  # the reset lands in window 12, the retry in window 75

    @pytest.fixture(scope="class")
    def multi_as(self):
        net = multi_as_executed.generate_multi_as_network(
            num_ases=6, routers_per_as=6, num_hosts=24, seed=0
        )
        assignment, lookahead = multi_as_executed.lp_by_as(net, 2)
        spec = multi_as_executed.session_reset_spec(net)
        until = multi_as_executed.TINY_UNTIL
        ref = run_reference(spec, assignment, 2, lookahead, until)[1]
        down, up = (f.time for f in ref["faults"])
        # window -> end time: the outage spans windows 12 through 75
        ends = {w: end for w, _, end in iter_windows(0.0, lookahead, until)}
        assert ends[11] <= down < ends[12] and ends[74] <= up < ends[75]
        return spec, assignment, lookahead, until, ref

    @pytest.mark.parametrize("every", [0, 8])
    def test_a_kill_inside_the_outage_recovers(self, multi_as, every):
        spec, assignment, lookahead, until, ref = multi_as
        plan = FaultPlan([ProcessFault(self.KILL_WINDOW, 1, ProcessFaultKind.SIGKILL)])
        recovery = RecoveryConfig(
            checkpoint_every_n_windows=every, backoff_base_s=0.0, fault_plan=plan
        )
        results = [
            backend(assignment, 2, lookahead, procs=2, recovery=recovery).run_scenario(
                spec, until=until
            )
            for backend in (ParallelConservativeEngine, LocalShardGroup)
        ]
        for result in results:
            _assert_identical(result, ref, f"every={every}")
            assert result.recovery["respawns"] == 1
        # From the build (no cut) the replay re-runs the reset; from the
        # cut after window 23 the session is restored down.
        cut = 23 if every else -1
        assert results[0].recovery["windows_replayed"] == self.KILL_WINDOW - cut - 1


#: The names that say where the work ran, not what ran: an adoption moves
#: a dead shard's events to its heir, and placement decides what mail
#: crosses a pipe.
PLACED = (names.PARALLEL_WORKER_EVENTS, names.PARALLEL_MAIL_BYTES)


def every_instrument(registry) -> dict:
    """Every instrument of a merged snapshot by name, but the recovery
    ladder's own tallies (``recovery.*``), which count the losses."""
    return {
        name: value
        for section, table in export.snapshot(registry).items()
        if section not in ("version", "meta")
        for name, value in table.items()
        if not name.startswith("recovery.")
    }


def by_total(view: dict) -> dict:
    """``view`` with each placement-dependent vector summed over shards."""
    return {
        name: value["sum"] if name in PLACED and isinstance(value, dict) else value
        for name, value in view.items()
    }


class TestExactObsAfterReplayFromTheBuild:
    """With no cuts a respawn and an adopter replay from the build, so
    every window is observed once in a process that ships its registry:
    every instrument of the merged snapshot equals an uninterrupted
    observed run's, the placement-dependent ones by total. Real
    processes only: the in-process group shares one registry, which
    keeps a dead endpoint's reads."""

    @staticmethod
    def _view(plan):
        recovery = RecoveryConfig(
            checkpoint_every_n_windows=0, max_respawns=1, on_worker_loss="adopt",
            backoff_base_s=0.0, fault_plan=plan,
        )
        with observed_run():
            result = ParallelConservativeEngine(
                ASSIGN2, 2, LATENCY_S, procs=2, recovery=recovery
            ).run_scenario(_spec(), until=0.02)
            return result, every_instrument(merged_registry_snapshot(result))

    def test_merged_counters_equal_the_uninterrupted_run(self):
        _, plain = self._view(None)
        result, recovered = self._view(FaultPlan([
            ProcessFault(40, 1, ProcessFaultKind.SIGKILL, incarnation=0),
            ProcessFault(120, 1, ProcessFaultKind.SIGKILL, incarnation=1),
        ]))
        assert (result.recovery["respawns"], result.recovery["adoptions"]) == (1, 1)
        assert plain[names.ENGINE_EVENTS] > 0
        assert by_total(recovered) == by_total(plain)


class TestExactObsAfterReplayFromACut:
    """With a cut every two windows a respawn and an adopter restore the
    shard's counts from its last cut and replay the rest, and the
    registry reads those counts off their owners: every instrument of
    the merged snapshot equals the uninterrupted observed run's,
    element-wise — ``faults.*`` too, when the lost shard is shard 0,
    which owns the control plane and applies the faults. After an
    adoption the placement-dependent names (``PLACED``) are compared by
    total. Real processes only, as above."""

    KILL_40 = ProcessFault(40, 1, ProcessFaultKind.SIGKILL, incarnation=0)
    KILL_120 = ProcessFault(120, 1, ProcessFaultKind.SIGKILL, incarnation=1)

    @staticmethod
    def _merged(faults, spec):
        """The run under ``faults`` with a cut every two windows, and its
        merged registry."""
        recovery = RecoveryConfig(
            checkpoint_every_n_windows=2, max_respawns=1, on_worker_loss="adopt",
            backoff_base_s=0.0, fault_plan=FaultPlan(faults),
        )
        with observed_run():
            result = ParallelConservativeEngine(
                ASSIGN2, 2, LATENCY_S, procs=2, recovery=recovery
            ).run_scenario(spec, until=0.02)
            return result, merged_registry_snapshot(result)

    def _counts(self, faults):
        result, merged = self._merged(faults, _spec())
        return result, every_instrument(merged)

    @pytest.fixture(scope="class")
    def plain(self):
        return self._counts([])[1]

    def test_a_respawn_from_a_cut_reads_exact_counts(self, plain):
        result, counts = self._counts([self.KILL_40])
        assert (result.recovery["respawns"], result.recovery["adoptions"]) == (1, 0)
        assert result.recovery["committed_window"] > 40
        assert plain[names.ENGINE_EVENTS] > 0 and plain[names.PARALLEL_MAIL_BYTES] > 0
        assert counts == plain

    def test_an_adoption_from_a_cut_reads_exact_counts(self, plain):
        result, counts = self._counts([self.KILL_40, self.KILL_120])
        assert (result.recovery["respawns"], result.recovery["adoptions"]) == (1, 1)
        assert by_total(counts) == by_total(plain)

    #: faults applied both before and after window 40's cut (t = 0.004)
    FAULTS_AROUND_THE_CUT = [
        FaultEvent(0.0005, FaultKind.LINK_DOWN, (5,)),
        FaultEvent(0.0007, FaultKind.LINK_UP, (5,)),
        FaultEvent(0.0060, FaultKind.ROUTER_DOWN, (3,)),
        FaultEvent(0.0065, FaultKind.ROUTER_UP, (3,)),
        FaultEvent(0.0080, FaultKind.LINK_DOWN, (5,)),
        FaultEvent(0.0085, FaultKind.LINK_UP, (5,)),
    ]
    FAULT_COUNTS = (
        names.FAULTS_INJECTED, names.FAULTS_LINK_TRANSITIONS,
        names.FAULTS_ROUTER_TRANSITIONS, names.FAULTS_ROUTE_INVALIDATIONS,
    )

    def _fault_counts(self, faults):
        spec = chain_spec(
            num_nodes=NUM_NODES, latency_s=LATENCY_S, packets=PACKETS,
            faults=self.FAULTS_AROUND_THE_CUT,
        )
        result, merged = self._merged(faults, spec)
        return result, {name: merged.get_counter(name).value for name in self.FAULT_COUNTS}

    @pytest.fixture(scope="class")
    def plain_faults(self):
        plain = self._fault_counts([])[1]
        assert plain == {
            names.FAULTS_INJECTED: 6.0, names.FAULTS_LINK_TRANSITIONS: 4.0,
            names.FAULTS_ROUTER_TRANSITIONS: 2.0, names.FAULTS_ROUTE_INVALIDATIONS: 6.0,
        }
        return plain

    def test_a_respawn_of_the_control_shard_reads_exact_fault_counts(self, plain_faults):
        """Shard 0 owns the control plane; killed after a cut, its respawn
        restores the injector's counts from the cut, and ``faults.*``
        read those counts, so the dead worker's registry is not missed."""
        result, counts = self._fault_counts(
            [ProcessFault(40, 0, ProcessFaultKind.SIGKILL, incarnation=0)]
        )
        assert (result.recovery["respawns"], result.recovery["adoptions"]) == (1, 0)
        assert result.recovery["committed_window"] > 40
        assert counts == plain_faults

    def test_an_adoption_of_the_control_shard_reads_exact_fault_counts(self, plain_faults):
        """Shard 0 lost again at window 70, before the last two faults:
        shard 1 adopts LP 0 and with it the control plane, and its own
        injector, which replayed every fault as a replica, is then read."""
        result, counts = self._fault_counts([
            ProcessFault(40, 0, ProcessFaultKind.SIGKILL, incarnation=0),
            ProcessFault(70, 0, ProcessFaultKind.SIGKILL, incarnation=1),
        ])
        assert (result.recovery["respawns"], result.recovery["adoptions"]) == (1, 1)
        assert counts == plain_faults


class TestRandomLossPlans:
    """Plans of one to three kills at any shard, window and phase —
    second losses and losses after an adoption included — under
    ``respawn`` or ``adopt`` at every cadence from none to 3: the run
    equals ``run_reference``, or ends in one of the ladder's two
    documented ends (a loss at the final barrier once the survivors have
    finished, or no survivor left)."""

    UNTIL = 0.002  # 20 barrier windows

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_plan_recovers_byte_identically(self, data):
        procs = data.draw(st.integers(2, 3), label="procs")
        windows = len(list(iter_windows(0.0, LATENCY_S, self.UNTIL)))
        kills = sorted(data.draw(st.lists(
            st.tuples(
                st.integers(0, windows - 1), st.integers(0, procs - 1), st.booleans()
            ),
            min_size=1, max_size=3, unique=True,
        ), label="kills (window, shard, after_send)"))
        mode = data.draw(st.sampled_from(["respawn", "adopt"]), label="mode")
        every = data.draw(st.integers(0, 3), label="cadence")
        budget = data.draw(st.integers(0, 1), label="max_respawns") if mode == "adopt" else 3
        faults, incarnation = [], {}
        for window, shard, after_send in kills:
            incarnation[shard] = incarnation.get(shard, -1) + 1
            faults.append(ProcessFault(
                window, shard, ProcessFaultKind.SIGKILL,
                incarnation=incarnation[shard], after_send=after_send,
            ))
        assignment = np.array([node * procs // NUM_NODES for node in range(NUM_NODES)])
        spec = _short_faulted_spec()
        ref = run_reference(spec, assignment, procs, LATENCY_S, self.UNTIL)[1]
        recovery = RecoveryConfig(
            checkpoint_every_n_windows=every, max_respawns=budget,
            on_worker_loss=mode, backoff_base_s=0.0, fault_plan=FaultPlan(faults),
        )
        try:
            result = _local(spec, procs, assignment, procs, recovery, until=self.UNTIL)
        except RecoveryExhaustedError as exc:
            assert mode == "adopt", exc
            last_after_send = any(w == windows - 1 and after for w, _, after in kills)
            lost = {shard for shard, n in incarnation.items() if n >= budget}
            assert ("final barrier" in str(exc) and last_after_send) or (
                "no survivor" in str(exc) and len(lost) == procs
            ), exc
            return
        _assert_identical(result, ref, f"{kills} {mode} every={every}")


class TestInlineFaultSweep:
    """Every fault point of a short run, on the in-process transport:
    the ladder the real-process tests sample is swept exhaustively."""

    UNTIL = 0.002  # 20 barrier windows

    @pytest.mark.parametrize("shard", [0, 1])
    @pytest.mark.parametrize("every", [0, 1, 3])
    @pytest.mark.parametrize("mode", ["respawn", "adopt"])
    def test_every_fault_point_recovers_byte_identically(self, mode, every, shard):
        spec = _short_faulted_spec()
        ref = run_reference(spec, ASSIGN2, 2, LATENCY_S, self.UNTIL)[1]
        assert ref["faults"]  # LP 0 carries control events
        plain = _local(spec, 2, ASSIGN2, 2, None, until=self.UNTIL)
        assert plain.total_mail_bytes > 0  # the chain does cross the shards
        windows = len(list(iter_windows(0.0, LATENCY_S, self.UNTIL)))
        expected = {"respawn": (1, 0), "adopt": (0, 1)}[mode]
        for window in range(windows):
            for after_send in (False, True):
                plan = FaultPlan([
                    ProcessFault(window, shard, ProcessFaultKind.SIGKILL,
                                 after_send=after_send)
                ])
                recovery = RecoveryConfig(
                    checkpoint_every_n_windows=every,
                    max_respawns=0 if mode == "adopt" else 2,
                    on_worker_loss=mode, backoff_base_s=0.0, fault_plan=plan,
                )
                where = f"window {window}, after_send={after_send}"
                if mode == "adopt" and after_send and window == windows - 1:
                    # Documented limit: the survivor was answered first
                    # and has finished; no one is left waiting to adopt
                    # the dead shard. Typed, not a protocol desync.
                    with pytest.raises(RecoveryExhaustedError):
                        _local(spec, 2, ASSIGN2, 2, recovery, until=self.UNTIL)
                    continue
                result = _local(spec, 2, ASSIGN2, 2, recovery, until=self.UNTIL)
                _assert_identical(result, ref, where)
                if mode == "respawn":  # replayed mail is counted, once
                    assert result.mail_bytes == plain.mail_bytes, where
                assert (
                    result.recovery["respawns"], result.recovery["adoptions"]
                ) == expected, where
