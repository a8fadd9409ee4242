"""Differential recovery suite: crashed runs byte-match clean runs.

The fault-tolerance headline: a multi-process run whose workers are
SIGKILLed (or hung, or pipe-dropped) at seeded windows must produce a
delivery log and traffic counters *byte-identical* to an uninterrupted
single-process run of the same seeded workload — through checkpoint
restore + respawn, and through the degraded survivor-adoption rung.
Also pinned here: checkpointing itself never perturbs the run (same
log, zero added mail bytes), recovery disabled is exactly the pre-PR
engine, and the escalation modes ('fail', exhausted 'respawn') raise
typed errors instead of diverging silently.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

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
from repro.faults.plan import FaultPlan, ProcessFault, ProcessFaultKind
from repro.partition.rebalance import RebalanceConfig

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

    def test_recovery_and_rebalance_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            ParallelConservativeEngine(
                ASSIGN2, 2, LATENCY_S, procs=2,
                rebalance=RebalanceConfig(), recovery=RecoveryConfig(),
            )
        with pytest.raises(ValueError):
            LocalShardGroup(
                ASSIGN2, 2, LATENCY_S, procs=2,
                rebalance=RebalanceConfig(), recovery=RecoveryConfig(),
            )


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


class TestInlineFaultSweep:
    """Every fault point of a short run, on the in-process transport:
    the ladder the real-process tests sample is swept exhaustively."""

    UNTIL = 0.002  # 20 barrier windows

    @pytest.mark.parametrize("every", [1, 3])
    @pytest.mark.parametrize("mode", ["respawn", "adopt"])
    def test_every_fault_point_recovers_byte_identically(self, mode, every):
        spec = chain_spec(num_nodes=NUM_NODES, latency_s=LATENCY_S, packets=12)
        spec = replace(spec, params={**spec.params, "inject_window_s": 0.0015})
        ref = run_reference(spec, ASSIGN2, 2, LATENCY_S, self.UNTIL)[1]
        plain = _local(spec, 2, ASSIGN2, 2, None, until=self.UNTIL)
        assert plain.total_mail_bytes > 0  # the chain does cross the shards
        windows = len(list(iter_windows(0.0, LATENCY_S, self.UNTIL)))
        expected = {"respawn": (1, 0), "adopt": (0, 1)}[mode]
        for window in range(windows):
            for after_send in (False, True):
                plan = FaultPlan([
                    ProcessFault(window, 1, ProcessFaultKind.SIGKILL,
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
                    # and has finished; there is no barrier left to roll
                    # back to. Typed, not a protocol desync.
                    with pytest.raises(RecoveryExhaustedError):
                        _local(spec, 2, ASSIGN2, 2, recovery, until=self.UNTIL)
                    continue
                result = _local(spec, 2, ASSIGN2, 2, recovery, until=self.UNTIL)
                merged = merge_collected(result.collected)
                assert delivery_log_bytes(merged) == delivery_log_bytes(ref), where
                assert merged["counters"] == ref["counters"], where
                if mode == "respawn":  # replayed mail is counted, once
                    assert result.mail_bytes == plain.mail_bytes, where
                assert (
                    result.recovery["respawns"], result.recovery["adoptions"]
                ) == expected, where
