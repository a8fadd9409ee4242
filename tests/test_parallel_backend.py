"""Failure modes and edge cases of the multi-process backend.

The differential suite proves the happy path is byte-identical; this
file pins the guard rails: out-of-order mail is rejected, the lookahead
epsilon behaves exactly at window boundaries, a crashed or raising
worker surfaces as a typed error instead of a hung barrier, empty
shards no-op cleanly, and cross-shard mail refuses unregistered
handlers on both the sending and receiving side.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.engine.parallel import (
    LocalShardGroup,
    MailOrderError,
    ParallelBackendError,
    ParallelConservativeEngine,
    ParallelWorkerError,
    ScenarioSpec,
    ShardEngine,
    ShardScenario,
    UnregisteredHandlerError,
    WorkerCrashError,
    shard_lps,
    validate_mail_batch,
)
from repro.engine.parallel.shard import _deliver_encoded_mail, _encode_outbound
from repro.engine.windows import WINDOW_EPSILON_FRACTION, LookaheadViolation
from repro.experiments.shard import chain_spec, delivery_log_bytes, merge_collected, run_reference
from repro.serialization import encode_mail_batch

ASSIGNMENT = [0, 0, 1, 1]
LOOKAHEAD = 1.0


def _sink(*args):
    """A no-op handler target for hand-built events."""


# ----------------------------------------------------------------------
# Builders resolved by name inside forked workers
# ----------------------------------------------------------------------
def crash_builder(engine, params):
    """Schedules a handler that kills the worker process outright."""

    def die():
        os._exit(3)

    engine.schedule_at(0.25, die, node=0)
    return ShardScenario(handlers={}, collect=None)


def hang_builder(engine, params):
    """Schedules a handler that stops responding but stays alive."""

    def stall():
        while True:
            time.sleep(3600.0)

    engine.schedule_at(0.25, stall, node=0)
    return ShardScenario(handlers={}, collect=None)


def raise_builder(engine, params):
    """Schedules a handler that raises inside the worker."""

    def boom():
        raise RuntimeError("boom from the shard")

    engine.schedule_at(0.25, boom, node=0)
    return ShardScenario(handlers={}, collect=None)


class TestMailValidation:
    def test_in_order_mail_passes(self):
        items = [(0, 0, 2.0, (1, 0, 1), "h", ()), (0, 0, 2.5, (1, 0, 2), "h", ())]
        assert validate_mail_batch(items, 2.0, LOOKAHEAD) == 0

    def test_behind_barrier_raises_in_strict_mode(self):
        items = [(0, 0, 1.5, (1, 0, 1), "h", ())]
        with pytest.raises(MailOrderError):
            validate_mail_batch(items, 2.0, LOOKAHEAD, strict=True)

    def test_non_strict_counts_instead_of_raising(self):
        items = [
            (0, 0, 1.5, (1, 0, 1), "h", ()),
            (0, 0, 2.0, (1, 0, 2), "h", ()),
            (0, 0, 0.5, (1, 0, 3), "h", ()),
        ]
        assert validate_mail_batch(items, 2.0, LOOKAHEAD, strict=False) == 2

    def test_epsilon_tolerance_at_the_barrier(self):
        # Float drift inside the shared relative epsilon is not a
        # causality violation; anything beyond it is.
        eps = WINDOW_EPSILON_FRACTION * LOOKAHEAD
        ok = [(0, 0, 2.0 - 0.5 * eps, (1, 0, 1), "h", ())]
        assert validate_mail_batch(ok, 2.0, LOOKAHEAD) == 0
        bad = [(0, 0, 2.0 - 3.0 * eps, (1, 0, 1), "h", ())]
        with pytest.raises(MailOrderError):
            validate_mail_batch(bad, 2.0, LOOKAHEAD)

    def test_receiver_side_gate_rejects_stale_mail(self):
        engine = ShardEngine(ASSIGNMENT, 2, LOOKAHEAD, owned_lps=[0])
        engine.seal_setup()
        engine.run_window(0, 1.0)
        stale = encode_mail_batch([(0, 0, 0.2, (1, 1, 1), "sink", ())])
        with pytest.raises(MailOrderError):
            _deliver_encoded_mail(engine, [stale], 1.0, {"sink": _sink})


class TestLookaheadFence:
    def _engine_with_emitter(self, send_time: float, strict: bool = True):
        engine = ShardEngine(ASSIGNMENT, 2, LOOKAHEAD, owned_lps=[0], strict=strict)

        def emit():
            engine.schedule_at(send_time, _sink, node=2)  # node 2 -> LP 1

        engine.schedule_at(0.5, emit, node=0)
        engine.seal_setup()
        return engine

    def test_send_exactly_at_window_end_is_legal(self):
        engine = self._engine_with_emitter(1.0)
        engine.run_window(0, 1.0)
        out = engine.drain_outbound()
        assert [(lp, ev.time) for lp, ev in out] == [(1, 1.0)]
        assert engine.lookahead_violations == 0

    def test_send_inside_the_window_raises_in_strict_mode(self):
        engine = self._engine_with_emitter(1.0 - 1e-3)
        with pytest.raises(LookaheadViolation):
            engine.run_window(0, 1.0)

    def test_send_inside_the_window_counts_when_tolerant(self):
        engine = self._engine_with_emitter(1.0 - 1e-3, strict=False)
        engine.run_window(0, 1.0)
        assert engine.lookahead_violations == 1

    def test_send_within_epsilon_of_the_boundary_is_tolerated(self):
        engine = self._engine_with_emitter(1.0 - 0.5e-9 * LOOKAHEAD)
        engine.run_window(0, 1.0)
        assert engine.lookahead_violations == 0


class TestShardEngineProtocol:
    def test_setup_discards_unowned_but_advances_the_key_counter(self):
        # Replayed construction must advance the tiebreak counter even
        # for events this shard discards — key alignment across workers.
        engine = ShardEngine(ASSIGNMENT, 2, LOOKAHEAD, owned_lps=[1])
        engine.schedule_at(0.5, _sink, node=0)  # unowned: discarded
        engine.schedule_at(0.5, _sink, node=2)  # owned: kept
        assert engine.pending == 1
        assert engine._kcount == 2

    def test_run_needs_an_engine_that_owns_every_lp(self):
        # A shard's cross-shard mail has nowhere to go without the
        # backend: run() refuses rather than dropping it.
        with pytest.raises(ParallelBackendError, match="owns every LP"):
            ShardEngine(ASSIGNMENT, 2, LOOKAHEAD, owned_lps=[1]).run(until=1.0)
        assert ShardEngine(ASSIGNMENT, 2, LOOKAHEAD).run(until=1.0) == 0

    def test_barrier_time_cross_shard_scheduling_is_rejected(self):
        engine = ShardEngine(ASSIGNMENT, 2, LOOKAHEAD, owned_lps=[1])
        engine.seal_setup()
        with pytest.raises(ParallelBackendError):
            engine.schedule_at(0.5, _sink, node=0)

    def test_control_replay_must_not_touch_real_nodes(self):
        # A control handler that schedules onto an owned node would run
        # on the owner's shard too — double execution. The replica
        # rejects it loudly instead of corrupting the run.
        engine = ShardEngine(ASSIGNMENT, 2, LOOKAHEAD, owned_lps=[1])

        def rogue_control():
            engine.schedule_at(0.9, _sink, node=2)

        engine.schedule_at(0.5, rogue_control, node=-1)
        engine.seal_setup()
        with pytest.raises(ParallelBackendError):
            engine.run_window(0, 1.0)

    def test_empty_shard_runs_windows_as_a_noop(self):
        engine = ShardEngine(ASSIGNMENT, 2, LOOKAHEAD, owned_lps=[])
        engine.seal_setup()
        assert engine.run_window(0, 1.0) == 0
        assert engine.pending == 0
        assert not engine.has_control

    def test_misrouted_mail_is_rejected(self):
        engine = ShardEngine(ASSIGNMENT, 2, LOOKAHEAD, owned_lps=[0])
        from repro.engine.events import Event

        with pytest.raises(ParallelBackendError):
            engine.push_remote(1, Event(1.0, (1, 0, 1), _sink, (), 2))

    def test_unregistered_handler_rejected_when_encoding(self):
        engine = ShardEngine(ASSIGNMENT, 2, LOOKAHEAD, owned_lps=[0])

        def emit():
            engine.schedule_at(1.0, _sink, node=2)

        engine.schedule_at(0.5, emit, node=0)
        engine.seal_setup()
        engine.run_window(0, 1.0)
        with pytest.raises(UnregisteredHandlerError):
            _encode_outbound(engine, [0, 0, 1, 1][:2] + [1, 1], {}, 2)

    def test_unregistered_handler_rejected_when_decoding(self):
        engine = ShardEngine(ASSIGNMENT, 2, LOOKAHEAD, owned_lps=[0])
        engine.seal_setup()
        engine.run_window(0, 1.0)
        mail = encode_mail_batch([(0, 0, 1.0, (1, 1, 1), "ghost", ())])
        with pytest.raises(UnregisteredHandlerError):
            _deliver_encoded_mail(engine, [mail], 1.0, {})


class TestShardSplit:
    def test_contiguous_partition_covers_every_lp(self):
        shards = shard_lps(10, 3)
        assert [lp for part in shards for lp in part] == list(range(10))
        assert max(len(p) for p in shards) - min(len(p) for p in shards) <= 1

    def test_more_procs_than_lps_yields_empty_shards(self):
        shards = shard_lps(2, 4)
        assert sorted(lp for part in shards for lp in part) == [0, 1]
        assert sum(1 for part in shards if not part) == 2

    def test_invalid_proc_count_is_rejected(self):
        with pytest.raises(ValueError):
            shard_lps(4, 0)

    def test_out_of_range_assignment_is_rejected_before_any_worker_starts(self):
        # The check ShardEngine runs, at construction: not a remote
        # traceback from every worker the run forked.
        with pytest.raises(ValueError, match="out of range"):
            ParallelConservativeEngine(np.array([0, 5, 0, 1]), 2, 1e-3)
        with pytest.raises(ValueError, match="out of range"):
            LocalShardGroup(np.array([0, -1, 0, 1]), 2, 1e-3)
        assert multiprocessing.active_children() == []


class TestWorkerFailureModes:
    """A dead or raising worker must produce a typed error promptly —
    never a barrier that hangs until the CI timeout."""

    def test_worker_hard_crash_raises_typed_error(self):
        engine = ParallelConservativeEngine(
            ASSIGNMENT, 2, LOOKAHEAD, procs=2, window_timeout_s=30.0
        )
        spec = ScenarioSpec(builder=f"{__name__}:crash_builder")
        with pytest.raises(WorkerCrashError):
            engine.run_scenario(spec, until=1.0)

    def test_dead_worker_detected_early_with_exit_code(self):
        # A dead process surfaces on the next liveness tick — with its
        # exit code — not after the full window timeout.
        engine = ParallelConservativeEngine(
            ASSIGNMENT, 2, LOOKAHEAD, procs=2, window_timeout_s=30.0
        )
        spec = ScenarioSpec(builder=f"{__name__}:crash_builder")
        watch = time.monotonic()
        with pytest.raises(WorkerCrashError) as err:
            engine.run_scenario(spec, until=1.0)
        assert time.monotonic() - watch < 25.0
        assert err.value.exitcode == 3
        assert err.value.hung is False
        assert "exitcode 3" in str(err.value)

    def test_hung_worker_detected_as_hang_not_crash(self):
        engine = ParallelConservativeEngine(
            ASSIGNMENT, 2, LOOKAHEAD, procs=2, window_timeout_s=1.5
        )
        spec = ScenarioSpec(builder=f"{__name__}:hang_builder")
        with pytest.raises(WorkerCrashError) as err:
            engine.run_scenario(spec, until=1.0)
        assert err.value.hung is True
        assert "hang suspected" in str(err.value)

    def test_failed_run_leaves_no_live_workers(self):
        # The teardown path must close both pipe ends and escalate
        # join -> terminate -> kill even when the run aborts.
        engine = ParallelConservativeEngine(
            ASSIGNMENT, 2, LOOKAHEAD, procs=2, window_timeout_s=30.0
        )
        spec = ScenarioSpec(builder=f"{__name__}:crash_builder")
        with pytest.raises(WorkerCrashError):
            engine.run_scenario(spec, until=1.0)
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not multiprocessing.active_children()

    def test_abandoned_fork_run_returns_promptly(self):
        # Shard 0 raises at t=0.25 while shard 1 is blocked waiting for
        # mail. Under fork the survivor used to hold an inherited copy of
        # its own controller-side pipe end, never saw EOF when the
        # controller hung up, and the teardown sat out the full exit
        # grace (5 s) before terminating it.
        engine = ParallelConservativeEngine(
            ASSIGNMENT, 2, LOOKAHEAD, procs=2, start_method="fork"
        )
        spec = ScenarioSpec(builder=f"{__name__}:raise_builder")
        watch = time.monotonic()
        with pytest.raises(ParallelWorkerError):
            engine.run_scenario(spec, until=1.0)
        assert time.monotonic() - watch < 2.0
        assert not multiprocessing.active_children()

    def test_worker_exception_carries_remote_traceback(self):
        engine = ParallelConservativeEngine(
            ASSIGNMENT, 2, LOOKAHEAD, procs=2, window_timeout_s=30.0
        )
        spec = ScenarioSpec(builder=f"{__name__}:raise_builder")
        with pytest.raises(ParallelWorkerError) as err:
            engine.run_scenario(spec, until=1.0)
        assert "boom from the shard" in str(err.value)
        assert err.value.remote_traceback

    def test_unknown_builder_fails_loudly(self):
        group = LocalShardGroup([0], 1, LOOKAHEAD, procs=1)
        with pytest.raises(ParallelBackendError):
            group.run_scenario(ScenarioSpec(builder="no.such.module:fn"), until=1.0)


class TestEmptyShardsEndToEnd:
    def test_more_procs_than_lps_matches_reference(self):
        spec = chain_spec(num_nodes=8, latency_s=1e-4, packets=20)
        assignment = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        _, ref = run_reference(spec, assignment, 2, 1e-4, 0.02)
        group = LocalShardGroup(assignment, 2, 1e-4, procs=4)
        assert sum(1 for part in group.shards if not part) == 2
        result = group.run_scenario(spec, until=0.02)
        merged = merge_collected(result.collected)
        assert delivery_log_bytes(merged) == delivery_log_bytes(ref)
        assert merged["counters"] == ref["counters"]
