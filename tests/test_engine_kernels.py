"""Tests for the DES event queue and the engine — a ``ShardEngine`` on
one LP (the sequential engine) and owning every LP of a partition
(the conservative engine), driven by ``run(until)`` — including
sequential/parallel equivalence."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    EventQueue,
    LookaheadViolation,
    ParallelConservativeEngine,
    ShardEngine,
    iter_windows,
)
from repro.engine.events import Event

# Each op is (kind, value): push at a time, cancel a previously returned
# handle (index derived from the value), pop, or pop_until a bound.
_QUEUE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["push", "pop", "pop_until", "cancel"]),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False, width=32),
    ),
    max_size=200,
)
_SEQ = itertools.count()


def push(q: EventQueue, time: float, fn=lambda: None, args: tuple = ()) -> Event:
    """Key an event as an engine does (one rising sequence) and enqueue it."""
    ev = Event(time, next(_SEQ), fn, args)
    q.push_event(ev)
    return ev


def pop(q: EventQueue) -> Event | None:
    """The earliest live event, whatever its time."""
    return q.pop_until(float("inf"))


def one_lp(num_nodes: int = 8, lookahead: float = 10.0, **kwargs) -> ShardEngine:
    """The sequential engine: every node on LP 0."""
    return ShardEngine([0] * num_nodes, 1, lookahead=lookahead, **kwargs)


class TestEventQueue:
    def test_fifo_for_equal_times(self):
        q = EventQueue()
        order = []
        push(q, 1.0, lambda: order.append("a"))
        push(q, 1.0, lambda: order.append("b"))
        pop(q).fn()
        pop(q).fn()
        assert order == ["a", "b"]

    def test_time_order(self):
        q = EventQueue()
        push(q, 2.0)
        push(q, 1.0)
        assert pop(q).time == 1.0

    def test_cancel_skipped(self):
        q = EventQueue()
        ev = push(q, 1.0)
        push(q, 2.0)
        ev.cancel()
        assert pop(q).time == 2.0
        assert pop(q) is None

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        push(q, 1.0)
        assert q and len(q) == 1

    def test_pop_until_boundary_exclusive(self):
        q = EventQueue()
        push(q, 1.0)
        push(q, 2.0)
        assert q.pop_until(1.0) is None  # head at the bound stays queued
        assert len(q) == 2
        assert q.pop_until(1.5).time == 1.0
        assert q.pop_until(1.5) is None
        assert q.pop_until(float("inf")).time == 2.0

    def test_drain_empties_the_heap_the_engines_hold(self):
        # A checkpoint restore drains each queue before re-pushing the
        # saved events; engines keep a reference to the heap list, so the
        # drain must empty that list in place.
        q = EventQueue()
        heap = q.heap
        for t in (3.0, 1.0, 2.0):
            push(q, t)
        cancelled = push(q, 1.5)
        cancelled.cancel()
        entries = q.drain_entries()
        assert sorted(e[0] for e in entries) == [1.0, 1.5, 2.0, 3.0]
        assert len(q) == 0 and pop(q) is None
        assert q.heap is heap and heap == []

    @settings(max_examples=200, deadline=None)
    @given(ops=_QUEUE_OPS)
    def test_matches_sorted_list_model_under_interleavings(self, ops):
        # The model is a plain list of live (time, push index) pairs whose
        # minimum is the next pop: the heap must agree under any
        # interleaving of pushes, cancellations, pops and bounded pops.
        q = EventQueue()
        model: list[tuple[float, int]] = []
        handles: list = []

        def model_pop(bound: float):
            head = min(model, default=None)
            if head is None or head[0] >= bound:
                return None
            model.remove(head)
            return head

        def check(ev, expected) -> None:
            got = None if ev is None else (ev.time, ev.args[0])
            assert got == expected

        for op, value in ops:
            if op == "push":
                index = len(handles)
                handles.append(push(q, value, args=(index,)))
                model.append((value, index))
            elif op == "cancel" and handles:
                index = int(value * 1e3) % len(handles)
                handles[index].cancel()
                if (handles[index].time, index) in model:
                    model.remove((handles[index].time, index))
            elif op == "pop_until":
                check(q.pop_until(value), model_pop(value))
            else:
                check(pop(q), model_pop(float("inf")))
        while model:
            check(pop(q), model_pop(float("inf")))
        assert pop(q) is None


class TestSimKernel:
    """The sequential engine, once ``SimKernel``: a ``ShardEngine`` on one
    LP, whose window is as long as the run (``tests/test_kernel_fold.py``
    holds it to the frozen kernel event by event)."""

    def test_runs_in_time_order(self):
        k = one_lp()
        seen = []
        k.schedule(2.0, lambda: seen.append(2))
        k.schedule(1.0, lambda: seen.append(1))
        k.run(until=3.0)
        assert seen == [1, 2]
        assert k.now == k.current_time == 3.0

    def test_until_excludes_boundary(self):
        k = one_lp()
        seen = []
        k.schedule_at(5.0, lambda: seen.append(5))
        k.run(until=5.0)
        assert seen == []
        assert k.now == 5.0
        k.run(until=6.0)
        assert seen == [5]

    def test_windows_compose(self):
        k = one_lp()
        seen = []
        for t in (0.5, 1.5, 2.5):
            k.schedule_at(t, lambda t=t: seen.append(t))
        k.run(until=1.0)
        k.run(until=2.0)
        k.run(until=3.0)
        assert seen == [0.5, 1.5, 2.5]

    def test_events_schedule_events(self):
        k = one_lp()
        seen = []

        def cascade(i):
            seen.append(i)
            if i < 3:
                k.schedule(1.0, lambda: cascade(i + 1))

        k.schedule(0.0, lambda: cascade(0))
        k.run(until=10.0)
        assert seen == [0, 1, 2, 3]

    def test_cannot_schedule_past(self):
        k = one_lp()
        k.schedule_at(1.0, lambda: None)
        k.run(until=2.0)
        with pytest.raises(ValueError, match="LP's past"):
            k.schedule_at(0.5, lambda: None)
        with pytest.raises(ValueError, match="LP's past"):
            k.schedule(-0.1, lambda: None)

    def test_trace_records(self):
        k = one_lp(record_trace=True)
        k.schedule_at(1.0, lambda: None, node=7)
        k.schedule_at(2.0, lambda: None, node=3)
        k.run(until=3.0)
        t, n = k.trace()
        assert t.tolist() == [1.0, 2.0]
        assert n.tolist() == [7, 3]


class TestSequenceOwnership:
    """The tiebreak counter belongs to the engine that stamps with it: a
    fresh engine numbers ``(epoch, lane, counter)`` from ``(0, 0, 1)``
    whatever ran before; the queue stamps nothing."""

    def test_fresh_engines_number_from_zero(self):
        warm = one_lp()
        for i in range(5):
            warm.schedule_at(float(i), lambda: None)
        warm.run(until=6.0)
        assert one_lp().schedule_at(1.0, lambda: None).seq == (0, 0, 1)
        assert one_lp().schedule(1.0, lambda: None).seq == (0, 0, 1)
        warm_shard = ShardEngine(np.array([0, 1]), 2, lookahead=0.1)
        warm_shard.schedule_at(0.05, lambda: None, node=1)
        warm_shard.run(until=0.3)
        eng = ShardEngine(np.array([0, 1]), 2, lookahead=0.1)
        assert eng.schedule_at(0.5, lambda: None, node=1).seq == (0, 0, 1)
        assert eng.schedule_at(0.5, lambda: None, node=0).seq == (0, 0, 2)

    def test_kernel_schedule_and_schedule_at_share_one_sequence(self):
        k = one_lp()
        seqs = [
            k.schedule(1.0, lambda: None).seq,
            k.schedule_at(1.0, lambda: None).seq,
            k.schedule(1.0, lambda: None).seq,
        ]
        assert seqs == [(0, 0, 1), (0, 0, 2), (0, 0, 3)]


class TestConservativeEngine:
    """The conservative engine: a ``ShardEngine`` owning every LP, driven
    by ``run(until)``."""

    def test_window_count(self):
        eng = ShardEngine(np.zeros(1, dtype=np.int64), 1, lookahead=0.1)
        eng.run(until=1.0)
        assert len(eng.window_stats) == 10

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ShardEngine(np.zeros(2, dtype=np.int64), 1, lookahead=0.0)
        with pytest.raises(ValueError):
            ShardEngine(np.array([0, 5]), 2, lookahead=0.1)

    @pytest.mark.parametrize("lookahead", [float("inf"), float("nan")])
    def test_rejects_a_lookahead_that_runs_no_window(self, lookahead):
        # Either one passes a ``<= 0`` check, and then run() executes no
        # window: an event at t=0.5 never runs, and nothing says so.
        with pytest.raises(ValueError, match="finite"):
            ShardEngine([0], 1, lookahead=lookahead)
        with pytest.raises(ValueError, match="finite"):
            ParallelConservativeEngine([0, 1], 2, lookahead, procs=2)
        with pytest.raises(ValueError, match="finite"):
            list(iter_windows(0.0, lookahead, 1.0))

    def test_cross_lp_violation_raises(self):
        eng = ShardEngine(np.array([0, 1]), 2, lookahead=0.1)

        def offender():
            # schedule onto the other LP *inside* the current window
            eng.schedule_at(eng.current_time + 0.01, lambda: None, node=1)

        eng.schedule_at(0.05, offender, node=0)
        with pytest.raises(LookaheadViolation):
            eng.run(until=1.0)

    def test_cross_lp_violation_tolerated_when_lenient(self):
        eng = ShardEngine(np.array([0, 1]), 2, lookahead=0.1, strict=False)
        seen = []

        def offender():
            eng.schedule_at(eng.current_time + 0.01, lambda: seen.append(1), node=1)

        eng.schedule_at(0.05, offender, node=0)
        eng.run(until=1.0)
        assert eng.lookahead_violations == 1
        assert seen == [1]  # delivered late, not lost

    def test_remote_counted(self):
        eng = ShardEngine(np.array([0, 1]), 2, lookahead=0.1)

        def sender():
            eng.schedule_at(eng.current_time + 0.1, lambda: None, node=1)

        eng.schedule_at(0.0, sender, node=0)
        eng.run(until=0.5)
        remote = sum(ws.remote_sends_per_lp for ws in eng.window_stats)
        assert remote.tolist() == [1, 0]  # charged to the sender

    def test_events_per_lp(self):
        eng = ShardEngine(np.array([0, 0, 1]), 2, lookahead=0.1)
        eng.schedule_at(0.05, lambda: None, node=0)
        eng.schedule_at(0.15, lambda: None, node=2)
        eng.run(until=1.0)
        assert sum(ws.events_per_lp for ws in eng.window_stats).tolist() == [1, 1]

    def test_rejects_schedule_into_lp_local_past(self):
        # Regression: validation must use the executing LP's local clock,
        # not the barrier clock. An event at t=0.05 runs inside window
        # [0, 0.1) while the barrier clock is still 0.0 — scheduling at
        # t=0.02 is after the barrier but before the LP's local now, and
        # silently inverts execution order unless rejected.
        eng = ShardEngine(np.array([0]), 1, lookahead=0.1)

        def offender():
            eng.schedule_at(0.02, lambda: None, node=0)

        eng.schedule_at(0.05, offender, node=0)
        with pytest.raises(ValueError, match="LP's past"):
            eng.run(until=0.1)

    def test_same_lp_future_within_window_allowed(self):
        # The LP-local floor must not over-reject: same-LP scheduling
        # ahead of the local clock but inside the current window is legal.
        eng = ShardEngine(np.array([0]), 1, lookahead=0.1)
        seen = []

        def sender():
            eng.schedule_at(0.06, lambda: seen.append(1), node=0)

        eng.schedule_at(0.05, sender, node=0)
        eng.run(until=0.1)
        assert seen == [1]

    def test_lookahead_guard_scales_with_simulated_time(self):
        # Regression: with an absolute epsilon (1e-15) the boundary
        # tolerance falls below one float ULP once simulated time passes
        # ~0.01 s, so a cross-LP event at window_end - 1e-11 near t=2000
        # was flagged as a violation. The relative epsilon
        # (1e-9 * lookahead = 5e-10 here) must accept it.
        eng = ShardEngine(np.array([0, 1]), 2, lookahead=0.5)
        seen = []

        def sender():
            eng.schedule_at(2000.0 - 1e-11, lambda: seen.append(1), node=1)

        eng.schedule_at(1999.6, sender, node=0)
        eng.run(until=2000.6)
        assert eng.lookahead_violations == 0
        assert seen == [1]

    def test_equivalence_with_sequential(self):
        """The conservative engine executes the same event sequence as the
        sequential kernel when cross-LP delays respect the lookahead."""
        rng = np.random.default_rng(0)
        num_nodes, num_lps, lookahead = 8, 3, 0.05
        assignment = rng.integers(0, num_lps, size=num_nodes)

        def build(engine, log):
            def fire(node, depth, t_sched):
                log.append((round(t_sched, 9), node, depth))
                if depth < 4:
                    # same-LP short hop
                    engine.schedule_at(
                        t_sched + 0.013, lambda: fire(node, depth + 1, t_sched + 0.013), node=node
                    )
                    # cross-LP hop with delay >= lookahead
                    target = (node + 3) % num_nodes
                    engine.schedule_at(
                        t_sched + 0.06,
                        lambda: fire(target, depth + 1, t_sched + 0.06),
                        node=target,
                    )

            for n in range(num_nodes):
                t0 = 0.001 * (n + 1)
                engine.schedule_at(t0, lambda n=n, t0=t0: fire(n, 0, t0), node=n)

        seq_log: list = []
        k = ShardEngine(np.zeros(num_nodes, dtype=np.int64), 1, lookahead=1.0)
        build(k, seq_log)
        k.run(until=1.0)

        par_log: list = []
        eng = ShardEngine(assignment, num_lps, lookahead)
        build(eng, par_log)
        eng.run(until=1.0)

        assert sorted(seq_log) == sorted(par_log)
        assert len(par_log) == eng.events_executed
