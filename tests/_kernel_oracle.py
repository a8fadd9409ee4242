"""The sequential kernel as it was before it was folded into ``ShardEngine``.

``repro.engine.kernel.SimKernel`` at commit b7c3704, moved here with its
body unedited to serve as the reference of ``tests/test_kernel_fold.py``
and the base of ``tests/_hop_oracle.py``'s ``OracleKernel``: a
``ShardEngine`` on one LP (``ShardEngine([0] * num_nodes, 1,
lookahead=duration_s)``) must execute every event in exactly this
kernel's order — one engine-wide ``(time, seq)`` sequence — and leave
the same trace, counters and delivery log.

With it come what it stood on and ``src/`` no longer ships: the
``EventRecorder`` mixin both engines recorded their ``(time, node)``
samples into (``tests/_engine_oracle.py`` records into it too), and the
queue methods that stamped one sequence per queue (``EventQueue.push``,
``pop`` and ``counter``). ``KernelOracle`` adds the attributes shipped
code reads of every engine it runs on, with the values the kernel
stood for: one LP, running the control plane, every event in phase
``(0, 0)``.

Frozen: nothing under ``src/`` imports it, and no change to the shipped
engine is mirrored here.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable

import numpy as np

from repro.engine import events
from repro.engine.events import Event

__all__ = ["EventQueue", "EventRecorder", "SimKernel", "KernelOracle"]


class EventQueue(events.EventQueue):
    """The shipped queue plus the one sequence it used to stamp with."""

    __slots__ = ("counter",)

    def __init__(self) -> None:
        super().__init__()
        #: the tiebreak sequence :meth:`push` stamps with; the kernel over
        #: this one queue draws from it too
        self.counter = itertools.count()

    def push(
        self,
        time: float,
        fn: Callable[..., Any],
        node: int = -1,
        args: tuple = (),
    ) -> Event:
        """Create and enqueue an event; returns it (for cancellation)."""
        seq = next(self.counter)
        ev = Event(time, seq, fn, args, node)
        heappush(self._heap, (time, seq, ev))
        return ev

    def pop(self) -> Event | None:
        """Remove and return the earliest live event (None when empty)."""
        heap = self._heap
        while heap:
            ev = heappop(heap)[2]
            if not ev.cancelled:
                return ev
        return None


class EventRecorder:
    """The ``(time, node)`` sample of every event an engine executes.

    Both schedulers inherit it. Built with ``record_trace=True``, an
    engine appends one sample per executed event, in execution order;
    the cluster cost model re-bins the samples under any candidate
    mapping (:func:`repro.engine.costmodel.predict_from_trace`), so one
    run scores them all. The samples are plain lists: a ``list.append``
    costs a fraction of an ``array.append``, and one runs per event.
    """

    def _init_trace(self, record_trace: bool) -> None:
        self.record_trace = record_trace
        self._trace_times: list[float] = []
        self._trace_nodes: list[int] = []

    def trace(self) -> tuple[np.ndarray, np.ndarray]:
        """The recorded ``(times, nodes)`` arrays of executed events."""
        return (
            np.asarray(self._trace_times, dtype=np.float64),
            np.asarray(self._trace_nodes, dtype=np.int64),
        )



class SimKernel(EventRecorder):
    """Timestamp-ordered sequential event executor.

    Parameters
    ----------
    record_trace:
        Record (time, node) of every executed event for post-hoc
        partition evaluation (:mod:`repro.engine.costmodel`).
    """

    def __init__(self, record_trace: bool = False) -> None:
        self.now: float = 0.0
        self.queue = EventQueue()
        # The per-event paths below work on the queue's heap list itself
        # (EventQueue.heap documents the layout and why this is allowed).
        self._heap = self.queue.heap
        # One (time, seq) sequence per kernel: the queue's own, so the
        # inlined push below and ``queue.push`` stamp from the same one.
        self._seq = self.queue.counter
        self.events_executed: int = 0
        self._init_trace(record_trace)

    @property
    def current_time(self) -> float:
        """Simulated time of the executing (or last executed) event."""
        return self.now

    # ------------------------------------------------------------------
    # Scheduling interface (the one ShardEngine offers too)
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, fn: Callable[..., Any], node: int = -1, args: tuple = ()
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now at ``node``."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        return self.queue.push(self.now + delay, fn, node, args)

    def schedule_at(
        self, time: float, fn: Callable[..., Any], node: int = -1, args: tuple = ()
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time`` at ``node``."""
        if time < self.now:
            raise ValueError("cannot schedule into the past")
        # EventQueue.push, inlined: one of these per packet hop.
        seq = next(self._seq)
        ev = Event(time, seq, fn, args, node)
        heappush(self._heap, (time, seq, ev))
        return ev

    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Execute events until the queue drains, ``until`` is reached, or
        ``max_events`` have run. Returns the number executed this call.

        Events stamped exactly at ``until`` are *not* executed, and once
        nothing earlier than ``until`` is queued ``now`` advances to
        ``until``, so back-to-back windows compose exactly. A call that
        stops on ``max_events`` leaves ``now`` at the last executed event:
        work before ``until`` may still be pending.
        """
        executed = 0
        bound = float("inf") if until is None else until
        limit = float("inf") if max_events is None else max_events
        heap = self._heap
        record_trace = self.record_trace
        trace_times, trace_nodes = self._trace_times, self._trace_nodes
        # EventQueue.pop_until, inlined: the head stays queued once it is
        # at or past the bound, cancelled events are dropped as they
        # surface.
        while executed < limit:
            if not heap or heap[0][0] >= bound:
                if until is not None and self.now < until:
                    self.now = until
                break
            time, _, ev = heappop(heap)
            if ev.cancelled:
                continue
            self.now = time
            ev.fn(*ev.args)
            executed += 1
            if record_trace:
                trace_times.append(time)
                trace_nodes.append(ev.node)
        self.events_executed += executed
        return executed


class KernelOracle(SimKernel):
    """``SimKernel`` with what shipped code reads of the engine it runs on.

    ``Agent`` defers live traffic to the barrier on more than one LP
    (``num_lps``); the fault installer gives a replica shard a private
    registry (``has_control``); the delivery recorder tags each record
    with the phase it ran in (``execution_cursor``). The kernel was one
    LP that ran the control plane in one phase.
    """

    num_lps = 1
    has_control = True
    execution_cursor = (0, 0)
