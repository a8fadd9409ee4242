"""Sequential discrete-event simulation kernel.

The reference engine: executes the global event set in timestamp order.
With ``record_trace=True`` it additionally records ``(time, node)`` for
every executed event; the trace is what the cluster cost model buckets
into synchronization windows per logical process, so a single simulation
run can be evaluated under *every* candidate partition (the virtual
network's behavior does not depend on the mapping).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from .events import Event, EventQueue, EventRecorder

__all__ = ["SimKernel"]


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
