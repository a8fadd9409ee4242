"""Discrete event primitives: events and the pending-event queue.

Events carry the simulated node they execute at — the engine's unit of
spatial decomposition. Accounting per node is what lets the same run be
re-evaluated under different partitions (node -> LP maps).

Hot-path design (see docs/performance.md):

- :class:`Event` is a ``__slots__`` class, not a dataclass: one event is
  created per network packet hop, so construction cost is the floor of
  the whole simulator's throughput.
- Events dispatch *closure-free*: instead of capturing arguments in a
  per-event lambda, callers pass a bound method plus an ``args`` tuple
  and the executor invokes ``ev.fn(*ev.args)``. Same semantics, no
  per-hop closure allocation.
- :class:`EventQueue` keeps ``(time, seq, event)`` tuples on the heap so
  every sift comparison is a C-level tuple comparison; ``seq`` is unique,
  so a comparison never falls through to the event object and ordering
  is exactly the historical ``(time, seq)`` total order.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable

import numpy as np

__all__ = ["Event", "EventQueue", "EventRecorder"]


class Event:
    """A scheduled callback.

    Ordering is (time, seq): ties execute in scheduling order, which makes
    runs deterministic. ``node`` is the simulated entity the event belongs
    to (-1 for engine-internal events). The executor runs ``fn(*args)``;
    zero-argument callables (the pre-existing closure style) keep working
    with the default empty ``args``.
    """

    __slots__ = ("time", "seq", "fn", "args", "node", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple = (),
        node: int = -1,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.node = node
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time!r} seq={self.seq} node={self.node}{state})"

    def cancel(self) -> None:
        """Lazily cancel; the queue discards the event on pop."""
        self.cancelled = True


class EventQueue:
    """Binary-heap pending event set with lazy cancellation.

    Heap entries are ``(time, seq, event)`` tuples: ``heapq``'s sift
    comparisons stay in C (tuple comparison short-circuits on the unique
    ``(time, seq)`` prefix) instead of calling a Python ``__lt__`` per
    level, which is the single largest win of the hot-path overhaul.
    ``len()`` counts queued entries including lazily cancelled ones, and
    ``pop`` and ``pop_until`` discard cancelled entries as they surface —
    both unchanged from the original implementation.
    """

    __slots__ = ("_heap", "counter")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        #: the tiebreak sequence :meth:`push` stamps with; a kernel over
        #: this one queue draws from it too (``SimKernel``), an engine with
        #: one sequence over many queues keeps its own (:meth:`push_event`)
        self.counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def heap(self) -> list[tuple[float, Any, Event]]:
        """The heap list itself, for the engines' per-event loops.

        The one sanctioned way past the methods below: a run loop that
        pops an event per packet hop cannot afford a ``pop_until`` call
        per event, so it reads ``heap[0]`` and calls ``heappop`` /
        ``heappush`` on this list directly. The layout is owned here and
        is exactly what :meth:`push` builds — ``(time, seq, event)`` with
        ``time == event.time`` and ``seq == event.seq``, cancelled events
        left in place until they surface. The list object stays the same
        for the queue's whole life (:meth:`drain_entries` empties it in
        place), so an engine may hold on to it.
        """
        return self._heap

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

    def push_event(self, ev: Event) -> None:
        """Enqueue an existing event object (used for mailbox delivery)."""
        heappush(self._heap, (ev.time, ev.seq, ev))

    def pop(self) -> Event | None:
        """Remove and return the earliest live event (None when empty)."""
        heap = self._heap
        while heap:
            ev = heappop(heap)[2]
            if not ev.cancelled:
                return ev
        return None

    def pop_until(self, bound: float) -> Event | None:
        """Pop the earliest live event strictly before ``bound``.

        Returns ``None`` when the queue is empty or the head is at or
        past ``bound`` (the head stays queued). The engines' per-event
        loops do exactly this on :attr:`heap`, without the call.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head[0] >= bound:
                return None
            ev = heappop(heap)[2]
            if not ev.cancelled:
                return ev
        return None

    # ------------------------------------------------------------------
    # Raw-entry access (the checkpoint snapshot reads a queue this way)
    # ------------------------------------------------------------------
    def drain_entries(self) -> list[tuple[float, int, Event]]:
        """Remove and return all raw entries (cancelled ones included)."""
        entries = self._heap[:]
        self._heap.clear()  # in place: engines hold the list (see ``heap``)
        return entries


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
