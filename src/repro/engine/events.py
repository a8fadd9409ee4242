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

from heapq import heappop, heappush
from typing import Any, Callable

__all__ = ["Event", "EventQueue"]


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
    ``pop_until`` discards cancelled entries as they surface. The queue
    stamps nothing: the engine keys every event with its own sequence
    and enqueues it with :meth:`push_event`.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[tuple[float, Any, Event]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def heap(self) -> list[tuple[float, Any, Event]]:
        """The heap list itself, for the engine's per-event loops.

        The one sanctioned way past the methods below: a run loop that
        pops an event per packet hop cannot afford a ``pop_until`` call
        per event, so it reads ``heap[0]`` and calls ``heappop`` /
        ``heappush`` on this list directly. The layout is owned here and
        is exactly what :meth:`push_event` builds — ``(time, seq, event)``
        with ``time == event.time`` and ``seq == event.seq``, cancelled
        events left in place until they surface. The list object stays
        the same for the queue's whole life (:meth:`drain_entries`
        empties it in place), so an engine may hold on to it.
        """
        return self._heap

    def push_event(self, ev: Event) -> None:
        """Enqueue an event the engine has keyed."""
        heappush(self._heap, (ev.time, ev.seq, ev))

    def pop_until(self, bound: float) -> Event | None:
        """Pop the earliest live event strictly before ``bound``.

        Returns ``None`` when the queue is empty or the head is at or
        past ``bound`` (the head stays queued). The engine's per-event
        loop does exactly this on :attr:`heap`, without the call.
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
    def drain_entries(self) -> list[tuple[float, Any, Event]]:
        """Remove and return all raw entries (cancelled ones included)."""
        entries = self._heap[:]
        self._heap.clear()  # in place: engines hold the list (see ``heap``)
        return entries
