"""Wall-clock timing instruments — the only sanctioned ``perf_counter`` site.

Simulated components must never read the wall clock (simlint SIM102);
*measuring* the simulator, however, requires it. This module concentrates
every ``time.perf_counter`` call of the package so that

- span measurements are named and aggregated through the registry
  (:class:`SpanTimer`), and
- plain elapsed-time needs (experiment wall-clock reporting, engine
  calibration) go through :class:`Stopwatch` instead of scattering raw
  ``perf_counter()`` calls.

simlint rule SIM102 enforces the boundary: a wall-clock call
(``perf_counter()``, ``time.time()``, ``datetime.now()``, …) anywhere in
``src/repro`` outside ``repro/obs`` is an error.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .registry import Registry

__all__ = ["SpanTimer", "Stopwatch"]


class SpanTimer:
    """Accumulates named wall-clock spans (total seconds + span count).

    The start/stop protocol is allocation-free for hot loops::

        token = timer.start()      # -1.0 when disabled
        ... work ...
        timer.stop(token)          # no-op when token < 0

    ``span()`` wraps the same protocol as a context manager for cooler
    paths. Span durations are wall-clock and therefore *not* part of a
    run's deterministic fingerprint; exporters report them separately.
    """

    __slots__ = ("name", "_reg", "_total_s", "_count")

    def __init__(self, name: str, registry: "Registry") -> None:
        self.name = name
        self._reg = registry
        self._total_s = 0.0
        self._count = 0

    def start(self) -> float:
        """Begin a span; returns a token (``-1.0`` when disabled)."""
        if self._reg.enabled:
            return time.perf_counter()
        return -1.0

    def stop(self, token: float) -> None:
        """End the span opened by ``start()`` (ignores disabled tokens)."""
        if token >= 0.0:
            self._record(time.perf_counter() - token)

    def add(self, elapsed_s: float) -> None:
        """Record one externally measured span of ``elapsed_s`` seconds.

        For call sites that already hold a wall-clock duration (a
        :class:`Stopwatch` shared with another sink) and must not pay a
        second pair of clock reads. Guarded like every public write
        method.
        """
        if self._reg.enabled:
            self._record(elapsed_s)

    def _record(self, elapsed_s: float) -> None:
        self._total_s += elapsed_s
        self._count += 1

    @contextmanager
    def span(self) -> Iterator[None]:
        """Context manager form of :meth:`start`/:meth:`stop`."""
        token = self.start()
        try:
            yield
        finally:
            self.stop(token)

    @property
    def total_s(self) -> float:
        """Accumulated span time in seconds."""
        return self._total_s

    @property
    def count(self) -> int:
        """Number of completed spans."""
        return self._count

    @property
    def mean_s(self) -> float:
        """Mean span duration (0 when no spans completed)."""
        return self._total_s / self._count if self._count else 0.0

    def merge_from(self, other: "SpanTimer") -> None:
        """Add ``other``'s span count and total time into this timer."""
        self._total_s += other._total_s
        self._count += other._count

    def reset(self) -> None:
        """Zero the accumulated time and count."""
        self._total_s = 0.0
        self._count = 0


class Stopwatch:
    """Plain elapsed-wall-clock measurement, registry-independent.

    For code that must *always* measure (experiment wall-clock seconds,
    engine-cost calibration) regardless of whether observability is on.
    """

    __slots__ = ("_t0",)

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction or the last :meth:`restart`."""
        return time.perf_counter() - self._t0

    def restart(self) -> None:
        """Re-zero the stopwatch."""
        self._t0 = time.perf_counter()
