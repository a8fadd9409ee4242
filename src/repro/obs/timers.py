"""Wall-clock timing — the one sanctioned wall-clock reader outside ``repro/obs``.

Simulated components must never read the wall clock (simlint SIM102);
*measuring* the simulator, however, requires it. Every elapsed-time need
of the package outside the obs layer (experiment wall-clock reporting,
engine calibration, the worker loop's measured window spans) goes
through :class:`Stopwatch` instead of scattering raw ``perf_counter()``
calls.

simlint rule SIM102 enforces the boundary: a wall-clock call
(``perf_counter()``, ``time.time()``, ``datetime.now()``, …) anywhere in
``src/repro`` outside ``repro/obs`` is an error.
"""

from __future__ import annotations

import time

__all__ = ["Stopwatch"]


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
