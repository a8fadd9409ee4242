"""Shared barrier-window protocol: stats, boundary arithmetic, the fence.

Every executor — each :class:`~repro.engine.parallel.ShardEngine`, whether
it owns every LP (``ShardEngine.run``) or one worker's share of them, and
the controller that merges the workers' results — must agree, to the last
float ULP, on where every synchronization window starts and ends: the
window boundary is the causality fence (cross-LP events may not land
before it, or :class:`LookaheadViolation`), and the lookahead check
compares against it with a relative epsilon. Extracting the boundary
iteration here means every executor computes the *identical* float
sequence, so a window index means the same simulated interval everywhere.

:class:`WindowStats` — the per-window per-LP execution counters the
cluster cost model consumes, and the only per-window record (blame and
the Chrome timeline read it too) — lives here for the same reason:
workers report partial columns and the controller sums them into the
same structure a single-shard run records directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "LookaheadViolation",
    "WindowStats",
    "iter_windows",
    "window_rows",
    "window_overlap",
    "WINDOW_EPSILON_FRACTION",
]

#: Relative tolerance applied to every window-boundary comparison, as a
#: fraction of the lookahead. An *absolute* epsilon falls below one
#: float ULP once simulated time passes ~0.01 s, turning legitimate
#: window-boundary events into spurious violations (see PR 4).
WINDOW_EPSILON_FRACTION = 1e-9


class LookaheadViolation(RuntimeError):
    """A cross-LP event was scheduled closer than the engine's lookahead."""


@dataclass
class WindowStats:
    """Per-synchronization-window execution counters."""

    window_index: int
    start: float
    end: float
    #: events executed per LP in this window
    events_per_lp: np.ndarray
    #: cross-LP events *sent* per LP in this window
    remote_sends_per_lp: np.ndarray

    @property
    def total_events(self) -> int:
        """Events executed across all LPs in this window."""
        return int(self.events_per_lp.sum())


def iter_windows(
    start: float, lookahead: float, until: float, first_index: int = 0
) -> Iterator[tuple[int, float, float]]:
    """Yield ``(window_index, window_start, window_end)`` barrier windows.

    Reproduces the barrier loop's historical arithmetic exactly —
    ``window_end = min(now + lookahead, until)`` with the relative
    epsilon absorbing float accumulation over many windows so a run to
    ``until`` never spawns a sliver final window. Because the float
    operations (and their order) are fixed here, every process running
    the same ``(start, lookahead, until)`` derives bit-identical
    boundaries — the property the cross-process barrier protocol rests
    on.
    """
    if lookahead <= 0:
        raise ValueError("lookahead must be positive")
    eps = WINDOW_EPSILON_FRACTION * lookahead
    now = start
    index = first_index
    while now < until - eps:
        window_end = min(now + lookahead, until)
        yield index, now, window_end
        index += 1
        now = window_end


def window_rows(window_stats: Sequence[WindowStats], times) -> np.ndarray:
    """Index into ``window_stats`` of the window holding each time (-1: none).

    The one edge-to-window bucketing: blame's causal handoffs and the
    Chrome export's flow arrows place a message's send and delivery
    times with it. ``window_stats`` is in window order; a time belongs to
    the row whose ``[start, end)`` contains it.
    """
    times = np.asarray(times, dtype=np.float64)
    if not window_stats:
        return np.full(times.shape, -1, dtype=np.int64)
    starts = np.array([ws.start for ws in window_stats])
    ends = np.array([ws.end for ws in window_stats])
    rows = np.searchsorted(starts, times, side="right") - 1
    return np.where((rows >= 0) & (times < ends[rows]), rows, -1)


def window_overlap(
    span_start: float, span_end: float, window_start: float, window_end: float
) -> float:
    """Length of the intersection of a time span with a barrier window.

    Pure float arithmetic with no epsilon: consumers that weight a
    span's effect by window (the fault injector's slowdown spans, the
    rebalancer's deterministic straggler model) must all agree on the
    overlap, and the boundary cases (zero-length span, disjoint
    intervals) resolve to exactly ``0.0``.
    """
    return max(0.0, min(span_end, window_end) - max(span_start, window_start))
