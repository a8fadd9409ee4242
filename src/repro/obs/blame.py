"""Straggler blame and critical-path analysis over barrier windows.

The conservative engine's wall clock decomposes per barrier window as
``max_unit(busy) + C(N)``: every unit that finishes its window early
idles until the slowest one (the *straggler*) reaches the barrier. This
module turns a run's :class:`~repro.engine.windows.WindowStats` rows into
that accounting, with the busy time priced one of two ways:

- **modeled**, per LP — the rows' event and remote-send counts priced by
  :func:`repro.engine.costmodel.lp_busy_seconds` with the
  :class:`ClusterSpec` the caller hands over;
- **measured**, per worker shard of the multi-process backend — each
  shard's non-waiting wall-clock of the window
  (:attr:`~repro.obs.trace.MeasuredWindowRecord.busy_s`), with its
  execute / encode / wait / decode / checkpoint / events / mail totals
  kept beside the blame.

Either way :func:`repro.engine.costmodel.window_blame` picks each
window's straggler, and the report carries:

- **per-unit cumulative blame** — the wall-clock all other units spent
  waiting on that unit at barriers, attributed in full to each window's
  straggler (so blame totals sum exactly to the barrier-wait time, which
  is what the timeline report cross-checks);
- **per-node blame** — an LP's blame split over its simulated nodes in
  proportion to the events each node executed (the engine's recorded
  event samples), naming the hot routers behind a slow partition;
- **the cross-window critical path** — the straggler sequence, with
  *causal handoffs* marked wherever a recorded cross-LP message edge
  shows the previous window's straggler feeding the next one (modeled
  reports only: edges name LPs, not shards).

Every engine records its ``WindowStats`` whether or not tracing is on,
so blame covers every window. On an overflowed trace only what comes
from the trace's rings — handoffs and measured busy times — covers the
retained suffix (check ``dropped_records``). Modeled reports are a
pure function of simulated quantities, so they are exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..cluster.syncmodel import ClusterSpec
from ..engine.costmodel import lp_busy_seconds, window_blame
from ..engine.windows import WindowStats, window_rows
from .trace import EdgeRecord, TraceBuffer

__all__ = [
    "CriticalStep",
    "BlameReport",
    "modeled_busy",
    "analyze",
    "blame_shares",
    "node_blame",
    "format_blame_table",
]

#: Measured totals a shard's report row carries beside its blame:
#: column -> the :class:`~repro.obs.trace.MeasuredWindowRecord` field summed.
_MEASURED_EXTRAS = {
    "execute": "execute_s", "encode": "mail_encode_s", "wait": "barrier_wait_s",
    "decode": "mail_decode_s", "ckpt": "checkpoint_s", "events": "events",
    "mail (B)": "mail_bytes",
}


@dataclass(frozen=True)
class CriticalStep:
    """One window of the critical path: who bounded it, for how long."""

    window_index: int
    #: the window's straggler (an LP, or a shard for measured reports)
    unit: int
    busy_s: float
    #: True when a recorded message edge shows the previous step's
    #: straggler sent work delivered to this straggler in this window.
    handoff_from_prev: bool


@dataclass(frozen=True)
class BlameReport:
    """Straggler attribution for one run, per LP or per worker shard."""

    #: ``"LP"`` (modeled pricing) or ``"shard"`` (measured pricing)
    unit: str
    num_units: int
    num_windows: int
    #: cumulative blame per unit: barrier wait attributed to its windows
    blame_s: np.ndarray
    #: total busy time per unit over all windows
    busy_s: np.ndarray
    #: number of windows each unit was the straggler of
    straggler_windows: np.ndarray
    #: sum over windows of sum over units of (max busy - busy) — the
    #: quantity ``blame_s`` decomposes exactly
    total_wait_s: float
    #: sum over windows of the straggler's busy time (the compute part of
    #: the wall clock, before barrier costs)
    critical_s: float
    #: barrier wait per window (for distribution summaries)
    window_wait_s: np.ndarray
    critical_path: list[CriticalStep] = field(default_factory=list)
    #: measured reports: per-shard execute / encode / wait / decode /
    #: ckpt seconds and events / mail bytes, by column name
    extras: dict[str, np.ndarray] = field(default_factory=dict)
    #: records evicted from the trace before analysis (0 = complete)
    dropped_records: int = 0

    @property
    def handoff_fraction(self) -> float:
        """Share of critical-path steps causally fed by the previous one."""
        steps = self.critical_path[1:]
        if not steps:
            return 0.0
        return sum(s.handoff_from_prev for s in steps) / len(steps)

    @property
    def shares(self) -> np.ndarray:
        """Per-unit blame shares in ``[0, 1]`` (:func:`blame_shares`)."""
        return blame_shares(self.blame_s, self.total_wait_s)


def blame_shares(
    blame_s: np.ndarray, total_wait_s: float | None = None
) -> np.ndarray:
    """Per-unit blame shares, exactly zero when there is no wait at all.

    A single-LP shard or an all-idle run records zero barrier wait in
    every window; dividing by that total would be a ``0/0``. This is the
    one sanctioned place that turns blame seconds into shares: when
    ``total_wait_s`` (defaulting to ``blame_s.sum()``) is not strictly
    positive, every share is exactly ``0.0`` — so the shares still sum
    to a meaningful number (zero) instead of propagating NaN into
    tables, concentration triggers, or exported documents.
    """
    blame = np.asarray(blame_s, dtype=np.float64)
    total = float(blame.sum()) if total_wait_s is None else float(total_wait_s)
    if total <= 0.0:
        return np.zeros_like(blame)
    return blame / total


def _critical_path(
    window_stats: Sequence[WindowStats],
    edges: list[EdgeRecord],
    stragglers: np.ndarray,
    walls: np.ndarray,
) -> list[CriticalStep]:
    handoff = np.zeros(len(window_stats), dtype=bool)
    if edges and window_stats:
        sent = window_rows(window_stats, [e.send_time for e in edges])
        got = window_rows(window_stats, [e.deliver_time for e in edges])
        src = np.array([e.src_lp for e in edges])
        dst = np.array([e.dst_lp for e in edges])
        # Cross-LP mail is delivered at the barrier ending the window the
        # send happened in and executes in a later window: an edge hands
        # off when it leaves the previous window's straggler and executes
        # on this window's.
        hit = (
            (got > 0) & (sent == got - 1)
            & (src == stragglers[sent]) & (dst == stragglers[got])
        )
        handoff[got[hit]] = True
    return [
        CriticalStep(ws.window_index, int(unit), float(wall), bool(h))
        for ws, unit, wall, h in zip(window_stats, stragglers, walls, handoff)
    ]


def modeled_busy(
    window_stats: Sequence[WindowStats],
    cluster: ClusterSpec,
    num_lps: int | None = None,
) -> np.ndarray:
    """``(windows, lps)`` modeled busy seconds of recorded window counts.

    ``num_lps`` defaults to the width of the first row; a row of another
    width is a :class:`ValueError`.
    """
    if num_lps is None:
        num_lps = len(window_stats[0].events_per_lp) if window_stats else 0
    for ws in window_stats:
        if len(ws.events_per_lp) != num_lps:
            raise ValueError(
                f"window {ws.window_index} has {len(ws.events_per_lp)} LPs, "
                f"expected {num_lps}"
            )
    shape = (len(window_stats), num_lps)
    return lp_busy_seconds(
        np.array([ws.events_per_lp for ws in window_stats]).reshape(shape),
        np.array([ws.remote_sends_per_lp for ws in window_stats]).reshape(shape),
        cluster,
    )


def _measured_busy(
    window_stats: Sequence[WindowStats],
    trace: TraceBuffer,
    num_shards: int | None = None,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """``(windows, shards)`` measured busy seconds, and per-shard totals.

    A shard's busy time in a window is its measured wall-clock minus its
    barrier wait (:attr:`~repro.obs.trace.MeasuredWindowRecord.busy_s`).
    Its total would not do: it includes the wait the straggler caused,
    so every shard's total is about the window wall and the busiest
    would be picked by pipe jitter. Works on any trace carrying
    ``measured`` records — usually the merge of every worker's
    (:func:`repro.obs.distributed.merged_trace_snapshot`); records of a
    window not among ``window_stats`` count only towards the totals.
    ``num_shards`` defaults to one past the largest shard id seen.
    """
    records = list(trace.measured)
    if num_shards is None:
        num_shards = 1 + max((r.shard_id for r in records), default=-1)
    S = max(int(num_shards), 0)
    row = {ws.window_index: i for i, ws in enumerate(window_stats)}
    busy = np.zeros((len(window_stats), S))
    extras = {
        column: np.zeros(S, dtype=np.float64 if name.endswith("_s") else np.int64)
        for column, name in _MEASURED_EXTRAS.items()
    }
    for r in records:
        if not 0 <= r.shard_id < S:
            raise ValueError(f"measured record names shard {r.shard_id} of {S}")
        if r.window_index in row:
            busy[row[r.window_index], r.shard_id] += r.busy_s
        for column, name in _MEASURED_EXTRAS.items():
            extras[column][r.shard_id] += getattr(r, name)
    return busy, extras


def analyze(
    window_stats: Sequence[WindowStats],
    trace: TraceBuffer,
    cluster: ClusterSpec | None = None,
    num_units: int | None = None,
) -> BlameReport:
    """Straggler-takes-all blame over a run's ``WindowStats`` rows.

    With ``cluster``, each LP's counts are priced by it
    (:func:`modeled_busy`) and the trace's message edges mark the causal
    handoffs; without one, each shard's measured non-waiting time from
    ``trace.measured`` is the busy time (``MeasuredWindowRecord.busy_s``).
    ``num_units`` defaults to the rows' LP width, or one past the largest
    measured shard id; pass it to analyze an empty run against a known
    size. The whole barrier wait of a window is charged to that window's
    straggler, so ``blame_s.sum() == total_wait_s`` exactly.
    """
    if cluster is not None:
        unit, busy, extras = "LP", modeled_busy(window_stats, cluster, num_units), {}
        edges = list(trace.edges)
    else:
        busy, extras = _measured_busy(window_stats, trace, num_units)
        unit, edges = "shard", []
    stragglers, walls, waits = window_blame(busy)
    num = busy.shape[1]
    blame = np.zeros(num)
    np.add.at(blame, stragglers, waits)
    # Summing the blame vector (not the window-wait array) makes the
    # decomposition invariant blame_s.sum() == total_wait_s exact in
    # float arithmetic, not just mathematically.
    return BlameReport(
        unit=unit,
        num_units=num,
        num_windows=len(window_stats),
        blame_s=blame,
        busy_s=busy.sum(axis=0),
        straggler_windows=np.bincount(stragglers, minlength=num),
        total_wait_s=float(blame.sum()),
        critical_s=float(walls.sum()),
        window_wait_s=waits,
        critical_path=_critical_path(window_stats, edges, stragglers, walls),
        extras=extras,
        dropped_records=trace.dropped_records,
    )


def node_blame(
    nodes: np.ndarray,
    report: BlameReport,
    assignment: np.ndarray,
    num_nodes: int | None = None,
) -> np.ndarray:
    """Split each LP's blame over its nodes by executed-event share.

    ``nodes`` is the node of every executed event, as an engine built
    with ``record_trace=True`` records it (``engine.trace()[1]``). An LP
    whose blame is nonzero but whose nodes executed no sampled events
    (engine-internal events only) keeps its blame unattributed — the
    returned vector then sums to less than ``report.blame_s``. Events
    with ``node < 0`` (engine-internal) are never attributed.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    n = int(num_nodes) if num_nodes is not None else int(assignment.shape[0])
    nodes = np.asarray(nodes, dtype=np.int64)
    counts = np.zeros(n, dtype=np.float64)
    valid = (nodes >= 0) & (nodes < n)
    np.add.at(counts, nodes[valid], 1.0)
    out = np.zeros(n, dtype=np.float64)
    for lp in range(report.num_units):
        blame = report.blame_s[lp]
        if blame <= 0:
            continue
        mask = assignment[:n] == lp
        lp_counts = counts[:n] * mask
        total = lp_counts.sum()
        if total > 0:
            out += blame * lp_counts / total
    return out


def format_blame_table(report: BlameReport) -> str:
    """Render the per-unit blame table (with the sum cross-check row).

    A measured report adds one column per entry of ``report.extras``,
    seconds shown in milliseconds.
    """
    w = max(4, len(report.unit) + 1)
    extras = [
        (f"{name} (ms)", totals * 1e3) if totals.dtype.kind == "f" else (name, totals)
        for name, totals in report.extras.items()
    ]

    def cells(pick) -> str:
        return "".join(
            f"{pick(v):>{len(label) + 2}.3f}" if v.dtype.kind == "f"
            else f"{int(pick(v)):>{len(label) + 2}}"
            for label, v in extras
        )

    lines = [
        f"{report.unit:>{w}}{'busy (ms)':>12}{'blame (ms)':>12}"
        f"{'blame %':>9}{'straggler wins':>16}"
        + "".join(f"{label:>{len(label) + 2}}" for label, _ in extras)
    ]
    total = report.total_wait_s
    shares = report.shares
    for u in range(report.num_units):
        share = 100.0 * shares[u]
        lines.append(
            f"{u:>{w}}{report.busy_s[u] * 1e3:>12.3f}"
            f"{report.blame_s[u] * 1e3:>12.3f}{share:>8.1f}%"
            f"{report.straggler_windows[u]:>16}" + cells(lambda v: v[u])
        )
    lines.append(
        f"{'sum':>{w}}{report.busy_s.sum() * 1e3:>12.3f}"
        f"{report.blame_s.sum() * 1e3:>12.3f}{'':>9}"
        f"{int(report.straggler_windows.sum()):>16}" + cells(np.sum)
    )
    lines.append(
        f"barrier wait total {total * 1e3:.3f} ms over "
        f"{report.num_windows} windows (blame sums to it exactly)"
    )
    if report.dropped_records:
        lines.append(
            f"note: trace overflowed ({report.dropped_records} records "
            f"dropped); blame covers every window, handoffs and measured "
            f"busy times the retained suffix"
        )
    return "\n".join(lines)
