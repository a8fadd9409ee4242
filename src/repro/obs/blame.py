"""Straggler blame and critical-path analysis over a recorded trace.

The conservative engine's wall clock decomposes per barrier window as
``max_lp(busy) + C(N)``: every LP that finishes its window early idles
until the slowest LP (the *straggler*) reaches the barrier. This module
turns the tracer's window records into that accounting:

- **per-window straggler identity** — the LP whose modeled busy time set
  the window's wall time;
- **per-LP cumulative blame** — the wall-clock all other LPs spent
  waiting on that LP at barriers, attributed in full to each window's
  straggler (so blame totals sum exactly to the modeled barrier-wait
  time, which is what the timeline report cross-checks);
- **per-node blame** — an LP's blame split over its simulated nodes in
  proportion to the events each node executed (from the trace's event
  samples), naming the hot routers behind a slow partition;
- **the cross-window critical path** — the straggler sequence, with
  *causal handoffs* marked wherever a recorded cross-LP message edge
  shows the previous window's straggler feeding the next one.

Everything here is a pure function of recorded simulated quantities, so
blame reports are exactly reproducible. On an overflowed trace the
analysis covers the retained suffix (check ``trace.dropped_records``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.syncmodel import ClusterSpec
from ..engine.costmodel import lp_busy_seconds, window_walls
from .trace import EdgeRecord, TraceBuffer, WindowRecord

__all__ = [
    "CriticalStep",
    "BlameReport",
    "modeled_busy",
    "analyze",
    "blame_shares",
    "node_blame",
    "format_blame_table",
    "MeasuredBlameReport",
    "analyze_measured",
    "format_measured_table",
]


@dataclass(frozen=True)
class CriticalStep:
    """One window of the critical path: who bounded it, for how long."""

    window_index: int
    lp: int
    busy_s: float
    #: True when a recorded message edge shows the previous step's
    #: straggler sent work delivered to this straggler in this window.
    handoff_from_prev: bool


@dataclass(frozen=True)
class BlameReport:
    """Straggler attribution for one traced run."""

    num_lps: int
    num_windows: int
    #: cumulative blame per LP: barrier wait attributed to its windows
    lp_blame_s: np.ndarray
    #: total modeled busy time per LP over all retained windows
    lp_busy_s: np.ndarray
    #: number of windows each LP was the straggler of
    lp_straggler_windows: np.ndarray
    #: sum over windows of sum over LPs of (max busy - busy) — the
    #: quantity ``lp_blame_s`` decomposes exactly
    total_wait_s: float
    #: sum over windows of the straggler's busy time (the modeled
    #: compute part of the wall clock, before barrier costs)
    critical_s: float
    #: modeled barrier wait per window (for distribution summaries)
    window_wait_s: np.ndarray
    critical_path: list[CriticalStep] = field(default_factory=list)
    #: records evicted from the trace before analysis (0 = complete)
    dropped_records: int = 0

    @property
    def handoff_fraction(self) -> float:
        """Share of critical-path steps causally fed by the previous one."""
        steps = [s for s in self.critical_path[1:]]
        if not steps:
            return 0.0
        return sum(s.handoff_from_prev for s in steps) / len(steps)

    @property
    def shares(self) -> np.ndarray:
        """Per-LP blame shares in ``[0, 1]`` (:func:`blame_shares`)."""
        return blame_shares(self.lp_blame_s, self.total_wait_s)


def blame_shares(
    blame_s: np.ndarray, total_wait_s: float | None = None
) -> np.ndarray:
    """Per-LP blame shares, exactly zero when there is no wait at all.

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


def _edges_by_window(
    edges: list[EdgeRecord], windows: list[WindowRecord]
) -> dict[int, list[EdgeRecord]]:
    """Bucket edges by the window their delivery time falls into."""
    if not windows:
        return {}
    starts = np.asarray([w.start for w in windows])
    ends = np.asarray([w.end for w in windows])
    out: dict[int, list[EdgeRecord]] = {}
    for e in edges:
        # Cross-LP mail is delivered at the barrier ending the window the
        # send happened in and executes in a later window; attribute the
        # edge to the window containing its deliver time.
        i = int(np.searchsorted(starts, e.deliver_time, side="right")) - 1
        if 0 <= i < len(windows) and e.deliver_time < ends[i]:
            out.setdefault(i, []).append(e)
    return out


def _critical_path(
    windows: list[WindowRecord],
    edges: list[EdgeRecord],
    stragglers: np.ndarray,
    walls: np.ndarray,
) -> list[CriticalStep]:
    by_window = _edges_by_window(edges, windows)
    path: list[CriticalStep] = []
    prev: WindowRecord | None = None
    for i, w in enumerate(windows):
        straggler = int(stragglers[i])
        handoff = False
        if prev is not None:
            prev_straggler = int(stragglers[i - 1])
            handoff = any(
                e.dst_lp == straggler
                and e.src_lp == prev_straggler
                and prev.start <= e.send_time < prev.end
                for e in by_window.get(i, ())
            )
        path.append(CriticalStep(w.window_index, straggler, float(walls[i]), handoff))
        prev = w
    return path


def modeled_busy(
    windows: list[WindowRecord], cluster: ClusterSpec, num_lps: int
) -> np.ndarray:
    """``(windows, lps)`` modeled busy seconds of recorded window counts."""
    shape = (len(windows), num_lps)
    return lp_busy_seconds(
        np.array([w.events_per_lp for w in windows]).reshape(shape),
        np.array([w.remote_per_lp for w in windows]).reshape(shape),
        cluster,
    )


def analyze(
    trace: TraceBuffer, cluster: ClusterSpec, num_lps: int | None = None
) -> BlameReport:
    """Compute the blame report for a traced run.

    The trace's window records carry counts; ``cluster`` prices them
    (:func:`repro.engine.costmodel.lp_busy_seconds`). ``num_lps``
    defaults to the width of the recorded window vectors; pass it
    explicitly to analyze an empty trace against a known engine size.
    Blame attribution is *straggler-takes-all*: the whole barrier wait
    of a window is charged to that window's straggler, so
    ``lp_blame_s.sum() == total_wait_s`` exactly.
    """
    windows = list(trace.windows)
    if num_lps is None:
        num_lps = windows[0].num_lps if windows else 0
    L = int(num_lps)
    for w in windows:
        if w.num_lps != L:
            raise ValueError(
                f"window {w.window_index} has {w.num_lps} LPs, expected {L}"
            )
    busy = modeled_busy(windows, cluster, L)
    walls = window_walls(busy)
    stragglers = busy.argmax(axis=1) if L else np.zeros(len(windows), dtype=np.int64)
    lp_blame = np.zeros(L, dtype=np.float64)
    lp_busy = np.zeros(L, dtype=np.float64)
    lp_straggler = np.zeros(L, dtype=np.int64)
    window_wait = np.zeros(len(windows), dtype=np.float64)
    critical = 0.0
    for i in range(len(windows)):
        lp_busy += busy[i]
        wait = float((walls[i] - busy[i]).sum())
        window_wait[i] = wait
        lp_blame[stragglers[i]] += wait
        lp_straggler[stragglers[i]] += 1
        critical += float(walls[i])
    # Summing the blame vector (not the window-wait array) makes the
    # decomposition invariant lp_blame_s.sum() == total_wait_s exact in
    # float arithmetic, not just mathematically.
    return BlameReport(
        num_lps=L,
        num_windows=len(windows),
        lp_blame_s=lp_blame,
        lp_busy_s=lp_busy,
        lp_straggler_windows=lp_straggler,
        total_wait_s=float(lp_blame.sum()),
        critical_s=critical,
        window_wait_s=window_wait,
        critical_path=_critical_path(windows, list(trace.edges), stragglers, walls),
        dropped_records=trace.dropped_records,
    )


def node_blame(
    trace: TraceBuffer,
    report: BlameReport,
    assignment: np.ndarray,
    num_nodes: int | None = None,
) -> np.ndarray:
    """Split each LP's blame over its nodes by executed-event share.

    Uses the trace's event samples to weigh nodes within their LP; an LP
    whose blame is nonzero but whose nodes recorded no samples (trace
    overflow, engine-internal events) keeps its blame unattributed —
    the returned vector then sums to less than ``report.lp_blame_s``.
    Events with ``node < 0`` (engine-internal) are never attributed.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    n = int(num_nodes) if num_nodes is not None else int(assignment.shape[0])
    _, nodes = trace.event_samples()
    counts = np.zeros(n, dtype=np.float64)
    valid = (nodes >= 0) & (nodes < n)
    np.add.at(counts, nodes[valid], 1.0)
    out = np.zeros(n, dtype=np.float64)
    for lp in range(report.num_lps):
        blame = report.lp_blame_s[lp]
        if blame <= 0:
            continue
        mask = assignment[:n] == lp
        lp_counts = counts[:n] * mask
        total = lp_counts.sum()
        if total > 0:
            out += blame * lp_counts / total
    return out


def format_blame_table(report: BlameReport) -> str:
    """Render the per-LP blame table (with the sum cross-check row)."""
    lines = [
        f"{'LP':>4}{'busy (ms)':>12}{'blame (ms)':>12}"
        f"{'blame %':>9}{'straggler wins':>16}"
    ]
    total = report.total_wait_s
    shares = report.shares
    for lp in range(report.num_lps):
        share = 100.0 * shares[lp]
        lines.append(
            f"{lp:>4}{report.lp_busy_s[lp] * 1e3:>12.3f}"
            f"{report.lp_blame_s[lp] * 1e3:>12.3f}{share:>8.1f}%"
            f"{report.lp_straggler_windows[lp]:>16}"
        )
    lines.append(
        f"{'sum':>4}{report.lp_busy_s.sum() * 1e3:>12.3f}"
        f"{report.lp_blame_s.sum() * 1e3:>12.3f}{'':>9}"
        f"{int(report.lp_straggler_windows.sum()):>16}"
    )
    lines.append(
        f"barrier wait total {total * 1e3:.3f} ms over "
        f"{report.num_windows} windows (blame sums to it exactly)"
    )
    if report.dropped_records:
        lines.append(
            f"note: trace overflowed ({report.dropped_records} records "
            f"dropped); blame covers the retained suffix"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Measured mode: wall-clock decomposition from worker-recorded spans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MeasuredBlameReport:
    """Wall-clock attribution from *measured* per-window worker spans.

    Where :class:`BlameReport` works on modeled busy times (event counts
    times cost-model rates), this report decomposes the wall clock the
    multi-process backend actually spent: each worker records execute /
    mail-encode / barrier-wait / mail-decode / checkpoint spans per window
    (:class:`~repro.obs.trace.MeasuredWindowRecord`), and the straggler
    of a window is the shard with the largest measured total.
    """

    num_shards: int
    num_windows: int
    #: measured seconds per shard, one vector per span kind
    shard_execute_s: np.ndarray
    shard_encode_s: np.ndarray
    shard_wait_s: np.ndarray
    shard_decode_s: np.ndarray
    shard_checkpoint_s: np.ndarray
    #: events executed and mail bytes shipped per shard
    shard_events: np.ndarray
    shard_mail_bytes: np.ndarray
    #: windows each shard was the measured straggler of
    shard_straggler_windows: np.ndarray
    #: sum over windows of the straggler's measured total — the measured
    #: analogue of the modeled ``critical_s``
    critical_s: float
    dropped_records: int = 0

    @property
    def shard_total_s(self) -> np.ndarray:
        """Total measured seconds per shard across all span kinds."""
        return (
            self.shard_execute_s
            + self.shard_encode_s
            + self.shard_wait_s
            + self.shard_decode_s
            + self.shard_checkpoint_s
        )

    @property
    def shares(self) -> np.ndarray:
        """Per-shard measured blame shares (:func:`blame_shares`).

        Blame here is the wait *other* shards spent on each shard's
        straggler windows, approximated by the shard's straggler-window
        share of total measured wait; exactly zero everywhere when no
        shard ever waited (single-shard runs).
        """
        wait_total = float(self.shard_wait_s.sum())
        if wait_total <= 0.0 or self.num_windows == 0:
            return np.zeros(self.num_shards, dtype=np.float64)
        wins = self.shard_straggler_windows.astype(np.float64)
        return blame_shares(wins, float(wins.sum()))


def analyze_measured(
    trace: TraceBuffer, num_shards: int | None = None
) -> MeasuredBlameReport:
    """Decompose measured worker spans into a per-shard blame report.

    Works on any trace carrying ``measured`` records — a worker's own
    buffer, or (the usual case) the merge of every worker's buffer
    (:func:`repro.obs.distributed.merged_trace_snapshot`).
    ``num_shards`` defaults to one past the largest shard id seen.
    """
    records = list(trace.measured)
    if num_shards is None:
        num_shards = 1 + max((r.shard_id for r in records), default=-1)
    S = max(int(num_shards), 0)
    execute = np.zeros(S, dtype=np.float64)
    encode = np.zeros(S, dtype=np.float64)
    wait = np.zeros(S, dtype=np.float64)
    decode = np.zeros(S, dtype=np.float64)
    checkpoint = np.zeros(S, dtype=np.float64)
    events = np.zeros(S, dtype=np.float64)
    mail = np.zeros(S, dtype=np.float64)
    straggler = np.zeros(S, dtype=np.int64)
    by_window: dict[int, tuple[int, float]] = {}
    for r in records:
        if not 0 <= r.shard_id < S:
            raise ValueError(f"measured record names shard {r.shard_id} of {S}")
        execute[r.shard_id] += r.execute_s
        encode[r.shard_id] += r.mail_encode_s
        wait[r.shard_id] += r.barrier_wait_s
        decode[r.shard_id] += r.mail_decode_s
        checkpoint[r.shard_id] += r.checkpoint_s
        events[r.shard_id] += r.events
        mail[r.shard_id] += r.mail_bytes
        best = by_window.get(r.window_index)
        if best is None or r.total_s > best[1]:
            by_window[r.window_index] = (r.shard_id, r.total_s)
    critical = 0.0
    for shard_id, total in by_window.values():
        straggler[shard_id] += 1
        critical += total
    return MeasuredBlameReport(
        num_shards=S,
        num_windows=len(by_window),
        shard_execute_s=execute,
        shard_encode_s=encode,
        shard_wait_s=wait,
        shard_decode_s=decode,
        shard_checkpoint_s=checkpoint,
        shard_events=events,
        shard_mail_bytes=mail,
        shard_straggler_windows=straggler,
        critical_s=critical,
        dropped_records=trace.dropped_records,
    )


def format_measured_table(report: MeasuredBlameReport) -> str:
    """Render the per-shard measured decomposition table."""
    lines = [
        f"{'shard':>6}{'execute (ms)':>14}{'encode (ms)':>13}"
        f"{'wait (ms)':>11}{'decode (ms)':>13}{'ckpt (ms)':>11}{'events':>9}"
        f"{'mail (B)':>10}{'straggler wins':>16}"
    ]
    for s in range(report.num_shards):
        lines.append(
            f"{s:>6}{report.shard_execute_s[s] * 1e3:>14.3f}"
            f"{report.shard_encode_s[s] * 1e3:>13.3f}"
            f"{report.shard_wait_s[s] * 1e3:>11.3f}"
            f"{report.shard_decode_s[s] * 1e3:>13.3f}"
            f"{report.shard_checkpoint_s[s] * 1e3:>11.3f}"
            f"{int(report.shard_events[s]):>9}"
            f"{int(report.shard_mail_bytes[s]):>10}"
            f"{report.shard_straggler_windows[s]:>16}"
        )
    lines.append(
        f"{'sum':>6}{report.shard_execute_s.sum() * 1e3:>14.3f}"
        f"{report.shard_encode_s.sum() * 1e3:>13.3f}"
        f"{report.shard_wait_s.sum() * 1e3:>11.3f}"
        f"{report.shard_decode_s.sum() * 1e3:>13.3f}"
        f"{report.shard_checkpoint_s.sum() * 1e3:>11.3f}"
        f"{int(report.shard_events.sum()):>9}"
        f"{int(report.shard_mail_bytes.sum()):>10}"
        f"{int(report.shard_straggler_windows.sum()):>16}"
    )
    lines.append(
        f"measured critical path {report.critical_s * 1e3:.3f} ms over "
        f"{report.num_windows} windows (straggler totals)"
    )
    if report.dropped_records:
        lines.append(
            f"note: trace overflowed ({report.dropped_records} records "
            f"dropped); decomposition covers the retained suffix"
        )
    return "\n".join(lines)
