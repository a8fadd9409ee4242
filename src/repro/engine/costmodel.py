"""Cluster cost model: event traces -> modeled wall-clock time.

The paper's efficiency story is structural: a conservative engine
synchronizes once per MLL of simulated time, each barrier costs ``C(N)``,
and between barriers every engine node processes its own events (plus
pays to ship cross-partition events). Given a recorded event trace
(time, node) and a partition, this module computes:

``T = sum over windows [ max_lp( events*t_event + remote_sends*t_remote ) + C(N) ]``

which is also exactly how the real engine's wall-clock decomposes. This
is the only module that multiplies a count by a rate: every consumer —
the figure pipeline, blame, the calibration table, the Chrome timeline,
the online re-balancer — calls :func:`lp_busy_seconds` and
:func:`window_walls` (or :func:`predict_wallclock`, their sum plus
``W * C(N)``) with the :class:`ClusterSpec` it was handed. All
partition-quality metrics (load imbalance, parallel efficiency) derive
from the same buckets. One simulation run therefore scores every mapping
approach — the virtual network's behavior does not depend on the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..cluster.syncmodel import ClusterSpec

__all__ = [
    "bucket_event_counts",
    "remote_send_counts",
    "WallclockPrediction",
    "lp_busy_seconds",
    "window_walls",
    "window_blame",
    "predict_wallclock",
    "predict_from_trace",
    "sequential_time_estimate",
    "window_for_mapping",
]


def window_for_mapping(achieved_mll_s: float, duration_s: float) -> float:
    """The synchronization-window length a mapping runs under.

    The window equals the mapping's achieved MLL; an infinite MLL
    (nothing cut — e.g. a single engine) means LPs never need to sync,
    modeled as one window covering the whole run. This is the one
    clamp rule shared by the parallel engine's lookahead and the
    scoring of mappings against a recorded run (the figures and the
    timeline's what-if table).
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    return duration_s if not np.isfinite(achieved_mll_s) else min(achieved_mll_s, duration_s)


def _num_windows(end_time: float, window_s: float) -> int:
    if window_s <= 0:
        raise ValueError("window length must be positive")
    if end_time <= 0:
        return 0
    return int(np.ceil(end_time / window_s - 1e-12))


def bucket_event_counts(
    times: np.ndarray,
    nodes: np.ndarray,
    assignment: np.ndarray,
    num_lps: int,
    window_s: float,
    end_time: float,
) -> np.ndarray:
    """Count executed events per (window, LP).

    ``nodes == -1`` (engine-internal events) are charged to LP 0.
    Events at or after ``end_time`` are ignored.
    """
    times = np.asarray(times, dtype=np.float64)
    nodes = np.asarray(nodes, dtype=np.int64)
    assignment = np.asarray(assignment, dtype=np.int64)
    W = _num_windows(end_time, window_s)
    out = np.zeros((W, num_lps), dtype=np.int64)
    if times.size == 0 or W == 0:
        return out
    keep = times < end_time
    times, nodes = times[keep], nodes[keep]
    lps = np.where(nodes >= 0, assignment[np.maximum(nodes, 0)], 0)
    windows = np.minimum((times / window_s).astype(np.int64), W - 1)
    np.add.at(out, (windows, lps), 1)
    return out


def remote_send_counts(
    times: np.ndarray,
    from_nodes: np.ndarray,
    to_nodes: np.ndarray,
    assignment: np.ndarray,
    num_lps: int,
    window_s: float,
    end_time: float,
) -> np.ndarray:
    """Count cross-LP transmissions per (window, sending LP).

    A transmission is remote when its endpoints map to different LPs; the
    sender pays (serialization + send), mirroring the engine's accounting.
    """
    times = np.asarray(times, dtype=np.float64)
    from_nodes = np.asarray(from_nodes, dtype=np.int64)
    to_nodes = np.asarray(to_nodes, dtype=np.int64)
    assignment = np.asarray(assignment, dtype=np.int64)
    W = _num_windows(end_time, window_s)
    out = np.zeros((W, num_lps), dtype=np.int64)
    if times.size == 0 or W == 0:
        return out
    keep = times < end_time
    times, from_nodes, to_nodes = times[keep], from_nodes[keep], to_nodes[keep]
    lp_from = assignment[from_nodes]
    lp_to = assignment[to_nodes]
    cross = lp_from != lp_to
    if not cross.any():
        return out
    windows = np.minimum((times[cross] / window_s).astype(np.int64), W - 1)
    np.add.at(out, (windows, lp_from[cross]), 1)
    return out


@dataclass(frozen=True)
class WallclockPrediction:
    """Modeled parallel execution time and its decomposition."""

    total_s: float
    compute_s: float
    sync_s: float
    num_windows: int
    num_lps: int
    #: total events executed per LP over the whole run
    events_per_lp: np.ndarray
    #: total cross-LP sends per LP
    remote_per_lp: np.ndarray
    #: modeled wall per window, barrier included (dense predictions only:
    #: the sparse trace path never materialises its empty windows)
    window_wall_s: np.ndarray | None = None

    @property
    def total_events(self) -> int:
        """Total events across all LPs."""
        return int(self.events_per_lp.sum())

    @property
    def sync_fraction(self) -> float:
        """Share of the modeled wall-clock spent in barriers."""
        return self.sync_s / self.total_s if self.total_s > 0 else 0.0


def lp_busy_seconds(
    event_counts: np.ndarray,
    remote_counts: np.ndarray,
    cluster: ClusterSpec,
    busy_multipliers: np.ndarray | None = None,
) -> np.ndarray:
    """Modeled busy seconds per LP: ``events*t_event + remote*t_remote``.

    The one place a count meets a rate. Works elementwise on any shape —
    a ``(windows, lps)`` matrix or one window's ``(lps,)`` vector.
    ``busy_multipliers``, when given, is a same-shape array of per-LP
    slowdown factors (>= 1) applied to the compute cost — how a
    straggler fault (:mod:`repro.faults` LP slowdown spans) enters the
    model: a slowed LP takes proportionally longer per window and drags
    every barrier it bounds.
    """
    event_counts = np.asarray(event_counts, dtype=np.float64)
    remote_counts = np.asarray(remote_counts, dtype=np.float64)
    if event_counts.shape != remote_counts.shape:
        raise ValueError("event and remote count shapes differ")
    busy = event_counts * cluster.event_cost_s + remote_counts * cluster.remote_event_cost_s
    if busy_multipliers is not None:
        busy_multipliers = np.asarray(busy_multipliers, dtype=np.float64)
        if busy_multipliers.shape != busy.shape:
            raise ValueError("busy_multipliers shape must match the count arrays")
        if (busy_multipliers < 1.0).any():
            raise ValueError("busy multipliers must be >= 1")
        busy = busy * busy_multipliers
    return busy


def _grouped(busy: np.ndarray, groups: Sequence | None) -> np.ndarray:
    busy = np.asarray(busy, dtype=np.float64)
    if busy.ndim != 2:
        raise ValueError("busy must be a (windows, lps) matrix")
    if groups is not None:
        busy = np.stack([busy[:, g].sum(axis=1) for g in groups], axis=1)
    return busy


def window_walls(busy: np.ndarray, groups: Sequence | None = None) -> np.ndarray:
    """Modeled compute wall per window: the busiest group's busy seconds.

    ``busy`` is a ``(windows, lps)`` matrix from :func:`lp_busy_seconds`.
    With ``groups`` ``None`` every LP is its own engine node; otherwise
    each group is a column selector (an LP-id list or a boolean mask —
    one worker shard, or one shard of a candidate LP -> shard layout)
    whose LPs share a node, so their busy seconds add up before the max.
    """
    busy = _grouped(busy, groups)
    return busy.max(axis=1) if busy.shape[1] else np.zeros(busy.shape[0])


def window_blame(
    busy: np.ndarray, groups: Sequence | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Straggler-takes-all attribution: ``(stragglers, walls, waits)``.

    ``busy`` and ``groups`` are those of :func:`window_walls`, and the
    busy seconds may be modeled or measured. Per window, the straggler is
    the unit (LP or group) with the most busy time, the first on a tie;
    the wall is its busy time; the wait ``sum(wall - busy)`` is what the
    other units idle at the barrier, all of it charged to the straggler.
    This is the only place a straggler is picked: blame reports, the
    Chrome timeline and the online re-balancer all call it.
    """
    busy = _grouped(busy, groups)
    if not busy.shape[1]:
        zeros = np.zeros(busy.shape[0])
        return np.zeros(busy.shape[0], dtype=np.int64), zeros, zeros.copy()
    walls = busy.max(axis=1)
    return busy.argmax(axis=1), walls, (walls[:, None] - busy).sum(axis=1)


def predict_wallclock(
    event_counts: np.ndarray,
    remote_counts: np.ndarray,
    cluster: ClusterSpec,
    num_lps: int | None = None,
    busy_multipliers: np.ndarray | None = None,
    groups: Sequence | None = None,
) -> WallclockPrediction:
    """Apply the window-max cost model to bucketed counts.

    ``event_counts`` and ``remote_counts`` are ``(windows, lps)`` arrays
    (from :func:`bucket_event_counts` / :func:`remote_send_counts`, or the
    conservative engine's :attr:`window_stats`); ``busy_multipliers`` and
    ``groups`` are those of :func:`lp_busy_seconds` and
    :func:`window_walls`. The barrier is modeled over ``num_lps`` nodes —
    by default one per group, or one per LP when ungrouped.
    """
    event_counts = np.asarray(event_counts, dtype=np.float64)
    remote_counts = np.asarray(remote_counts, dtype=np.float64)
    busy = lp_busy_seconds(event_counts, remote_counts, cluster, busy_multipliers)
    walls = window_walls(busy, groups)
    W = walls.shape[0]
    if num_lps is None:
        num_lps = len(groups) if groups is not None else busy.shape[1]
    compute = float(walls.sum())
    barrier = cluster.sync_cost_s(num_lps) if num_lps > 1 else 0.0
    sync = W * barrier
    return WallclockPrediction(
        total_s=compute + sync,
        compute_s=compute,
        sync_s=sync,
        num_windows=W,
        num_lps=num_lps,
        events_per_lp=event_counts.sum(axis=0),
        remote_per_lp=remote_counts.sum(axis=0),
        window_wall_s=walls + barrier,
    )


def sequential_time_estimate(total_events: int, cluster: ClusterSpec) -> float:
    """The paper's Tseq approximation:
    ``Tseq = TotalEventNumber / MaximalEventRateOnEachNode``."""
    return total_events / cluster.max_event_rate_per_node


def predict_from_trace(
    event_times: np.ndarray,
    event_nodes: np.ndarray,
    assignment: np.ndarray,
    num_lps: int,
    window_s: float,
    end_time: float,
    cluster: ClusterSpec,
    tx_times: np.ndarray | None = None,
    tx_from: np.ndarray | None = None,
    tx_to: np.ndarray | None = None,
) -> WallclockPrediction:
    """Sparse-window wall-clock prediction straight from a recorded trace.

    Small-MLL mappings produce millions of (mostly empty) windows; a dense
    ``(windows, lps)`` matrix would not fit. This path aggregates costs on
    the *occupied* ``(window, lp)`` pairs only — empty windows contribute
    exactly one barrier ``C(N)`` and no compute, which the closed form
    adds. Results match :func:`predict_wallclock` on dense inputs.
    """
    event_times = np.asarray(event_times, dtype=np.float64)
    event_nodes = np.asarray(event_nodes, dtype=np.int64)
    assignment = np.asarray(assignment, dtype=np.int64)
    W = _num_windows(end_time, window_s)
    L = int(num_lps)

    keys_list: list[np.ndarray] = []
    costs_list: list[np.ndarray] = []
    events_per_lp = np.zeros(L, dtype=np.float64)
    remote_per_lp = np.zeros(L, dtype=np.float64)

    keep = event_times < end_time
    if keep.any() and W:
        t = event_times[keep]
        n = event_nodes[keep]
        lp = np.where(n >= 0, assignment[np.maximum(n, 0)], 0)
        win = np.minimum((t / window_s).astype(np.int64), W - 1)
        keys_list.append(win * L + lp)
        costs_list.append(np.full(t.shape[0], cluster.event_cost_s))
        np.add.at(events_per_lp, lp, 1.0)

    if tx_times is not None and tx_from is not None and tx_to is not None and W:
        tx_times = np.asarray(tx_times, dtype=np.float64)
        tx_from = np.asarray(tx_from, dtype=np.int64)
        tx_to = np.asarray(tx_to, dtype=np.int64)
        keep = tx_times < end_time
        if keep.any():
            t = tx_times[keep]
            lf = assignment[tx_from[keep]]
            lt = assignment[tx_to[keep]]
            cross = lf != lt
            if cross.any():
                t, lf = t[cross], lf[cross]
                win = np.minimum((t / window_s).astype(np.int64), W - 1)
                keys_list.append(win * L + lf)
                costs_list.append(np.full(t.shape[0], cluster.remote_event_cost_s))
                np.add.at(remote_per_lp, lf, 1.0)

    if keys_list:
        keys = np.concatenate(keys_list)
        costs = np.concatenate(costs_list)
        uniq, inverse = np.unique(keys, return_inverse=True)
        per_pair = np.zeros(uniq.shape[0])
        np.add.at(per_pair, inverse, costs)
        # Per-window max over the LPs present in that window (absent LPs
        # contribute zero cost and never raise the max).
        wins = uniq // L
        boundaries = np.flatnonzero(np.diff(wins)) + 1
        starts = np.concatenate(([0], boundaries))
        compute = float(np.maximum.reduceat(per_pair, starts).sum())
    else:
        compute = 0.0

    sync = W * cluster.sync_cost_s(L) if L > 1 else 0.0
    return WallclockPrediction(
        total_s=compute + sync,
        compute_s=compute,
        sync_s=sync,
        num_windows=W,
        num_lps=L,
        events_per_lp=events_per_lp,
        remote_per_lp=remote_per_lp,
    )
