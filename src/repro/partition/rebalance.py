"""Blame-driven online LP re-partitioning at barrier windows.

The paper's HPROF mapping is *static*: one partition chosen before the
run. This module closes the observe -> attribute -> repartition loop at
runtime instead, in the style of game-theoretic iterative partitioning:
the controller of the multi-process backend watches per-window blame
concentration, and when one shard's straggler blame stays above a
threshold, it tries *diffusion-style local moves* — single-LP
migrations off the blamed shard — scores each candidate placement with
the cluster cost model over the trailing window history
(:func:`repro.engine.costmodel.window_walls` grouped by the candidate
LP -> shard layout, no re-simulation), and accepts the best move only
if the model predicts a real gain. The engine then migrates the LP at
the next barrier.

Three design rules keep this sound:

1. **Decisions are made once, centrally.** Only the controller runs a
   :class:`Rebalancer`; workers receive finished migration plans over
   the control plane. There is no per-shard vote to diverge.
2. **Decisions are deterministic.** Blame is *modeled*: per-LP busy
   time derived from the window's event counters and the fault
   schedule's slowdown spans — pure functions of simulated quantities —
   so the same run always migrates the same LPs at the same barriers.
   (Measured wall-clock blame stays a reporting view — ``obs.blame``
   with measured pricing; it never steers a run.) The straggler is
   picked by :func:`repro.engine.costmodel.window_blame`, the kernel
   every blame report and the Chrome timeline use.
3. **Placement changes execution, never outcomes.** The rebalancer only
   rewrites LP -> shard placement; the node -> LP assignment, window
   boundaries, and event keys are untouched, which is what keeps
   delivery logs and counter fingerprints byte-identical to a
   non-rebalanced run (the differential-determinism suite enforces it).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..cluster.syncmodel import ClusterSpec, teragrid_cluster

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.schedule import FaultEvent

# NOTE: every other repro-internal import in this module is deferred
# into the function that needs it. The partition package sits at the
# bottom of the import graph (topology.models pulls partition.graph), so
# a module-level import of engine/faults/obs here would close a cycle
# the moment ``import repro.faults`` (or anything reaching topology)
# runs. ``cluster.syncmodel`` imports nothing of repro's.

__all__ = [
    "RebalanceConfig",
    "MigrationDecision",
    "Rebalancer",
    "slowdown_spans",
    "span_multipliers",
]

@dataclass(frozen=True)
class RebalanceConfig:
    """Tuning knobs of the online re-balancer (all validated).

    ``threshold`` is the trailing blame-concentration share (one shard's
    fraction of all straggler blame over the last ``history`` windows)
    that arms the trigger; it must hold for ``patience`` consecutive
    windows before a migration is attempted, and after an accepted
    migration the trigger stays disarmed for ``cooldown`` windows so the
    new placement's history can accumulate. The trigger is also held off
    until ``history`` windows have been observed at all (warm-up) —
    early-run windows are injection ramp-up noise. ``min_gain_fraction`` is the
    what-if predicted improvement (relative to the current placement's
    score) a candidate must clear — moves the model calls a wash are
    rejected, which is what makes the loop convergent instead of
    oscillating.
    """

    threshold: float = 0.5
    patience: int = 2
    cooldown: int = 4
    history: int = 8
    max_migrations: int = 4
    min_gain_fraction: float = 0.02
    #: the cluster whose rates price the modeled busy time (the one the
    #: run's predictions and blame tables use); the remote premium is
    #: charged per cross-shard send only
    cluster: ClusterSpec = field(default_factory=teragrid_cluster)

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        if self.history < 1:
            raise ValueError("history must be >= 1")
        if self.max_migrations < 0:
            raise ValueError("max_migrations must be >= 0")
        if self.min_gain_fraction < 0.0:
            raise ValueError("min_gain_fraction must be >= 0")


@dataclass(frozen=True)
class MigrationDecision:
    """One accepted single-LP migration, effective at the next barrier."""

    #: barrier window index after which the LP executes on ``dst_shard``
    window_index: int
    lp: int
    src_shard: int
    dst_shard: int
    #: trailing blame share of ``src_shard`` when the trigger fired
    concentration: float
    #: what-if predicted wall saved over the trailing history, seconds
    predicted_gain_s: float

    def as_dict(self) -> dict:
        """Flat JSON-friendly form for summaries and bench documents."""
        return {
            "window_index": self.window_index,
            "lp": self.lp,
            "src_shard": self.src_shard,
            "dst_shard": self.dst_shard,
            "concentration": self.concentration,
            "predicted_gain_s": self.predicted_gain_s,
        }


def slowdown_spans(
    events: Iterable[FaultEvent], end_time: float
) -> list[tuple[int, float, float, float]]:
    """LP straggler spans ``(lp, start, end, factor)`` from a schedule.

    A *pure* replay of the fault injector's span pairing, through the
    same :func:`repro.faults.schedule.pair_window`: ``lp.slow.start`` /
    ``lp.slow.end`` events pair up per LP, first in, first out, and
    spans still open at ``end_time`` extend to it. Derived from the
    schedule alone — before the run even starts — so the modeled blame
    source sees the same stragglers the injector will create,
    deterministically.
    """
    from ..faults.schedule import FaultKind, pair_window

    spans: list[tuple[int, float, float, float]] = []
    open_: dict[int, tuple[tuple[float, float], ...]] = {}
    slow = (FaultKind.LP_SLOWDOWN_START, FaultKind.LP_SLOWDOWN_END)
    for fe in sorted(events, key=lambda e: (e.time, e.kind.value, e.target)):
        if fe.kind in slow:
            lp = int(fe.target[0])
            closed = pair_window(
                open_, lp, fe.kind is slow[0], fe.time, fe.param("factor", 1.0)
            )
            if closed is not None:
                spans.append((lp, closed[0], fe.time, closed[1]))
    spans.extend(
        (lp, t0, end_time, factor)
        for lp, windows in sorted(open_.items())
        for t0, factor in windows
    )
    return spans


def span_multipliers(
    spans: Sequence[tuple[int, float, float, float]],
    window_start: float,
    window_end: float,
    num_lps: int,
) -> np.ndarray:
    """Per-LP busy multipliers for one window (injector semantics).

    Every span overlapping the window raises its LP's multiplier to the
    span's factor (max-combined when spans overlap), matching
    ``busy_multipliers``'s whole-window application — the overlap test
    itself goes through :func:`repro.engine.windows.window_overlap` so
    boundary windows resolve identically everywhere.
    """
    from ..engine.windows import window_overlap

    out = np.ones(num_lps, dtype=np.float64)
    for lp, t0, t1, factor in spans:
        if 0 <= lp < num_lps and window_overlap(t0, t1, window_start, window_end) > 0.0:
            out[lp] = max(out[lp], float(factor))
    return out


class Rebalancer:
    """Controller-side trigger/candidate/score loop over barrier windows.

    One instance lives on the run's
    :class:`~repro.engine.parallel.coordinator.Coordinator`. Each
    barrier, :meth:`observe_window` ingests the window's merged per-LP
    counters; when the trailing blame concentration crosses the
    configured threshold it generates single-LP moves off the blamed
    shard, scores every candidate placement with
    :meth:`placement_score` over the trailing busy history, and returns
    an accepted :class:`MigrationDecision` (or
    ``None``). The caller is responsible for executing the migration at
    the barrier; ``shard_of`` here tracks the *decided* placement.

    LP 0 never migrates: the control-plane replica schedule is owned by
    LP 0's shard structurally (see ``engine/parallel/shard.py``), so its
    placement is part of the protocol, not the load balance.
    """

    def __init__(
        self,
        config: RebalanceConfig,
        shards: Sequence[Sequence[int]],
        num_lps: int,
        spans: Sequence[tuple[int, float, float, float]] = (),
    ) -> None:
        self.config = config
        self.num_lps = int(num_lps)
        self.num_shards = len(shards)
        self.shard_of = np.full(self.num_lps, -1, dtype=np.int64)
        for shard_id, lps in enumerate(shards):
            for lp in lps:
                self.shard_of[int(lp)] = shard_id
        if (self.shard_of < 0).any():
            raise ValueError("shards must cover every LP")
        self.spans = list(spans)
        self._busy_history: deque[np.ndarray] = deque(maxlen=config.history)
        self._blame_history: deque[np.ndarray] = deque(maxlen=config.history)
        self._streak = 0
        self._cooldown = 0
        self.migrations: list[MigrationDecision] = []
        #: shards adopted away by recovery: never a destination again
        self.dead: set[int] = set()
        self.triggers = 0
        self.candidates_scored = 0

    @property
    def retired(self) -> bool:
        """True once the migration budget is spent.

        Callers on a latency-sensitive path (the barrier controller) can
        skip assembling per-window counter sums entirely — a retired
        re-balancer can never decide again.
        """
        return len(self.migrations) >= self.config.max_migrations

    def adopt(self, dead: int, heir: int) -> None:
        """Recovery handed shard ``dead``'s LPs to ``heir``."""
        self.shard_of[self.shard_of == dead] = heir
        self.dead.add(dead)

    # ------------------------------------------------------------------
    # Per-window ingestion
    # ------------------------------------------------------------------
    def observe_window(
        self,
        window_index: int,
        start: float,
        end: float,
        events_per_lp: Sequence[int],
        remote_per_lp: Sequence[int],
    ) -> MigrationDecision | None:
        """Ingest one merged window; maybe decide a migration.

        ``remote_per_lp`` must count cross-*shard* sends under the
        placement that executed the window (the engines' per-window
        ``xshard_this_window`` column), not all cross-LP sends — the
        premium prices mail serialization, and mail between shard-mates
        never touches a pipe. Feeding the placement-independent cross-LP
        count instead makes every post-migration window look as
        expensive as before the move and the trigger oscillates.

        The modeled busy time applies the fault schedule's slowdown
        multipliers so modeled blame matches what the injector does to
        the cost model.
        """
        cfg = self.config
        if len(self.migrations) >= cfg.max_migrations:
            # Retired: the migration budget is spent, so no future window
            # can produce a decision. Skip the per-window bookkeeping —
            # the controller calls this on the barrier critical path
            # (workers sit idle until mail is routed), so dead trigger
            # arithmetic is pure added wall time.
            return None
        from ..engine.costmodel import lp_busy_seconds, window_blame

        if len(events_per_lp) != self.num_lps or len(remote_per_lp) != self.num_lps:
            raise ValueError("window counters must have num_lps entries")
        multipliers = (
            span_multipliers(self.spans, start, end, self.num_lps) if self.spans else None
        )
        busy = lp_busy_seconds(events_per_lp, remote_per_lp, cfg.cluster, multipliers)
        self._busy_history.append(busy)

        # Straggler-takes-all at shard granularity: the whole window's
        # wait is blamed on the slowest shard (obs.blame semantics).
        (straggler,), _, (wait,) = window_blame(self._shard_busy(busy)[None, :])
        blame = np.zeros(self.num_shards, dtype=np.float64)
        blame[straggler] = wait
        self._blame_history.append(blame)

        if len(self._busy_history) < cfg.history:
            # Warm-up: no triggering until a full trailing history
            # exists. The first windows of a run are injection ramp-up,
            # and a migration decided on one window of noise tends to be
            # one the scorer immediately wants to reverse.
            return None
        if self._cooldown > 0:
            self._cooldown -= 1
            self._streak = 0
            return None
        concentration, blamed = self._concentration()
        if concentration >= cfg.threshold and blamed >= 0:
            self._streak += 1
        else:
            self._streak = 0
            return None
        if self._streak < cfg.patience:
            return None
        self.triggers += 1
        decision = self._decide(window_index, blamed, concentration)
        if decision is not None:
            self.shard_of[decision.lp] = decision.dst_shard
            self.migrations.append(decision)
            self._cooldown = cfg.cooldown
            self._streak = 0
            # The trailing history describes the placement that just
            # died: remote-event weights recorded before the move would
            # mis-blame the new placement for windows to come. Flush it;
            # the warm-up gate then forces a full post-move refill
            # before the next decision can arm.
            self._busy_history.clear()
            self._blame_history.clear()
        return decision

    # ------------------------------------------------------------------
    # Trigger arithmetic
    # ------------------------------------------------------------------
    def _concentration(self) -> tuple[float, int]:
        """Trailing blame concentration and the blamed shard (or -1).

        Shares go through :func:`repro.obs.blame.blame_shares`, so an
        all-idle or single-LP-shard history (zero total wait) yields
        exactly zero concentration and no blamed shard — the trigger
        can never divide by zero.
        """
        from ..engine.costmodel import window_blame
        from ..obs.blame import blame_shares

        if not self._blame_history:
            return 0.0, -1
        shares = blame_shares(np.sum(self._blame_history, axis=0))
        if not shares.any():
            return 0.0, -1
        # The most-blamed shard is the straggler of the history's shares.
        (blamed,), (share,), _ = window_blame(shares[None, :])
        return float(share), int(blamed)

    def _shard_busy(self, busy: np.ndarray) -> np.ndarray:
        shard_busy = np.zeros(self.num_shards, dtype=np.float64)
        np.add.at(shard_busy, self.shard_of, busy)
        return shard_busy

    # ------------------------------------------------------------------
    # Candidate generation + what-if scoring
    # ------------------------------------------------------------------
    def placement_score(self, shard_of: np.ndarray | None = None) -> float:
        """Modeled compute wall of the trailing history under a layout.

        The window-max model the blame report and the run's prediction
        speak (:func:`repro.engine.costmodel.window_walls`), with the
        run's window structure and node -> LP assignment fixed and only
        the LP -> shard placement (default: the decided one) varied. The
        barrier term is the same for every layout over the same shards,
        so it is left out of the comparison.
        """
        from ..engine.costmodel import window_walls

        layout = self.shard_of if shard_of is None else np.asarray(shard_of)
        groups = [layout == shard for shard in range(self.num_shards)]
        return float(window_walls(np.stack(self._busy_history), groups).sum())

    def _decide(
        self, window_index: int, blamed: int, concentration: float
    ) -> MigrationDecision | None:
        cfg = self.config
        on_blamed = [
            int(lp)
            for lp in np.flatnonzero(self.shard_of == blamed)
            if lp != 0
        ]
        # A shard must keep at least one LP; moving its only LP would
        # just relocate the hotspot anyway.
        if len(on_blamed) == 0 or int((self.shard_of == blamed).sum()) <= 1:
            return None
        moves = [
            (lp, dst)
            for lp in on_blamed
            for dst in range(self.num_shards)
            if dst != blamed and dst not in self.dead
        ]
        if not moves:
            return None
        current = self.placement_score()
        ranked = []
        for lp, dst in moves:
            layout = self.shard_of.copy()
            layout[lp] = dst
            ranked.append((self.placement_score(layout), lp, dst))
        ranked.sort()
        self.candidates_scored += len(moves)
        best_score, lp, dst = ranked[0]
        gain = current - best_score
        if gain <= 0.0 or gain < cfg.min_gain_fraction * current:
            return None
        return MigrationDecision(
            window_index=window_index,
            lp=int(lp),
            src_shard=blamed,
            dst_shard=int(dst),
            concentration=concentration,
            predicted_gain_s=float(gain),
        )
