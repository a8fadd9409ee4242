"""Run the experiment workload on the conservative *parallel* engine.

The figure pipeline scores mappings against a sequentially recorded trace
(sound, because virtual-network behavior is mapping-independent). The
loop closes twice, each way through one function:

- **Modeled** (:func:`repro.experiments.runner.run_workload_simulation`
  with a ``mapping``): the workload runs on one
  :class:`repro.engine.ShardEngine` that owns every LP under the mapping
  — per-LP event queues, cross-LP mailboxes, barrier windows of one
  achieved-MLL — exactly the structure of MaSSF's distributed engine,
  and :func:`predict_from_windows` converts its window counters into
  predicted cluster wall-clock.
- **Executed** (:func:`run_executed_workload`): the packet-mediated UDP
  workload actually runs across real worker processes on the
  :class:`repro.engine.ParallelConservativeEngine`, next to a
  single-process reference of the same seeded spec. The run reports the
  *measured* multi-process wall-clock beside the cost model's prediction
  over the same window counters, and whether its delivery log and
  traffic counters byte-match the reference. Only packet-mediated
  traffic shards (see :mod:`repro.experiments.shard`), so the executed
  path substitutes seeded UDP background traffic for the online
  application mix — the modeled path keeps the full mix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.approaches import Approach
from ..core.mapping import MappingPipeline, NetworkMapping
from ..engine.costmodel import (
    WallclockPrediction,
    predict_wallclock,
    sequential_time_estimate,
    window_for_mapping,
)
from ..engine.parallel import ParallelConservativeEngine, ParallelRunResult, WorkerCrashError
from ..engine.recovery import RecoveryExhaustedError
from ..engine.windows import WindowStats
from ..cluster.syncmodel import ClusterSpec
from ..obs.distributed import (
    merged_registry_snapshot,
    merged_trace_snapshot,
    window_calibration,
)
from ..obs.registry import Registry, get_registry
from ..obs.timers import Stopwatch
from ..obs.trace import TraceBuffer, get_tracer
from ..topology.models import Network
from .config import ExperimentScale
from .runner import cluster_for_scale
from .shard import delivery_log_bytes, merge_collected, run_reference, udp_spec

__all__ = [
    "top_mapping",
    "run_executed_workload",
    "ExecutedParallelRun",
    "calibrated_cluster",
    "predict_from_windows",
]


def top_mapping(net: Network, scale: ExperimentScale, seed: int = 0) -> NetworkMapping:
    """The executed backend's partition: TOP over the scale's engines."""
    pipeline = MappingPipeline(net, scale.num_engines, cluster_for_scale(scale), seed)
    return pipeline.run(Approach.TOP)


def predict_from_windows(
    window_stats: list[WindowStats],
    num_lps: int,
    cluster: ClusterSpec,
    shards: list[list[int]] | None = None,
) -> WallclockPrediction:
    """Cost-model prediction from recorded :class:`WindowStats` rows.

    The same window-max formula as :func:`repro.engine.costmodel
    .predict_from_trace`, applied to counters an engine actually
    recorded. With ``shards`` given (a partition of LP ids into worker
    processes), per-LP counts aggregate per shard first and the barrier
    cost is modeled over ``len(shards)`` nodes — the multi-process
    deployment shape. Cross-LP sends inside one shard still count at the
    remote rate, so the sharded compute term is an upper bound.
    """
    if not window_stats:
        n = len(shards) if shards is not None else num_lps
        events = np.zeros((0, n))
        return predict_wallclock(events, events.copy(), cluster, n)
    events = np.stack([ws.events_per_lp for ws in window_stats])
    remotes = np.stack([ws.remote_sends_per_lp for ws in window_stats])
    if shards is not None:
        events = np.stack([events[:, lps].sum(axis=1) for lps in shards], axis=1)
        remotes = np.stack([remotes[:, lps].sum(axis=1) for lps in shards], axis=1)
        return predict_wallclock(events, remotes, cluster, len(shards))
    return predict_wallclock(events, remotes, cluster, num_lps)


def calibrated_cluster(
    procs: int,
    reference_wall_s: float,
    total_events: int,
    name: str = "local-mp",
) -> ClusterSpec:
    """A :class:`ClusterSpec` calibrated to *this machine's* event rate.

    ``event_cost_s`` comes straight from a measured single-process run
    (``reference_wall_s / total_events``), so the model's sequential term
    reproduces the measured baseline by construction; the remote-event
    premium keeps the default 2.5x ratio and the barrier curve stays the
    paper's Figure 5 table. The gap between this prediction and the
    measured multi-process wall-clock therefore isolates what the model
    does *not* capture locally: pipe-based barrier cost and mail
    serialization on oversubscribed cores.
    """
    if reference_wall_s <= 0.0:
        raise ValueError("reference_wall_s must be positive")
    event_cost = reference_wall_s / max(1, int(total_events))
    return ClusterSpec(
        name=name,
        num_engine_nodes=procs,
        event_cost_s=event_cost,
        remote_event_cost_s=2.5 * event_cost,
    )


@dataclass
class ExecutedParallelRun:
    """One executed multi-process run next to its reference and prediction.

    ``measured_speedup`` is single-process wall over multi-process wall
    on this machine; ``predicted_speedup`` is the cost model's
    ``Tseq / Tpar`` over the same per-window counters with the
    machine-calibrated event rate (:func:`calibrated_cluster`). Both are
    honest: on a single-core container the measured number is <= 1 while
    the model — which assumes one core per engine node — predicts > 1.
    ``byte_identical`` and ``counters_match`` are the determinism
    verdict: the multi-process delivery log and traffic counters against
    the reference's. When a worker loss was not recovered, ``error``
    says why and ``result``, ``collected`` and ``predicted`` are ``None``.
    """

    procs: int
    duration_s: float
    lookahead: float
    #: the 1-process reference's collected result (delivery log, counters)
    reference: dict
    reference_wall_s: float
    reference_events: int
    cluster: ClusterSpec
    result: ParallelRunResult | None = None
    #: the shards' collected results, merged into the reference's shape
    collected: dict | None = None
    predicted: WallclockPrediction | None = None
    error: str | None = None
    meta: dict = field(default_factory=dict)
    #: merged worker+controller registry, disabled (obs enabled only)
    merged_registry: Registry | None = None
    #: merged worker+controller tracer, disabled (obs enabled only)
    merged_trace: TraceBuffer | None = None
    #: measured-vs-modeled per-window wall table (obs enabled only)
    calibration: dict | None = None

    @property
    def byte_identical(self) -> bool:
        """The multi-process delivery log byte-matches the reference's."""
        return self.collected is not None and (
            delivery_log_bytes(self.collected) == delivery_log_bytes(self.reference)
        )

    @property
    def counters_match(self) -> bool:
        """The multi-process traffic counters equal the reference's."""
        return self.collected is not None and (
            self.collected["counters"] == self.reference["counters"]
        )

    @property
    def measured_wall_s(self) -> float:
        """Wall-clock seconds of the multi-process run."""
        return self.result.wall_s

    @property
    def measured_speedup(self) -> float:
        """Measured sequential wall over measured multi-process wall."""
        return self.reference_wall_s / self.result.wall_s if self.result.wall_s else 0.0

    @property
    def predicted_seq_s(self) -> float:
        """Cost-model sequential time for the reference event count."""
        return sequential_time_estimate(self.reference_events, self.cluster)

    @property
    def predicted_speedup(self) -> float:
        """Cost-model sequential time over cost-model parallel time."""
        return self.predicted_seq_s / self.predicted.total_s if self.predicted.total_s else 0.0

    def summary(self) -> dict:
        """Flat picklable summary (obs snapshot / bench document rows)."""
        return {
            "procs": self.procs,
            "duration_s": self.duration_s,
            "lookahead_s": self.lookahead,
            "events_executed": self.result.events_executed,
            "reference_wall_s": self.reference_wall_s,
            "measured_wall_s": self.measured_wall_s,
            "measured_speedup": self.measured_speedup,
            "predicted_wall_s": self.predicted.total_s,
            "predicted_speedup": self.predicted_speedup,
            "predicted_sync_fraction": self.predicted.sync_fraction,
            "barrier_wait_s": list(self.result.barrier_wait_s),
            "mail_bytes": self.result.total_mail_bytes,
            "num_windows": len(self.result.window_stats),
            **(
                {"migrations": len(self.result.migrations)}
                if self.result.migrations
                else {}
            ),
            **(
                {
                    "checkpoints_taken": self.result.recovery["checkpoints_taken"],
                    "checkpoint_bytes": self.result.recovery["checkpoint_bytes"],
                    "respawns": self.result.recovery["respawns"],
                    "adoptions": self.result.recovery["adoptions"],
                }
                if self.result.recovery is not None
                else {}
            ),
            **(
                {"calibration_overall_ratio": self.calibration["overall_ratio"]}
                if self.calibration
                else {}
            ),
            **self.meta,
        }


def run_executed_workload(
    net: Network,
    mapping: NetworkMapping,
    duration_s: float,
    scale: ExperimentScale,
    seed: int = 0,
    procs: int = 2,
    rebalance=None,
    recovery=None,
) -> ExecutedParallelRun:
    """Execute UDP background traffic across real worker processes.

    The same seeded workload (four packets per HTTP client of ``scale``
    — enough cross-shard traffic to exercise the mail path without
    drowning the run in serialization) runs twice: once on one
    :class:`ShardEngine` owning every LP — the measured baseline and, by
    determinism, the ground truth — and once on the
    :class:`ParallelConservativeEngine` with ``procs`` workers. Both
    record their delivery logs, and the returned
    :class:`ExecutedParallelRun` says whether the multi-process one
    byte-matches, beside the measured wall-clocks and the cost-model
    prediction computed from the multi-process run's own window counters
    with a machine-calibrated event rate.

    ``rebalance`` (a :class:`repro.partition.rebalance.RebalanceConfig`)
    turns on blame-driven online LP re-partitioning at barriers;
    ``recovery`` (a :class:`repro.engine.recovery.RecoveryConfig`) turns
    on barrier-aligned checkpointing plus worker respawn/adoption by
    replay, and the two combine. A worker loss the run did not recover
    from — a :class:`RecoveryExhaustedError`, or the
    :class:`WorkerCrashError` of ``on_worker_loss="fail"`` or of a run
    without ``recovery`` — is returned as the run's ``error``, with the
    reference kept.
    """
    packets = 4 * scale.http_clients
    lookahead = window_for_mapping(mapping.achieved_mll_s, duration_s)
    spec = udp_spec(net, duration_s, packets=packets, seed=seed)
    # The reference pass is a timing baseline, not an observed run: shield
    # the process-global registry and tracer so the merged multi-process
    # snapshot covers exactly one execution of the workload (the
    # merged-snapshot identity tests depend on this).
    reg = get_registry()
    tracer = get_tracer()
    reg_was, tracer_was = reg.enabled, tracer.enabled
    reg.enabled = False
    tracer.enabled = False
    watch = Stopwatch()
    try:
        ref_engine, reference = run_reference(
            spec, mapping.assignment, mapping.num_engines, lookahead, duration_s
        )
    finally:
        reference_wall_s = watch.elapsed()
        reg.enabled = reg_was
        tracer.enabled = tracer_was
    run = ExecutedParallelRun(
        procs=procs,
        duration_s=duration_s,
        lookahead=lookahead,
        reference=reference,
        reference_wall_s=reference_wall_s,
        reference_events=ref_engine.events_executed,
        cluster=calibrated_cluster(procs, reference_wall_s, ref_engine.events_executed),
        meta={"packets": packets, "seed": seed},
    )
    engine = ParallelConservativeEngine(
        mapping.assignment,
        mapping.num_engines,
        lookahead,
        procs=procs,
        rebalance=rebalance,
        recovery=recovery,
    )
    try:
        result = engine.run_scenario(spec, until=duration_s)
    except (RecoveryExhaustedError, WorkerCrashError) as exc:
        run.error = str(exc)
        return run
    run.result = result
    run.collected = merge_collected(result.collected)
    run.predicted = predict_from_windows(
        result.window_stats, mapping.num_engines, run.cluster, shards=engine.shards
    )
    if result.worker_registries:
        run.merged_trace = merged_trace_snapshot(result)
        run.calibration = window_calibration(
            run.merged_trace.measured,
            {
                ws.window_index: wall
                for ws, wall in zip(result.window_stats, run.predicted.window_wall_s)
            },
        )
        run.merged_registry = merged_registry_snapshot(result)
    return run
