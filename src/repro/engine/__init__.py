"""Discrete-event simulation engines and the cluster cost model.

:class:`SimKernel` is the sequential reference engine (with event-trace
recording); :class:`ConservativeEngine` is the barrier-synchronized
parallel engine over a node->LP partition (all LPs in one process);
:class:`ParallelConservativeEngine` executes the same protocol across
real worker processes; :mod:`repro.engine.costmodel` converts either's
per-window counters into modeled wall-clock time.
"""

from .conservative import ConservativeEngine, LookaheadViolation
from .parallel import (
    LocalShardGroup,
    MailOrderError,
    ParallelBackendError,
    ParallelConservativeEngine,
    ParallelRunResult,
    ParallelWorkerError,
    ScenarioSpec,
    ShardEngine,
    ShardScenario,
    UnregisteredHandlerError,
    WorkerCrashError,
    shard_lps,
    validate_mail_batch,
)
from .windows import WindowStats, iter_windows
from .costmodel import (
    WallclockPrediction,
    bucket_event_counts,
    predict_from_trace,
    predict_wallclock,
    remote_send_counts,
    sequential_time_estimate,
)
from .events import Event, EventQueue
from .kernel import SimKernel

__all__ = [
    "Event",
    "EventQueue",
    "SimKernel",
    "ConservativeEngine",
    "LookaheadViolation",
    "WindowStats",
    "iter_windows",
    "ParallelConservativeEngine",
    "ParallelRunResult",
    "ParallelBackendError",
    "ParallelWorkerError",
    "WorkerCrashError",
    "MailOrderError",
    "UnregisteredHandlerError",
    "ScenarioSpec",
    "ShardScenario",
    "ShardEngine",
    "LocalShardGroup",
    "shard_lps",
    "validate_mail_batch",
    "bucket_event_counts",
    "remote_send_counts",
    "predict_wallclock",
    "predict_from_trace",
    "WallclockPrediction",
    "sequential_time_estimate",
]
