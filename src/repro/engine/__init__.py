"""Discrete-event simulation engines and the cluster cost model.

:class:`SimKernel` is the sequential reference engine (with event-trace
recording); :class:`ShardEngine` is the barrier-synchronized parallel
engine over a node->LP partition — owning every LP, ``run(until)`` runs
it in one process; :class:`ParallelConservativeEngine` executes the same
loop across real worker processes, one ``ShardEngine`` per shard;
:mod:`repro.engine.costmodel` converts either's per-window counters into
modeled wall-clock time.
"""

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
from .windows import LookaheadViolation, WindowStats, iter_windows
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
