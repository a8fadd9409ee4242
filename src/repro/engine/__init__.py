"""Discrete-event simulation engine and the cluster cost model.

:class:`ShardEngine` is the one engine: the barrier-synchronized
conservative loop over a node->LP partition. Owning every LP,
``run(until)`` runs it in one process; on one LP
(``ShardEngine([0] * num_nodes, 1, lookahead=duration_s)``) it is the
sequential engine — the modeled runs, the PROF profiling run among them,
are the same engine on the trivial partition, recording their event
trace with ``record_trace=True``. :class:`ParallelConservativeEngine`
executes the same loop across real worker processes, one
``ShardEngine`` per shard; :mod:`repro.engine.costmodel` converts the
per-window counters or the recorded trace into modeled wall-clock time.
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

__all__ = [
    "Event",
    "EventQueue",
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
