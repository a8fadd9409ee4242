"""Runtime observability: counters, timers, and the PROF profile bridge.

The zero-dependency instrumentation subsystem behind the paper's
profile-based load balancing. Hook points live in
:class:`~repro.engine.parallel.ShardEngine` (per-LP event and
remote-send counts, barrier-wait spans), the packet simulator
(per-node events, per-link bytes/packets/drops, queue-depth high-water
marks, the Figure 3 rate series), and the BGP engine (updates,
decision-process invocations, convergence spans). All hooks write
through a process-global :class:`Registry` that is disabled by default
and costs one guard branch per hook point when off.

Typical use::

    from repro.obs import observed_run, export, profile_from_registry

    with observed_run() as reg:
        kernel.run(until=10.0)
    profile = profile_from_registry(10.0, reg)   # feed to PROF/HPROF
    export.write_snapshot("run.json", reg)

See ``docs/observability.md`` for the full catalogue of instruments.
"""

from __future__ import annotations

from . import blame, distributed, export, names, trace_export
from .counters import BinnedSeries, Counter, Histogram, MaxGauge, VectorCounter
from .profile_bridge import profile_from_registry, rate_series_from_registry
from .registry import (
    DEFAULT_BIN_S,
    Registry,
    disable,
    enable,
    get_registry,
    observed_run,
    reset,
)
from .timers import SpanTimer, Stopwatch
from .trace import (
    DEFAULT_TRACE_CAPACITY,
    EdgeRecord,
    SpanRecord,
    TraceBuffer,
    get_tracer,
    traced_run,
)

__all__ = [
    "Registry",
    "get_registry",
    "enable",
    "disable",
    "reset",
    "observed_run",
    "DEFAULT_BIN_S",
    "Counter",
    "VectorCounter",
    "MaxGauge",
    "Histogram",
    "BinnedSeries",
    "SpanTimer",
    "Stopwatch",
    "profile_from_registry",
    "rate_series_from_registry",
    "export",
    "names",
    "TraceBuffer",
    "EdgeRecord",
    "SpanRecord",
    "get_tracer",
    "traced_run",
    "DEFAULT_TRACE_CAPACITY",
    "blame",
    "distributed",
    "whatif",
    "trace_export",
]


def __getattr__(name: str):
    # `whatif` pulls in the mapping pipeline (repro.core); importing it
    # eagerly here would close an import cycle through the instrumented
    # modules (core -> netsim -> obs -> whatif -> core). Resolve lazily.
    if name == "whatif":
        import importlib

        return importlib.import_module(".whatif", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
