"""Runtime observability: counters, timers, and the PROF profile bridge.

The zero-dependency instrumentation subsystem behind the paper's
profile-based load balancing. Hook points live in
:class:`~repro.engine.parallel.ShardEngine` (per-LP event and
remote-send counts, barrier-wait spans), the packet simulator
(per-node events, per-link bytes/packets/drops, queue-depth high-water
marks, the Figure 3 rate series), and the BGP engine (updates,
decision-process invocations, convergence spans), behind a process-global
:class:`Registry` that reads the counts its components keep and is
disabled by default, costing one guard branch per hook point when off.

Typical use::

    from repro.obs import observed_run, export, profile_from_registry

    with observed_run() as reg:
        engine, sim = build_run()          # inside: a reset lets go of owners
        engine.run(until=10.0)
    profile = profile_from_registry(10.0, reg)   # feed to PROF/HPROF
    export.write_snapshot("run.json", reg)

See ``docs/observability.md`` for the full catalogue of instruments.
"""

from __future__ import annotations

from . import blame, distributed, export, names, trace_export
from .counters import BinnedSeries, Counter, Histogram, MaxGauge, VectorCounter
from .profile_bridge import profile_from_registry
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
    "trace_export",
]

