"""Runtime observability: counters, timers, traces and their exporters.

The zero-dependency instrumentation subsystem behind the paper's
profile-based load balancing. Hook points live in
:class:`~repro.engine.parallel.ShardEngine` (per-LP event and
remote-send counts, barrier-wait spans), the packet simulator
(per-node events, per-link bytes/packets/drops, queue-depth high-water
marks), the fault injector (``faults.*``), and the BGP engine (updates,
decision-process invocations, convergence spans), behind a process-global
:class:`Registry` that reads the counts its components keep and is
disabled by default, costing one guard branch per hook point when off.

Typical use::

    from repro.obs import observed_run, export

    with observed_run() as reg:
        engine, sim = build_run()          # inside: a reset lets go of owners
        engine.run(until=10.0)
    export.write_snapshot("run.json", reg)

The PROF profile of such a run is
:meth:`repro.profilers.TrafficProfile.from_simulation` of its simulator.

See ``docs/observability.md`` for the full catalogue of instruments.
"""

from __future__ import annotations

from . import blame, distributed, export, names, trace_export
from .counters import Counter, Histogram, MaxGauge, VectorCounter
from .registry import (
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
    "Counter",
    "VectorCounter",
    "MaxGauge",
    "Histogram",
    "SpanTimer",
    "Stopwatch",
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

