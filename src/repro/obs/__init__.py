"""Runtime observability: counts read off their owners, traces and their exporters.

The zero-dependency observability subsystem behind the paper's
profile-based load balancing. A process-global :class:`Registry` reads
the counts its components keep — :class:`~repro.engine.parallel.ShardEngine`
(per-LP event and remote-send counts), the packet simulator (per-node
events, per-link bytes/packets/drops), the coordinator (windows,
rebalance and recovery tallies) and the fault injector (``faults.*``) —
and writes nothing on the hot path. A process-global
:class:`TraceBuffer` keeps individual records (cross-LP edges, measured
worker windows, BGP convergence spans, faults, migrations), one guard
branch per hook point when off. Both are disabled by default.

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
from .counters import Counter, VectorCounter
from .registry import (
    Registry,
    disable,
    enable,
    get_registry,
    observed_run,
    reset,
)
from .timers import Stopwatch
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

