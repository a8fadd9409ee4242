"""Distributed observability: ship and merge worker obs state.

The multi-process backend (:mod:`repro.engine.parallel`) runs each shard
in its own OS process, so each worker registers its reads in its own
process-global :class:`~repro.obs.registry.Registry` and records into
its own :class:`~repro.obs.trace.TraceBuffer`. This module is the bridge
that makes a distributed run observable *exactly like* a single-process
one:

- Workers ship their registry and tracer: after the last window a
  worker puts both into the ``("done", ...)`` result envelope, which
  pickles them (a read as its value) over the existing ``mp.Pipe``
  control plane — never inside barrier mail, so a disabled-obs run
  ships *zero* extra bytes
  (``tests/test_obs_overhead.py`` proves byte-identical mail batches).
- :func:`merged_registry_snapshot` / :func:`merged_trace_snapshot` fold
  the controller's own registry / tracer and every worker's into one
  fresh, disabled :class:`~repro.obs.registry.Registry` /
  :class:`~repro.obs.trace.TraceBuffer`, through the owners'
  ``merge_from``: counters and vectors sum, and an all-zero vector is
  the identity whatever its shape. The merge *equals* the
  single-process observed run on the same workload
  (``tests/test_obs_distributed_mp.py`` asserts this for procs 1/2/4
  under both fork and spawn).
- :func:`worker_obs_config` / :func:`configure_worker_observability`
  carry the controller's enablement over the worker-config payload —
  spawn-safe, and explicitly resetting fork-inherited reads and values
  so a worker's registry covers only the worker's own run.
- :func:`window_calibration` compares measured per-window wall-clock
  (the workers' :class:`~repro.obs.trace.MeasuredWindowRecord` spans)
  against the cost model's prediction, per window — the
  measured-vs-modeled table the ``--obs-out`` snapshot embeds as its
  ``calibration`` section.

Everything here runs *after* the simulation (shipping and merging are
cold paths), off the hot path.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from .counters import SnapshotMergeError
from .registry import Registry, get_registry
from .trace import MeasuredWindowRecord, TraceBuffer, get_tracer

__all__ = [
    "SnapshotMergeError",
    "worker_obs_config",
    "configure_worker_observability",
    "merged_registry_snapshot",
    "merged_trace_snapshot",
    "window_calibration",
    "merged_snapshot_document",
]


# ----------------------------------------------------------------------
# Worker-side wiring (controller -> worker enablement) and the merge
# ----------------------------------------------------------------------
def worker_obs_config(
    registry: Registry | None = None,
    tracer: TraceBuffer | None = None,
) -> dict | None:
    """The obs stanza of a worker config — ``None`` when obs is off.

    ``None`` is the whole zero-overhead story: the worker-side code path
    checks one key and, finding nothing, never ships a registry, never
    restarts a stopwatch, and sends byte-identical messages to a build
    without the observability layer.
    """
    reg = registry if registry is not None else get_registry()
    tr = tracer if tracer is not None else get_tracer()
    if not (reg.enabled or tr.enabled):
        return None
    return {
        "registry": reg.enabled,
        "trace": tr.enabled,
        "capacity": tr.capacity,
    }


def configure_worker_observability(config: Mapping[str, Any] | None) -> bool:
    """Apply a :func:`worker_obs_config` stanza inside a worker process.

    Resets the worker's process-global registry and tracer before
    enabling them: under the ``fork`` start method the child inherits
    whatever the parent recorded before the run (e.g. the single-process
    reference pass), and the registry a worker ships must cover only the
    worker's own windows. Returns True when any obs collection is on.
    """
    if not config:
        return False
    reg = get_registry()
    tr = get_tracer()
    reg.reset()
    reg.enabled = bool(config.get("registry", False))
    tr.reset()
    tr.capacity = int(config.get("capacity", tr.capacity))
    tr.enabled = bool(config.get("trace", False))
    return reg.enabled or tr.enabled


def merged_registry_snapshot(result, registry: Registry | None = None) -> Registry:
    """The controller's registry and every worker's, merged.

    ``result`` is a :class:`repro.engine.parallel.ParallelRunResult`;
    its ``worker_registries`` is empty when the run was unobserved, in
    which case this is a copy of the controller's own registry. The
    result is a fresh, disabled :class:`Registry` that shares no array
    with any part.
    """
    controller = registry if registry is not None else get_registry()
    merged = Registry()
    for part in (controller, *result.worker_registries.values()):
        merged.merge_from(part)
    return merged


def merged_trace_snapshot(result, tracer: TraceBuffer | None = None) -> TraceBuffer:
    """The controller's tracer and every worker's, merged (disabled)."""
    controller = tracer if tracer is not None else get_tracer()
    merged = TraceBuffer()
    for part in (controller, *result.worker_traces.values()):
        merged.merge_from(part)
    return merged


# ----------------------------------------------------------------------
# Measured-vs-modeled window calibration
# ----------------------------------------------------------------------
def window_calibration(
    measured: Iterable[MeasuredWindowRecord],
    predicted_by_window: Mapping[int, float],
) -> dict:
    """Per-window measured vs cost-model-predicted wall-clock table.

    A window's *measured* wall is the slowest worker's total span for
    that window (execute + mail encode + barrier wait + mail decode) —
    the barrier semantics make the straggler's span the window's wall.
    The *predicted* wall comes from the caller (the cost model's
    per-window ``max_shard(busy) + C(N)``).
    """
    by_window: dict[int, float] = {}
    for record in measured:
        w = record.window_index
        by_window[w] = max(by_window.get(w, 0.0), record.total_s)
    rows = []
    worst = None
    for w in sorted(by_window):
        if w not in predicted_by_window:
            continue
        measured_s = by_window[w]
        predicted_s = float(predicted_by_window[w])
        ratio = measured_s / predicted_s if predicted_s > 0 else float("inf")
        row = {
            "window": int(w),
            "measured_s": measured_s,
            "predicted_s": predicted_s,
            "ratio": ratio,
        }
        rows.append(row)
        deviation = abs(measured_s - predicted_s)
        if worst is None or deviation > worst[0]:
            worst = (deviation, row)
    measured_total = sum(r["measured_s"] for r in rows)
    predicted_total = sum(r["predicted_s"] for r in rows)
    return {
        "windows": rows,
        "measured_total_s": measured_total,
        "predicted_total_s": predicted_total,
        "overall_ratio": (
            measured_total / predicted_total if predicted_total > 0 else None
        ),
        "worst_window": (
            dict(worst[1], deviation_s=worst[0]) if worst is not None else None
        ),
    }


def merged_snapshot_document(
    registry: Registry,
    trace: TraceBuffer | None = None,
    meta: dict | None = None,
    calibration: dict | None = None,
    shards: Iterable[int] = (),
) -> dict:
    """The ``--obs-out`` JSON document for one distributed run.

    The instrument part is :func:`repro.obs.export.snapshot` over the
    merged registry — the identical schema a single-process run writes —
    extended with provenance (``shards``: the controller, then every
    worker shard id in ``shards``, i.e. those that shipped obs), the
    measured per-window worker spans, and the calibration table.
    """
    from . import export  # deferred: export -> names only, but keep cold

    doc = export.snapshot(registry, meta)
    doc["shards"] = [{"shard_id": None, "label": "controller"}] + [
        {"shard_id": s, "label": f"worker-{s}"} for s in shards
    ]
    if trace is not None:
        doc["measured_windows"] = [
            {
                "window": m.window_index,
                "shard": m.shard_id,
                "execute_s": m.execute_s,
                "barrier_wait_s": m.barrier_wait_s,
                "mail_encode_s": m.mail_encode_s,
                "mail_decode_s": m.mail_decode_s,
                "checkpoint_s": m.checkpoint_s,
                "events": m.events,
                "mail_bytes": m.mail_bytes,
            }
            for m in trace.measured
        ]
    if calibration is not None:
        doc["calibration"] = calibration
    return doc
