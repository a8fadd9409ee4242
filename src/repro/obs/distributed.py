"""Distributed observability: snapshot, ship, and merge worker obs state.

The multi-process backend (:mod:`repro.engine.parallel`) runs each shard
in its own OS process, so each worker accumulates instruments in its own
process-global :class:`~repro.obs.registry.Registry` and records into
its own :class:`~repro.obs.trace.TraceBuffer`. This module is the bridge
that makes a distributed run observable *exactly like* a single-process
one:

- :class:`RegistrySnapshot` / :class:`TraceSnapshot` are picklable,
  shard-labeled captures of a registry / tracer. Workers capture them
  after the last window and ship them inside the ``("done", ...)``
  result envelope over the existing ``mp.Pipe`` control plane — never
  inside barrier mail, so a disabled-obs run ships *zero* extra bytes
  (``tests/test_obs_overhead.py`` proves byte-identical mail batches).
- ``merge`` folds N worker snapshots (plus the controller's own capture)
  into one global snapshot: counters and vectors sum, high-water gauges
  take the element-wise max, histograms add bin-wise
  (:meth:`repro.obs.counters.Histogram.merge_from` — mismatched bounds
  are a typed error, never a silent re-bin), span timers add counts and
  totals, binned series pad to a common length and sum. For
  deterministic instruments the merged snapshot *equals* the
  single-process observed run's snapshot on the same workload
  (``tests/test_obs_distributed_mp.py`` asserts this for procs 1/2/4
  under both fork and spawn).
- :func:`worker_obs_config` / :func:`configure_worker_observability`
  carry the controller's enablement over the worker-config payload —
  spawn-safe, and explicitly resetting fork-inherited instrument values
  so a worker snapshot covers only the worker's own run.
- :class:`CalibrationRecorder` + :func:`window_calibration` compare
  measured per-window wall-clock (the workers'
  :class:`~repro.obs.trace.MeasuredWindowRecord` spans) against the cost
  model's prediction, per window — the measured-vs-modeled table the
  ``--obs-out`` snapshot embeds as its ``calibration`` section.

Everything here runs *after* the simulation (capture, merge, restore are
cold paths); the hot-path contract of the obs layer — one guard branch,
no writes when disabled — is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

import numpy as np

from . import names as _names
from .counters import HistogramMergeError
from .registry import Registry, get_registry
from .trace import (
    EdgeRecord,
    FaultRecord,
    MeasuredWindowRecord,
    RebalanceRecord,
    RecoveryRecord,
    SpanRecord,
    TraceBuffer,
    WindowRecord,
    get_tracer,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .counters import Histogram

__all__ = [
    "SnapshotMergeError",
    "RegistrySnapshot",
    "TraceSnapshot",
    "worker_obs_config",
    "configure_worker_observability",
    "merged_registry_snapshot",
    "merged_trace_snapshot",
    "CalibrationRecorder",
    "window_calibration",
    "merged_snapshot_document",
    "CALIBRATION_RATIO_BOUNDS",
]


class SnapshotMergeError(ValueError):
    """Two snapshots disagree structurally and cannot merge losslessly."""


def _merge_histogram(
    name: str,
    a: tuple[tuple[float, ...], np.ndarray, float],
    b: tuple[tuple[float, ...], np.ndarray, float],
) -> tuple[tuple[float, ...], np.ndarray, float]:
    bounds_a, counts_a, sum_a = a
    bounds_b, counts_b, sum_b = b
    if bounds_a != bounds_b:
        raise HistogramMergeError(
            f"histogram {name!r} bounds {bounds_a} cannot merge "
            f"with bounds {bounds_b}"
        )
    return (bounds_a, counts_a + counts_b, sum_a + sum_b)


def _pad_bins(matrix: np.ndarray, num_bins: int, size: int) -> np.ndarray:
    if matrix.shape[0] == num_bins:
        return matrix
    out = np.zeros((num_bins, size), dtype=np.float64)
    out[: matrix.shape[0]] = matrix
    return out


@dataclass(frozen=True)
class RegistrySnapshot:
    """A picklable, mergeable capture of every instrument in a registry.

    ``provenance`` records where the values came from — one
    ``{"shard_id": ..., "label": ...}`` entry per contributing capture,
    concatenated in merge order — so a merged global snapshot still says
    which workers fed it.
    """

    provenance: tuple[dict, ...]
    counters: dict[str, float]
    vectors: dict[str, np.ndarray]
    gauges: dict[str, np.ndarray]
    #: name -> (bounds, per-bucket counts incl. overflow, value sum)
    histograms: dict[str, tuple[tuple[float, ...], np.ndarray, float]]
    #: name -> (span count, total seconds)
    timers: dict[str, tuple[int, float]]
    #: name -> (size, bin_s, [num_bins, size] matrix)
    series: dict[str, tuple[int, float, np.ndarray]]

    @classmethod
    def capture(
        cls,
        registry: Registry | None = None,
        shard_id: int | None = None,
        label: str = "",
    ) -> "RegistrySnapshot":
        """Copy every instrument of ``registry`` into plain data."""
        reg = registry if registry is not None else get_registry()
        return cls(
            provenance=({"shard_id": shard_id, "label": label},),
            counters={n: c.value for n, c in reg.counters().items()},
            vectors={n: v.values.copy() for n, v in reg.vectors().items()},
            gauges={n: g.values.copy() for n, g in reg.gauges().items()},
            histograms={
                n: (h.bounds, h.counts.copy(), h.sum)
                for n, h in reg.histograms().items()
            },
            timers={n: (t.count, t.total_s) for n, t in reg.timers().items()},
            series={
                n: (s.size, s.bin_s, s.matrix())
                for n, s in reg.series_map().items()
            },
        )

    @classmethod
    def merge(cls, snapshots: Sequence["RegistrySnapshot"]) -> "RegistrySnapshot":
        """Fold N captures into one global snapshot (see module doc)."""
        provenance: list[dict] = []
        counters: dict[str, float] = {}
        vectors: dict[str, np.ndarray] = {}
        gauges: dict[str, np.ndarray] = {}
        histograms: dict[str, tuple[tuple[float, ...], np.ndarray, float]] = {}
        timers: dict[str, tuple[int, float]] = {}
        series: dict[str, tuple[int, float, np.ndarray]] = {}
        for snap in snapshots:
            provenance.extend(dict(p) for p in snap.provenance)
            for name, value in snap.counters.items():
                counters[name] = counters.get(name, 0.0) + value
            for name, values in snap.vectors.items():
                prev = vectors.get(name)
                if prev is None:
                    vectors[name] = values.copy()
                elif prev.shape != values.shape:
                    raise SnapshotMergeError(
                        f"vector {name!r} size {values.shape[0]} != "
                        f"merged size {prev.shape[0]}"
                    )
                else:
                    prev += values
            for name, values in snap.gauges.items():
                prev = gauges.get(name)
                if prev is None:
                    gauges[name] = values.copy()
                elif prev.shape != values.shape:
                    raise SnapshotMergeError(
                        f"gauge {name!r} size {values.shape[0]} != "
                        f"merged size {prev.shape[0]}"
                    )
                else:
                    np.maximum(prev, values, out=prev)
            for name, hist in snap.histograms.items():
                prev_h = histograms.get(name)
                if prev_h is None:
                    histograms[name] = (hist[0], hist[1].copy(), hist[2])
                else:
                    histograms[name] = _merge_histogram(name, prev_h, hist)
            for name, (count, total_s) in snap.timers.items():
                pc, pt = timers.get(name, (0, 0.0))
                timers[name] = (pc + count, pt + total_s)
            for name, (size, bin_s, matrix) in snap.series.items():
                prev_s = series.get(name)
                if prev_s is None:
                    series[name] = (size, bin_s, matrix.copy())
                    continue
                psize, pbin, pmatrix = prev_s
                if psize != size or pbin != bin_s:
                    raise SnapshotMergeError(
                        f"series {name!r} shape (size={size}, bin_s={bin_s}) "
                        f"!= merged (size={psize}, bin_s={pbin})"
                    )
                bins = max(pmatrix.shape[0], matrix.shape[0])
                series[name] = (
                    size,
                    bin_s,
                    _pad_bins(pmatrix, bins, size) + _pad_bins(matrix, bins, size),
                )
        return cls(
            provenance=tuple(provenance),
            counters=counters,
            vectors=vectors,
            gauges=gauges,
            histograms=histograms,
            timers=timers,
            series=series,
        )

    def restore(self, bin_s: float | None = None) -> Registry:
        """Materialize a *disabled* :class:`Registry` holding these values.

        The restored registry plugs straight into ``obs.export`` — JSON
        snapshots and Prometheus exposition of a merged distributed run
        go through exactly the same code path as a single-process run.
        """
        reg = Registry(enabled=True) if bin_s is None else Registry(True, bin_s)
        for name, value in self.counters.items():
            reg.counter(name).inc(value)
        for name, values in self.vectors.items():
            reg.vector_counter(name, int(values.shape[0])).add_array(values)
        for name, values in self.gauges.items():
            gauge = reg.max_gauge(name, int(values.shape[0]))
            for i, v in enumerate(values):
                gauge.observe(i, float(v))
        for name, (bounds, counts, total) in self.histograms.items():
            hist = reg.histogram(name, bounds)
            hist._counts[:] = counts
            hist._sum = total
        for name, (count, total_s) in self.timers.items():
            timer = reg.timer(name)
            timer._count = int(count)
            timer._total_s = float(total_s)
        for name, (size, bin_s_i, matrix) in self.series.items():
            inst = reg.series(name, size, bin_s_i)
            inst._bins = [matrix[b].copy() for b in range(matrix.shape[0])]
        reg.disable()
        return reg


def _fault_key(record: FaultRecord) -> tuple:
    return (
        record.time,
        record.kind,
        record.phase,
        record.target,
        repr(sorted(record.detail.items(), key=lambda kv: kv[0])),
    )


@dataclass(frozen=True)
class TraceSnapshot:
    """A picklable, mergeable capture of every trace channel."""

    provenance: tuple[dict, ...]
    windows: tuple[WindowRecord, ...]
    edges: tuple[EdgeRecord, ...]
    spans: tuple[SpanRecord, ...]
    events: tuple[tuple[float, int], ...]
    transmissions: tuple[tuple[float, int, int], ...]
    faults: tuple[FaultRecord, ...]
    measured: tuple[MeasuredWindowRecord, ...]
    dropped_records: int
    #: accepted mid-run LP migrations (controller-recorded, so merging
    #: concatenates without deduplication)
    rebalance: tuple[RebalanceRecord, ...] = ()
    #: fault-tolerance actions (controller-recorded, like rebalance)
    recovery: tuple[RecoveryRecord, ...] = ()

    @classmethod
    def capture(
        cls,
        tracer: TraceBuffer | None = None,
        shard_id: int | None = None,
        label: str = "",
    ) -> "TraceSnapshot":
        """Copy every retained record of ``tracer`` into plain data."""
        tr = tracer if tracer is not None else get_tracer()
        return cls(
            provenance=({"shard_id": shard_id, "label": label},),
            windows=tuple(tr.windows),
            edges=tuple(tr.edges),
            spans=tuple(tr.spans),
            events=tuple(tr.events),
            transmissions=tuple(tr.transmissions),
            faults=tuple(tr.faults),
            measured=tuple(tr.measured),
            dropped_records=tr.dropped_records,
            rebalance=tuple(tr.rebalance),
            recovery=tuple(tr.recovery),
        )

    @classmethod
    def merge(cls, snapshots: Sequence["TraceSnapshot"]) -> "TraceSnapshot":
        """Fold N worker traces into one global trace.

        Window records with the same index sum their per-LP vectors —
        each worker records the full-width arrays with only its owned
        columns nonzero, so the grouped sum reproduces the
        single-process record exactly (window bounds must agree; a
        mismatch raises :class:`SnapshotMergeError`). Point channels
        (edges, events, transmissions) concatenate under a deterministic
        sort by simulated time; faults are deduplicated because every
        worker may replay the same control-plane schedule.
        """
        provenance: list[dict] = []
        by_window: dict[int, WindowRecord] = {}
        edges: list[EdgeRecord] = []
        spans: list[SpanRecord] = []
        events: list[tuple[float, int]] = []
        transmissions: list[tuple[float, int, int]] = []
        faults: dict[tuple, FaultRecord] = {}
        measured: list[MeasuredWindowRecord] = []
        rebalance: list[RebalanceRecord] = []
        recovery: list[RecoveryRecord] = []
        dropped = 0
        for snap in snapshots:
            provenance.extend(dict(p) for p in snap.provenance)
            dropped += snap.dropped_records
            for w in snap.windows:
                prev = by_window.get(w.window_index)
                if prev is None:
                    by_window[w.window_index] = w
                    continue
                if prev.start != w.start or prev.end != w.end:
                    raise SnapshotMergeError(
                        f"window {w.window_index} bounds "
                        f"({w.start}, {w.end}) != ({prev.start}, {prev.end})"
                    )
                if prev.num_lps != w.num_lps:
                    raise SnapshotMergeError(
                        f"window {w.window_index} has {w.num_lps} LPs, "
                        f"merged record has {prev.num_lps}"
                    )
                by_window[w.window_index] = WindowRecord(
                    w.window_index,
                    w.start,
                    w.end,
                    prev.events_per_lp + w.events_per_lp,
                    prev.remote_per_lp + w.remote_per_lp,
                )
            edges.extend(snap.edges)
            spans.extend(snap.spans)
            events.extend(snap.events)
            transmissions.extend(snap.transmissions)
            for f in snap.faults:
                faults.setdefault(_fault_key(f), f)
            measured.extend(snap.measured)
            rebalance.extend(snap.rebalance)
            recovery.extend(snap.recovery)
        edges.sort(key=lambda e: (e.send_time, e.src_lp, e.dst_lp, e.deliver_time))
        spans.sort(key=lambda s: (s.start_s, s.end_s, s.kind))
        events.sort()
        transmissions.sort()
        measured.sort(key=lambda m: (m.window_index, m.shard_id))
        rebalance.sort(key=lambda r: (r.window_index, r.lp))
        recovery.sort(key=lambda r: (r.window_index, r.shard_id, r.kind))
        return cls(
            provenance=tuple(provenance),
            windows=tuple(
                by_window[i] for i in sorted(by_window)
            ),
            edges=tuple(edges),
            spans=tuple(spans),
            events=tuple(events),
            transmissions=tuple(transmissions),
            faults=tuple(
                faults[k] for k in sorted(faults, key=lambda k: (k[0], k[1], k[2]))
            ),
            measured=tuple(measured),
            dropped_records=dropped,
            rebalance=tuple(rebalance),
            recovery=tuple(recovery),
        )

    def restore(self, capacity: int | None = None) -> TraceBuffer:
        """Materialize a *disabled* :class:`TraceBuffer` with these records.

        The restored buffer feeds ``obs.blame`` and
        ``obs.trace_export`` unchanged — ``repro trace --timeline`` on a
        merged distributed trace is the same code path as single-process.
        """
        cap = capacity if capacity is not None else max(
            len(self.windows), len(self.edges), len(self.spans),
            len(self.events), len(self.transmissions), len(self.faults),
            len(self.measured), len(self.rebalance), len(self.recovery), 1,
        )
        tr = TraceBuffer(capacity=cap, enabled=False)
        tr.windows.extend(self.windows)
        tr.edges.extend(self.edges)
        tr.spans.extend(self.spans)
        tr.events.extend(self.events)
        tr.transmissions.extend(self.transmissions)
        tr.faults.extend(self.faults)
        tr.measured.extend(self.measured)
        tr.rebalance.extend(self.rebalance)
        tr.recovery.extend(self.recovery)
        tr.dropped_records = self.dropped_records
        return tr


# ----------------------------------------------------------------------
# Worker-side wiring (controller -> worker enablement, worker -> capture)
# ----------------------------------------------------------------------
def worker_obs_config(
    registry: Registry | None = None,
    tracer: TraceBuffer | None = None,
) -> dict | None:
    """The obs stanza of a worker config — ``None`` when obs is off.

    ``None`` is the whole zero-overhead story: the worker-side code path
    checks one key and, finding nothing, never imports a snapshot, never
    restarts a stopwatch, and sends byte-identical messages to a build
    without the observability layer.
    """
    reg = registry if registry is not None else get_registry()
    tr = tracer if tracer is not None else get_tracer()
    if not (reg.enabled or tr.enabled):
        return None
    return {
        "registry": reg.enabled,
        "bin_s": reg.bin_s,
        "trace": tr.enabled,
        "capacity": tr.capacity,
    }


def configure_worker_observability(config: Mapping[str, Any] | None) -> bool:
    """Apply a :func:`worker_obs_config` stanza inside a worker process.

    Clears the worker's process-global registry and tracer before
    enabling them: under the ``fork`` start method the child inherits
    whatever the parent recorded before the run (e.g. the single-process
    reference pass), and a worker snapshot must cover only the worker's
    own windows. Returns True when any obs collection is on.
    """
    if not config:
        return False
    reg = get_registry()
    tr = get_tracer()
    reg.clear()
    reg.bin_s = float(config.get("bin_s", reg.bin_s))
    reg.enabled = bool(config.get("registry", False))
    tr.reset()
    tr.capacity = int(config.get("capacity", tr.capacity))
    tr.enabled = bool(config.get("trace", False))
    return reg.enabled or tr.enabled


def merged_registry_snapshot(
    result, registry: Registry | None = None, label: str = "controller"
) -> RegistrySnapshot:
    """Controller capture + every worker snapshot, merged.

    ``result`` is a :class:`repro.engine.parallel.ParallelRunResult`;
    its ``registry_snapshots`` list is empty when the run was unobserved,
    in which case this is just the controller's own (empty) capture.
    """
    controller = RegistrySnapshot.capture(registry, shard_id=None, label=label)
    return RegistrySnapshot.merge([controller, *result.registry_snapshots])


def merged_trace_snapshot(
    result, tracer: TraceBuffer | None = None, label: str = "controller"
) -> TraceSnapshot:
    """Controller trace capture + every worker trace snapshot, merged."""
    controller = TraceSnapshot.capture(tracer, shard_id=None, label=label)
    return TraceSnapshot.merge([controller, *result.trace_snapshots])


# ----------------------------------------------------------------------
# Measured-vs-modeled window calibration
# ----------------------------------------------------------------------
#: Ratio-histogram bucket bounds: measured/predicted per window. A
#: perfectly calibrated cost model concentrates mass around the 1.0
#: buckets; the tails say which direction the model is wrong.
CALIBRATION_RATIO_BOUNDS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 10.0)


class CalibrationRecorder:
    """Registers and feeds the ``calibration.*`` instruments.

    Instruments resolve once at construction (the registry contract);
    :meth:`record` is guarded per instrument, so an unobserved
    calibration pass writes nothing.
    """

    def __init__(self, registry: Registry | None = None) -> None:
        reg = registry if registry is not None else get_registry()
        self._windows = reg.counter(_names.CALIBRATION_WINDOWS)
        self._measured = reg.counter(_names.CALIBRATION_MEASURED_WALL)
        self._predicted = reg.counter(_names.CALIBRATION_PREDICTED_WALL)
        self._ratio = reg.histogram(
            _names.CALIBRATION_RATIO, CALIBRATION_RATIO_BOUNDS
        )

    def record(self, measured_s: float, predicted_s: float) -> None:
        """Record one window's measured and predicted wall-clock."""
        self._windows.inc()
        self._measured.inc(float(measured_s))
        self._predicted.inc(float(predicted_s))
        if predicted_s > 0:
            self._ratio.observe(float(measured_s) / float(predicted_s))


def window_calibration(
    measured: Iterable[MeasuredWindowRecord],
    predicted_by_window: Mapping[int, float],
    registry: Registry | None = None,
) -> dict:
    """Per-window measured vs cost-model-predicted wall-clock table.

    A window's *measured* wall is the slowest worker's total span for
    that window (execute + mail encode + barrier wait + mail decode) —
    the barrier semantics make the straggler's span the window's wall.
    The *predicted* wall comes from the caller (the cost model's
    per-window ``max_shard(busy) + C(N)``). Also feeds the
    ``calibration.*`` instruments of ``registry`` so the numbers appear
    in the merged snapshot / Prometheus exposition.
    """
    by_window: dict[int, float] = {}
    for record in measured:
        w = record.window_index
        by_window[w] = max(by_window.get(w, 0.0), record.total_s)
    recorder = CalibrationRecorder(registry)
    rows = []
    worst = None
    for w in sorted(by_window):
        if w not in predicted_by_window:
            continue
        measured_s = by_window[w]
        predicted_s = float(predicted_by_window[w])
        recorder.record(measured_s, predicted_s)
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
    registry_snapshot: RegistrySnapshot,
    trace_snapshot: TraceSnapshot | None = None,
    meta: dict | None = None,
    calibration: dict | None = None,
) -> dict:
    """The ``--obs-out`` JSON document for one distributed run.

    The instrument part is :func:`repro.obs.export.snapshot` over the
    merged snapshot's restored registry — the identical schema a
    single-process run writes — extended with per-shard provenance,
    the measured per-window worker spans, and the calibration table.
    """
    from . import export  # deferred: export -> names only, but keep cold

    doc = export.snapshot(registry_snapshot.restore(), meta)
    doc["shards"] = [dict(p) for p in registry_snapshot.provenance]
    if trace_snapshot is not None:
        doc["measured_windows"] = [
            {
                "window": m.window_index,
                "shard": m.shard_id,
                "execute_s": m.execute_s,
                "barrier_wait_s": m.barrier_wait_s,
                "mail_encode_s": m.mail_encode_s,
                "mail_decode_s": m.mail_decode_s,
                "events": m.events,
                "mail_bytes": m.mail_bytes,
            }
            for m in trace_snapshot.measured
        ]
    if calibration is not None:
        doc["calibration"] = calibration
    return doc
