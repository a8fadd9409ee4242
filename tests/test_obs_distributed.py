"""Unit tests for the distributed observability layer (``obs.distributed``).

The owners' ``merge_from`` per instrument kind and per trace channel (the
empty-instrument identity, typed errors that leave the target untouched,
a hypothesis property that k merged parts equal one sink), a registry
and a tracer over the wire codec, measured blame decomposition,
measured-vs-modeled calibration, the ``--obs-out`` document, and a
source guard on instrument state — all pure in-process, no worker
processes. The end-to-end merge-identity proof lives in
``tests/test_obs_distributed_mp.py``.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serialization as ser
from repro.cluster import teragrid_cluster
from repro.engine.windows import WindowStats
from repro.obs import blame, export, names, trace_export
from repro.obs.counters import HistogramMergeError
from repro.obs.distributed import (
    CALIBRATION_RATIO_BOUNDS,
    CalibrationRecorder,
    SnapshotMergeError,
    configure_worker_observability,
    merged_registry_snapshot,
    merged_snapshot_document,
    merged_trace_snapshot,
    window_calibration,
    worker_obs_config,
)
from repro.obs.registry import Registry
from repro.obs.trace import MeasuredWindowRecord, TraceBuffer

BOUNDS = (1.0, 2.0, 4.0)
CLUSTER = teragrid_cluster(2)
SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def populated_registry(scale: float = 1.0) -> Registry:
    """A registry with one instrument of every kind, scaled values."""
    reg = Registry(enabled=True)
    reg.counter("c.events").inc(10 * scale)
    vec = reg.vector_counter("v.per_lp", 4)
    vec.add_array(np.array([1.0, 2.0, 3.0, 4.0]) * scale)
    gauge = reg.max_gauge("g.depth", 3)
    gauge.observe(0, 5.0 * scale)
    gauge.observe(2, 1.0 * scale)
    hist = reg.histogram("h.wait", BOUNDS)
    hist.observe(0.5 * scale)
    hist.observe(3.0 * scale)
    timer = reg.timer("t.span")
    timer.add(0.25 * scale)
    return reg


def merged(*parts: Registry) -> Registry:
    out = Registry()
    for part in parts:
        out.merge_from(part)
    return out


class FakeResult:
    """The two fields of ``ParallelRunResult`` the merge reads."""

    def __init__(self, registries=(), traces=()):
        self.worker_registries = dict(enumerate(registries))
        self.worker_traces = dict(enumerate(traces))


class TestRegistryCopy:
    def test_merge_into_empty_copies_every_instrument_kind(self):
        reg = merged(populated_registry())
        assert reg.get_counter("c.events").value == 10.0
        assert reg.get_vector("v.per_lp").values.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert reg.get_gauge("g.depth").values.tolist() == [5.0, 0.0, 1.0]
        hist = reg.get_histogram("h.wait")
        assert hist.bounds == BOUNDS
        assert hist.counts.tolist() == [1, 0, 1, 0]
        assert hist.sum == 3.5
        timer = reg.get_timer("t.span")
        assert (timer.count, timer.total_s) == (1, 0.25)

    def test_merge_is_a_copy_not_a_view(self):
        reg = populated_registry()
        copy = merged(reg)
        reg.get_counter("c.events").inc(99)
        reg.get_vector("v.per_lp").inc(0, 99)
        reg.get_histogram("h.wait").observe(0.5)
        assert copy.get_counter("c.events").value == 10.0
        assert copy.get_vector("v.per_lp").values[0] == 1.0
        assert copy.get_histogram("h.wait").count == 2
        # ...and the copy records into its own registry, not the part's
        assert copy.get_counter("c.events")._reg is copy

    def test_pickle_round_trip_over_the_wire_codec(self):
        reg = populated_registry()
        back = ser.decode_payload(ser.encode_payload(reg))
        assert export.snapshot(back) == export.snapshot(reg)
        assert back.get_vector("v.per_lp").values is not reg.get_vector("v.per_lp").values

    def test_tracer_round_trips_over_the_wire_codec(self):
        tr = tracer_with([measured(0, 1, 0.5)])
        back = ser.decode_payload(ser.encode_payload(tr))
        assert list(back.measured) == list(tr.measured)
        assert back.measured is not tr.measured


class TestRegistryMerge:
    def test_merge_semantics_per_kind(self):
        out = merged(populated_registry(1.0), populated_registry(2.0))
        # counters / vectors / histograms / timers sum
        assert out.get_counter("c.events").value == 30.0
        assert out.get_vector("v.per_lp").values.tolist() == [3.0, 6.0, 9.0, 12.0]
        # scale=1 observed (0.5, 3.0) -> [1,0,1,0]; scale=2 observed
        # (1.0, 6.0) -> [1,0,0,1] (bounds are upper-inclusive)
        hist = out.get_histogram("h.wait")
        assert hist.counts.tolist() == [2, 0, 1, 1]
        assert hist.sum == 3.5 + 7.0
        timer = out.get_timer("t.span")
        assert (timer.count, timer.total_s) == (2, 0.75)
        # high-water gauges take the element-wise max
        assert out.get_gauge("g.depth").values.tolist() == [10.0, 0.0, 2.0]
        assert not out.enabled

    def test_merge_handles_disjoint_instruments(self):
        reg = Registry(enabled=True)
        reg.counter("only.here").inc(7)
        out = merged(reg, populated_registry())
        assert out.get_counter("only.here").value == 7.0
        assert out.get_counter("c.events").value == 10.0

    def test_vector_size_mismatch_is_a_typed_error(self):
        ra, rb = Registry(enabled=True), Registry(enabled=True)
        ra.vector_counter("v", 2).inc(0)
        rb.vector_counter("v", 3).inc(0)
        with pytest.raises(SnapshotMergeError, match="vector 'v'"):
            merged(ra, rb)

    def test_histogram_bounds_mismatch_is_a_typed_error(self):
        ra, rb = Registry(enabled=True), Registry(enabled=True)
        ra.histogram("h", (1.0, 2.0)).observe(0.5)
        rb.histogram("h", (1.0, 3.0)).observe(0.5)
        with pytest.raises(HistogramMergeError, match="histogram 'h' bounds"):
            merged(ra, rb)

    def test_merged_registry_snapshot_is_disabled(self):
        reg = merged_registry_snapshot(FakeResult([populated_registry()]), Registry())
        assert not reg.enabled
        reg.get_counter("c.events").inc()  # guarded: must be a no-op
        assert reg.get_counter("c.events").value == 10.0


class TestEmptyIsTheIdentity:
    """An instrument that holds nothing merges away whatever its shape."""

    def test_stale_zero_vector_takes_the_workers_size(self):
        controller, worker = Registry(enabled=True), Registry(enabled=True)
        controller.vector_counter("v", 12)  # zeroed, from a bigger network
        controller.max_gauge("g", 12)
        worker.vector_counter("v", 8).inc(3, 2.0)
        worker.max_gauge("g", 8).observe(5, 4.0)
        out = merged(controller, worker)
        assert out.get_vector("v").values.tolist() == [0, 0, 0, 2.0, 0, 0, 0, 0]
        assert out.get_gauge("g").size == 8
        # and the other way round: a zeroed part changes nothing
        again = merged(worker, controller)
        assert export.snapshot(again) == export.snapshot(out)

    def test_empty_histogram_takes_the_other_bounds(self):
        ra, rb = Registry(enabled=True), Registry(enabled=True)
        ra.histogram("h", (9.0,))
        rb.histogram("h", BOUNDS).observe(3.0)
        for out in (merged(ra, rb), merged(rb, ra)):
            hist = out.get_histogram("h")
            assert hist.bounds == BOUNDS and hist.counts.tolist() == [0, 0, 1, 0]

    @pytest.mark.parametrize("kind", ["vector", "gauge", "histogram"])
    def test_disagreeing_instruments_raise_without_mutating(self, kind):
        ra, rb = Registry(enabled=True), Registry(enabled=True)
        if kind == "vector":
            ra.vector_counter("x", 2).inc(0)
            rb.vector_counter("x", 3).inc(0)
        elif kind == "gauge":
            ra.max_gauge("x", 2).observe(0, 1.0)
            rb.max_gauge("x", 3).observe(0, 1.0)
        else:
            ra.histogram("x", (1.0,)).observe(0.5)
            rb.histogram("x", (2.0,)).observe(0.5)
        before = export.snapshot(ra)
        with pytest.raises(SnapshotMergeError):
            ra.merge_from(rb)
        assert export.snapshot(ra) == before


class TestHistogramMergeExact:
    """Satellite: bin-wise-exact histogram merging at the instrument level."""

    def test_same_bounds_merge_is_binwise_sum(self):
        ra, rb = Registry(enabled=True), Registry(enabled=True)
        ha = ra.histogram("h", BOUNDS)
        hb = rb.histogram("h", BOUNDS)
        for v in (0.5, 1.5, 3.0, 100.0):
            ha.observe(v)
        for v in (0.2, 8.0):
            hb.observe(v)
        ha.merge_from(hb)
        assert ha.counts.tolist() == [2, 1, 1, 2]
        assert ha.count == 6
        assert ha.sum == pytest.approx(113.2)

    def test_mismatched_bounds_raise_without_mutating(self):
        ra, rb = Registry(enabled=True), Registry(enabled=True)
        ha = ra.histogram("h", BOUNDS)
        ha.observe(0.5)
        hb = rb.histogram("h", (9.0,))
        hb.observe(0.5)
        before = ha.counts.copy()
        with pytest.raises(HistogramMergeError):
            ha.merge_from(hb)
        assert ha.counts.tolist() == before.tolist()

    def test_quantile_correct_on_merged_data(self):
        # 50 values below 1.0 in one histogram, 50 above 4.0 in the other:
        # the merged median sits exactly at the 1.0 boundary.
        ra, rb = Registry(enabled=True), Registry(enabled=True)
        ha = ra.histogram("h", BOUNDS)
        hb = rb.histogram("h", BOUNDS)
        for _ in range(50):
            ha.observe(0.5)
            hb.observe(5.0)
        ha.merge_from(hb)
        assert ha.quantile(0.5) == pytest.approx(1.0)
        assert ha.quantile(0.25) <= 1.0
        assert ha.quantile(0.9) >= 4.0


def measured(w, shard, execute, wait=0.0, encode=0.0, decode=0.0, events=10, mb=0):
    return MeasuredWindowRecord(w, shard, execute, wait, encode, decode, events, mb)


def tracer_with(records, capacity=64) -> TraceBuffer:
    tr = TraceBuffer(capacity=capacity, enabled=True)
    for r in records:
        tr.measured_window(
            r.window_index, r.shard_id, r.execute_s, r.barrier_wait_s,
            r.mail_encode_s, r.mail_decode_s, r.events, r.mail_bytes,
        )
    tr.disable()
    return tr


def merged_trace(*parts: TraceBuffer) -> TraceBuffer:
    return merged_trace_snapshot(FakeResult(traces=parts), TraceBuffer())


class TestTraceBufferMerge:
    def test_measured_records_sort_by_window_then_shard(self):
        ta = tracer_with([measured(1, 1, 0.2), measured(0, 1, 0.1)])
        tb = tracer_with([measured(0, 0, 0.3)])
        out = merged_trace(ta, tb)
        assert [(m.window_index, m.shard_id) for m in out.measured] == [
            (0, 0), (0, 1), (1, 1),
        ]
        assert not out.enabled

    def test_replayed_faults_deduplicate(self):
        ta = tracer_with([])
        tb = tracer_with([])
        for tr in (ta, tb):
            tr.enable()
            tr.fault(1.0, "link_down", "inject", (3, 4))
            tr.disable()
        assert len(merged_trace(ta, tb).faults) == 1

    def test_merged_buffer_feeds_the_blame_pipeline(self):
        tr = merged_trace(
            tracer_with([measured(0, 0, 0.5, wait=0.1)]),
            tracer_with([measured(0, 1, 0.2, wait=0.4)]),
        )
        rows = [WindowStats(0, 0.0, 1.0, np.zeros(2), np.zeros(2))]
        report = blame.analyze(rows, tr, num_units=2)
        assert report.num_units == 2
        assert report.num_windows == 1
        assert report.extras["execute"].tolist() == [0.5, 0.2]
        # Both totals are 0.6 s; the straggler is the busier shard 0, and
        # the critical path is its busy time.
        assert report.straggler_windows.tolist() == [1, 0]
        assert report.critical_s == pytest.approx(0.5)
        table = blame.format_blame_table(report)
        assert "shard" in table and "execute (ms)" in table


# ----------------------------------------------------------------------
# Property: k merged parts equal one sink that saw every write
# ----------------------------------------------------------------------
SIZE = 4
#: one integer-valued write: (part, kind, index, value)
WRITE = st.tuples(
    st.integers(0, 3),
    st.sampled_from(
        ["counter", "vector", "gauge", "histogram", "timer", "measured", "edge"]
    ),
    st.integers(0, SIZE - 1),
    st.integers(0, 6),
)


def apply_write(reg: Registry, tr: TraceBuffer, kind: str, i: int, v: int) -> None:
    if kind == "counter":
        reg.counter("c").inc(v)
    elif kind == "vector":
        reg.vector_counter("v", SIZE).inc(i, v)
    elif kind == "gauge":
        reg.max_gauge("g", SIZE).observe(i, v)
    elif kind == "histogram":
        reg.histogram("h", BOUNDS).observe(v)
    elif kind == "timer":
        reg.timer("t").add(v)
    elif kind == "measured":
        tr.measured_window(v, i, float(v), 1.0, 0.0, 0.0, v)
    else:
        tr.edge(i, (i + 1) % SIZE, float(v), float(v) + 1.0)


def channels(tr: TraceBuffer) -> dict:
    """Every channel as comparable plain data."""
    return {name: list(getattr(tr, name)) for name, _ in TraceBuffer.CHANNELS}


def scribble(reg: Registry) -> None:
    """Bump, in place, every array a part owns."""
    for inst in (*reg.vectors().values(), *reg.gauges().values()):
        inst.values[:] += 1
    for hist in reg.histograms().values():
        hist.counts[:] += 1


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 4),
    writes=st.lists(WRITE, max_size=40),
    faults=st.lists(st.tuples(st.integers(0, 5), st.integers(0, SIZE - 1)), max_size=4),
)
def test_merged_parts_equal_one_sink(k, writes, faults):
    parts = [(Registry(True), TraceBuffer(1024, True)) for _ in range(k)]
    sink_reg, sink_tr = Registry(True), TraceBuffer(1024, True)
    for part, kind, i, v in writes:
        apply_write(*parts[part % k], kind, i, v)
        apply_write(sink_reg, sink_tr, kind, i, v)
    for t, node in faults:
        sink_tr.fault(float(t), "node.down", "inject", (node,), attempt=1)
        for _, tr in parts:  # every worker replays the control plane
            tr.fault(float(t), "node.down", "inject", (node,), attempt=1)

    result = FakeResult([reg for reg, _ in parts], [tr for _, tr in parts])
    reg = merged_registry_snapshot(result, Registry())
    tr = merged_trace_snapshot(result, TraceBuffer())
    sink_order = TraceBuffer()
    sink_order.merge_from(sink_tr)  # the sink's records in merge order

    assert export.snapshot(reg) == export.snapshot(sink_reg)
    assert channels(tr) == channels(sink_order)
    # The merge shares no array with any part.
    before = (export.snapshot(reg), channels(tr))
    for part, _ in parts:
        scribble(part)
    assert (export.snapshot(reg), channels(tr)) == before


# ----------------------------------------------------------------------
# Source guard: an instrument's state is named only where it is defined
# ----------------------------------------------------------------------
_INSTRUMENT_STATE = {"_value", "_values", "_counts", "_sum", "_count", "_total_s"}
_DEFINING_MODULES = {"obs/counters.py", "obs/timers.py"}


def test_only_the_defining_module_names_instrument_state():
    stray = [
        f"{path.relative_to(SRC)}:{node.lineno} .{node.attr}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() not in _DEFINING_MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in _INSTRUMENT_STATE
    ]
    assert not stray, f"instrument state named outside its class: {stray}"


class TestWorkerObsConfig:
    def test_disabled_registry_and_tracer_yield_none(self):
        reg = Registry(enabled=False)
        tr = TraceBuffer(capacity=4, enabled=False)
        assert worker_obs_config(reg, tr) is None

    def test_enabled_stanza_carries_settings(self):
        reg = Registry(enabled=True)
        tr = TraceBuffer(capacity=128, enabled=True)
        cfg = worker_obs_config(reg, tr)
        assert cfg == {
            "registry": True,
            "trace": True,
            "capacity": 128,
        }

    def test_configure_none_is_inert_and_false(self):
        assert configure_worker_observability(None) is False

    def test_configure_clears_inherited_state(self, monkeypatch):
        import repro.obs.registry as registry_mod
        import repro.obs.trace as trace_mod

        reg = Registry(enabled=True)
        reg.counter("inherited").inc(5)
        tr = TraceBuffer(capacity=8, enabled=True)
        tr.edge(0, 1, 0.1, 0.2)
        monkeypatch.setattr(registry_mod, "_GLOBAL", reg)
        monkeypatch.setattr(trace_mod, "_GLOBAL", tr)
        on = configure_worker_observability(
            {"registry": True, "trace": True, "capacity": 8}
        )
        assert on is True
        assert "inherited" not in reg.counters()
        assert len(tr.edges) == 0


class TestWindowCalibration:
    def test_measured_is_the_straggler_and_ratios_are_per_window(self):
        records = [
            measured(0, 0, 0.10), measured(0, 1, 0.30),
            measured(1, 0, 0.20), measured(1, 1, 0.05),
        ]
        reg = Registry(enabled=True)
        table = window_calibration(records, {0: 0.15, 1: 0.10}, registry=reg)
        assert [r["window"] for r in table["windows"]] == [0, 1]
        assert table["windows"][0]["measured_s"] == pytest.approx(0.30)
        assert table["windows"][0]["ratio"] == pytest.approx(2.0)
        assert table["windows"][1]["measured_s"] == pytest.approx(0.20)
        assert table["measured_total_s"] == pytest.approx(0.50)
        assert table["overall_ratio"] == pytest.approx(2.0)
        assert table["worst_window"]["window"] == 0
        assert table["worst_window"]["deviation_s"] == pytest.approx(0.15)
        # the calibration.* instruments got fed
        assert reg.get_counter(names.CALIBRATION_WINDOWS).value == 2
        assert reg.get_counter(names.CALIBRATION_MEASURED_WALL).value == (
            pytest.approx(0.50)
        )
        hist = reg.get_histogram(names.CALIBRATION_RATIO)
        assert hist.bounds == CALIBRATION_RATIO_BOUNDS
        assert hist.count == 2

    def test_windows_without_predictions_are_skipped(self):
        table = window_calibration(
            [measured(0, 0, 0.1), measured(7, 0, 0.2)],
            {0: 0.1},
            registry=Registry(enabled=True),
        )
        assert [r["window"] for r in table["windows"]] == [0]

    def test_empty_measured_channel_yields_empty_table(self):
        table = window_calibration([], {0: 0.1}, registry=Registry(enabled=True))
        assert table["windows"] == []
        assert table["overall_ratio"] is None
        assert table["worst_window"] is None

    def test_recorder_is_guarded_when_registry_disabled(self):
        reg = Registry(enabled=False)
        recorder = CalibrationRecorder(reg)
        recorder.record(0.1, 0.2)
        reg.enable()
        assert reg.get_counter(names.CALIBRATION_WINDOWS).value == 0


class TestMergedSnapshotDocument:
    def test_document_schema_and_json_round_trip(self):
        tr = tracer_with([measured(0, 0, 0.1, mb=64)])
        calibration = window_calibration(
            tr.measured, {0: 0.1}, registry=Registry(enabled=True)
        )
        doc = merged_snapshot_document(
            populated_registry(), tr, meta={"backend": "mp"},
            calibration=calibration, shards=[0],
        )
        assert doc["shards"] == [
            {"shard_id": None, "label": "controller"},
            {"shard_id": 0, "label": "worker-0"},
        ]
        assert doc["measured_windows"][0]["mail_bytes"] == 64
        assert doc["calibration"]["overall_ratio"] == pytest.approx(1.0)
        assert doc["meta"]["backend"] == "mp"
        assert doc["counters"]["c.events"] == 10.0
        json.loads(json.dumps(doc))  # strictly JSON-serializable

    def test_trace_and_calibration_sections_are_optional(self):
        doc = merged_snapshot_document(populated_registry())
        assert "measured_windows" not in doc
        assert "calibration" not in doc


class TestMeasuredPerfettoTracks:
    def test_measured_records_emit_worker_tracks(self):
        tr = tracer_with(
            [
                measured(0, 0, 0.1, wait=0.05, encode=0.01, decode=0.02),
                measured(0, 1, 0.2, wait=0.01),
            ]
        )
        doc = trace_export.to_chrome_trace([], tr, CLUSTER)
        events = doc["traceEvents"]
        worker_pids = {e["pid"] for e in events if e.get("cat") == "measured"}
        assert worker_pids == {trace_export._MEASURED_PID}
        slices = [e for e in events if e.get("cat") == "measured" and e["ph"] == "X"]
        assert {e["name"] for e in slices} >= {"execute", "barrier-wait"}
        threads = {
            e["args"]["name"]
            for e in events
            if e.get("name") == "thread_name" and e["pid"] == trace_export._MEASURED_PID
        }
        assert threads == {"worker 0", "worker 1"}

    def test_no_measured_records_means_no_worker_tracks(self):
        rows = [WindowStats(0, 0.0, 1.0, np.array([1, 0]), np.array([0, 0]))]
        doc = trace_export.to_chrome_trace(rows, tracer_with([]), CLUSTER)
        assert all(e.get("cat") != "measured" for e in doc["traceEvents"])
