"""Unit tests for the distributed observability layer (``obs.distributed``).

Snapshot/merge/diff/restore per instrument kind, trace-channel merging,
measured blame decomposition, measured-vs-modeled calibration, and the
``--obs-out`` document — all pure in-process, no worker processes.
The end-to-end merge-identity proof lives in
``tests/test_obs_distributed_mp.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.serialization as ser
from repro.cluster import teragrid_cluster
from repro.obs import blame, names, trace_export
from repro.obs.counters import HistogramMergeError
from repro.obs.distributed import (
    CALIBRATION_RATIO_BOUNDS,
    CalibrationRecorder,
    RegistrySnapshot,
    SnapshotMergeError,
    TraceSnapshot,
    configure_worker_observability,
    merged_snapshot_document,
    window_calibration,
    worker_obs_config,
)
from repro.obs.registry import Registry
from repro.obs.trace import MeasuredWindowRecord, TraceBuffer

BOUNDS = (1.0, 2.0, 4.0)
CLUSTER = teragrid_cluster(2)


def populated_registry(scale: float = 1.0) -> Registry:
    """A registry with one instrument of every kind, scaled values."""
    reg = Registry(enabled=True, bin_s=0.5)
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
    series = reg.series("s.rate", 2)
    series.observe(0.1, 0, 2.0 * scale)
    series.observe(0.7, 1, 1.0 * scale)
    return reg


class TestRegistrySnapshotCapture:
    def test_capture_copies_every_instrument_kind(self):
        snap = RegistrySnapshot.capture(populated_registry(), shard_id=3, label="w3")
        assert snap.provenance == ({"shard_id": 3, "label": "w3"},)
        assert snap.counters["c.events"] == 10.0
        assert snap.vectors["v.per_lp"].tolist() == [1.0, 2.0, 3.0, 4.0]
        assert snap.gauges["g.depth"].tolist() == [5.0, 0.0, 1.0]
        bounds, counts, total = snap.histograms["h.wait"]
        assert bounds == BOUNDS
        assert counts.tolist() == [1, 0, 1, 0]
        assert total == 3.5
        assert snap.timers["t.span"] == (1, 0.25)
        size, bin_s, matrix = snap.series["s.rate"]
        assert (size, bin_s) == (2, 0.5)
        assert matrix.shape == (2, 2)

    def test_capture_is_a_copy_not_a_view(self):
        reg = populated_registry()
        snap = RegistrySnapshot.capture(reg)
        reg.get_counter("c.events").inc(99)
        reg.get_vector("v.per_lp").inc(0, 99)
        assert snap.counters["c.events"] == 10.0
        assert snap.vectors["v.per_lp"][0] == 1.0

    def test_pickle_round_trip_over_the_wire_codec(self):
        snap = RegistrySnapshot.capture(populated_registry(), shard_id=1, label="w1")
        back = ser.decode_payload(ser.encode_payload(snap))
        assert back.provenance == snap.provenance
        assert back.counters == snap.counters
        assert back.histograms["h.wait"][0] == BOUNDS
        np.testing.assert_array_equal(
            back.vectors["v.per_lp"], snap.vectors["v.per_lp"]
        )


class TestRegistrySnapshotMerge:
    def test_merge_semantics_per_kind(self):
        a = RegistrySnapshot.capture(populated_registry(1.0), shard_id=0, label="w0")
        b = RegistrySnapshot.capture(populated_registry(2.0), shard_id=1, label="w1")
        merged = RegistrySnapshot.merge([a, b])
        # counters / vectors / histograms / timers / series sum
        assert merged.counters["c.events"] == 30.0
        assert merged.vectors["v.per_lp"].tolist() == [3.0, 6.0, 9.0, 12.0]
        # scale=1 observed (0.5, 3.0) -> [1,0,1,0]; scale=2 observed
        # (1.0, 6.0) -> [1,0,0,1] (bounds are upper-inclusive)
        assert merged.histograms["h.wait"][1].tolist() == [2, 0, 1, 1]
        assert merged.histograms["h.wait"][2] == 3.5 + 7.0
        assert merged.timers["t.span"] == (2, 0.75)
        # high-water gauges take the element-wise max
        assert merged.gauges["g.depth"].tolist() == [10.0, 0.0, 2.0]
        # provenance concatenates in merge order
        assert [p["label"] for p in merged.provenance] == ["w0", "w1"]

    def test_merge_handles_disjoint_instruments(self):
        reg = Registry(enabled=True)
        reg.counter("only.here").inc(7)
        a = RegistrySnapshot.capture(reg)
        b = RegistrySnapshot.capture(populated_registry())
        merged = RegistrySnapshot.merge([a, b])
        assert merged.counters["only.here"] == 7.0
        assert merged.counters["c.events"] == 10.0

    def test_vector_size_mismatch_is_a_typed_error(self):
        ra, rb = Registry(enabled=True), Registry(enabled=True)
        ra.vector_counter("v", 2).inc(0)
        rb.vector_counter("v", 3).inc(0)
        with pytest.raises(SnapshotMergeError, match="vector 'v'"):
            RegistrySnapshot.merge(
                [RegistrySnapshot.capture(ra), RegistrySnapshot.capture(rb)]
            )

    def test_histogram_bounds_mismatch_is_a_typed_error(self):
        ra, rb = Registry(enabled=True), Registry(enabled=True)
        ra.histogram("h", (1.0, 2.0)).observe(0.5)
        rb.histogram("h", (1.0, 3.0)).observe(0.5)
        with pytest.raises(HistogramMergeError, match="histogram 'h' bounds"):
            RegistrySnapshot.merge(
                [RegistrySnapshot.capture(ra), RegistrySnapshot.capture(rb)]
            )

    def test_series_pad_to_longest_run(self):
        ra, rb = Registry(enabled=True), Registry(enabled=True)
        ra.series("s", 2, 1.0).observe(0.5, 0, 1.0)  # one bin
        sb = rb.series("s", 2, 1.0)
        sb.observe(0.5, 0, 2.0)
        sb.observe(2.5, 1, 4.0)  # three bins
        merged = RegistrySnapshot.merge(
            [RegistrySnapshot.capture(ra), RegistrySnapshot.capture(rb)]
        )
        _, _, matrix = merged.series["s"]
        assert matrix.shape == (3, 2)
        assert matrix[0].tolist() == [3.0, 0.0]
        assert matrix[2].tolist() == [0.0, 4.0]


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


class TestRegistrySnapshotRestore:
    def test_restore_round_trips_every_kind(self):
        snap = RegistrySnapshot.capture(populated_registry())
        reg = snap.restore(bin_s=0.5)
        again = RegistrySnapshot.capture(reg)
        assert again.counters == snap.counters
        np.testing.assert_array_equal(
            again.vectors["v.per_lp"], snap.vectors["v.per_lp"]
        )
        np.testing.assert_array_equal(
            again.gauges["g.depth"], snap.gauges["g.depth"]
        )
        assert again.histograms["h.wait"][1].tolist() == (
            snap.histograms["h.wait"][1].tolist()
        )
        assert again.timers == snap.timers
        np.testing.assert_array_equal(
            again.series["s.rate"][2], snap.series["s.rate"][2]
        )

    def test_restored_registry_is_disabled(self):
        reg = RegistrySnapshot.capture(populated_registry()).restore()
        assert not reg.enabled
        reg.get_counter("c.events").inc()  # guarded: must be a no-op
        assert reg.get_counter("c.events").value == 10.0


def measured(w, shard, execute, wait=0.0, encode=0.0, decode=0.0, events=10, mb=0):
    return MeasuredWindowRecord(w, shard, execute, wait, encode, decode, events, mb)


def tracer_with(records, windows=(), capacity=64) -> TraceBuffer:
    tr = TraceBuffer(capacity=capacity, enabled=True)
    for r in records:
        tr.measured_window(
            r.window_index, r.shard_id, r.execute_s, r.barrier_wait_s,
            r.mail_encode_s, r.mail_decode_s, r.events, r.mail_bytes,
        )
    for w, start, end, ev, rem in windows:
        tr.window(w, start, end, np.array(ev), np.array(rem))
    tr.disable()
    return tr


class TestTraceSnapshotMerge:
    def test_windows_with_same_index_sum_per_lp_vectors(self):
        ta = tracer_with([], windows=[(0, 0.0, 1.0, [3, 0], [1, 0])])
        tb = tracer_with([], windows=[(0, 0.0, 1.0, [0, 5], [0, 2])])
        merged = TraceSnapshot.merge(
            [TraceSnapshot.capture(ta, 0, "w0"), TraceSnapshot.capture(tb, 1, "w1")]
        )
        assert len(merged.windows) == 1
        assert merged.windows[0].events_per_lp.tolist() == [3, 5]
        assert merged.windows[0].remote_per_lp.tolist() == [1, 2]

    def test_window_bounds_mismatch_is_a_typed_error(self):
        ta = tracer_with([], windows=[(0, 0.0, 1.0, [1, 0], [0, 0])])
        tb = tracer_with([], windows=[(0, 0.0, 2.0, [1, 0], [0, 0])])
        with pytest.raises(SnapshotMergeError, match="window 0 bounds"):
            TraceSnapshot.merge(
                [TraceSnapshot.capture(ta), TraceSnapshot.capture(tb)]
            )

    def test_measured_records_sort_by_window_then_shard(self):
        ta = tracer_with([measured(1, 1, 0.2), measured(0, 1, 0.1)])
        tb = tracer_with([measured(0, 0, 0.3)])
        merged = TraceSnapshot.merge(
            [TraceSnapshot.capture(ta), TraceSnapshot.capture(tb)]
        )
        assert [(m.window_index, m.shard_id) for m in merged.measured] == [
            (0, 0), (0, 1), (1, 1),
        ]

    def test_replayed_faults_deduplicate(self):
        ta = tracer_with([])
        tb = tracer_with([])
        for tr in (ta, tb):
            tr.enable()
            tr.fault(1.0, "link_down", "inject", (3, 4))
            tr.disable()
        merged = TraceSnapshot.merge(
            [TraceSnapshot.capture(ta), TraceSnapshot.capture(tb)]
        )
        assert len(merged.faults) == 1

    def test_restore_feeds_the_blame_pipeline(self):
        tr = tracer_with(
            [measured(0, 0, 0.5, wait=0.1), measured(0, 1, 0.2, wait=0.4)]
        )
        snap = TraceSnapshot.capture(tr, None, "merged")
        report = blame.analyze_measured(snap.restore(), num_shards=2)
        assert report.num_shards == 2
        assert report.num_windows == 1
        assert report.shard_execute_s.tolist() == [0.5, 0.2]
        # shard 0's 0.6s total beats shard 1's 0.6s tie -> max picks one;
        # critical path is the straggler's total
        assert report.critical_s == pytest.approx(0.6)
        table = blame.format_measured_table(report)
        assert "shard" in table and "critical path" in table


class TestWorkerObsConfig:
    def test_disabled_registry_and_tracer_yield_none(self):
        reg = Registry(enabled=False)
        tr = TraceBuffer(capacity=4, enabled=False)
        assert worker_obs_config(reg, tr) is None

    def test_enabled_stanza_carries_settings(self):
        reg = Registry(enabled=True, bin_s=0.25)
        tr = TraceBuffer(capacity=128, enabled=True)
        cfg = worker_obs_config(reg, tr)
        assert cfg == {
            "registry": True,
            "bin_s": 0.25,
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
        tr.event(0.1, 0)
        monkeypatch.setattr(registry_mod, "_GLOBAL", reg)
        monkeypatch.setattr(trace_mod, "_GLOBAL", tr)
        on = configure_worker_observability(
            {"registry": True, "trace": True, "capacity": 8}
        )
        assert on is True
        assert "inherited" not in reg.counters()
        assert len(tr.events) == 0


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
        reg_snap = RegistrySnapshot.capture(
            populated_registry(), shard_id=0, label="worker-0"
        )
        tr_snap = TraceSnapshot.capture(
            tracer_with([measured(0, 0, 0.1, mb=64)]), 0, "worker-0"
        )
        calibration = window_calibration(
            tr_snap.measured, {0: 0.1}, registry=Registry(enabled=True)
        )
        doc = merged_snapshot_document(
            reg_snap, tr_snap, meta={"backend": "mp"}, calibration=calibration
        )
        assert doc["shards"] == [{"shard_id": 0, "label": "worker-0"}]
        assert doc["measured_windows"][0]["mail_bytes"] == 64
        assert doc["calibration"]["overall_ratio"] == pytest.approx(1.0)
        assert doc["meta"]["backend"] == "mp"
        assert doc["counters"]["c.events"] == 10.0
        json.loads(json.dumps(doc))  # strictly JSON-serializable

    def test_trace_and_calibration_sections_are_optional(self):
        doc = merged_snapshot_document(
            RegistrySnapshot.capture(populated_registry())
        )
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
        doc = trace_export.to_chrome_trace(tr, CLUSTER)
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
        tr = tracer_with([], windows=[(0, 0.0, 1.0, [1, 0], [0, 0])])
        doc = trace_export.to_chrome_trace(tr, CLUSTER)
        assert all(e.get("cat") != "measured" for e in doc["traceEvents"])
