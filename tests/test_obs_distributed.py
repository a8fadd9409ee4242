"""Unit tests for the distributed observability layer (``obs.distributed``).

The owners' ``merge_from`` per instrument kind and per trace channel (the
empty-vector identity, typed errors that leave the target untouched,
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
from repro.obs import blame, export, trace_export
from repro.obs.distributed import (
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

CLUSTER = teragrid_cluster(2)
SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def reading(name: str, value) -> Registry:
    """A registry reading ``value`` under ``name``."""
    reg = Registry(enabled=True)
    reg.read(name, lambda: value)
    return reg


def populated_registry(scale: float = 1.0) -> Registry:
    """A registry reading one counter and one vector, scaled values."""
    reg = reading("c.events", 10 * scale)
    reg.read("v.per_lp", lambda: np.array([1.0, 2.0, 3.0, 4.0]) * scale)
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

    def test_merge_is_a_copy_not_a_view(self):
        reg = merged(populated_registry())  # holds values, not reads
        copy = merged(reg)
        reg.get_vector("v.per_lp").values[0] += 99
        assert copy.get_vector("v.per_lp").values[0] == 1.0

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
        # counters and vectors sum
        assert out.get_counter("c.events").value == 30.0
        assert out.get_vector("v.per_lp").values.tolist() == [3.0, 6.0, 9.0, 12.0]
        assert not out.enabled

    def test_merge_handles_disjoint_instruments(self):
        out = merged(reading("only.here", 7), populated_registry())
        assert out.get_counter("only.here").value == 7.0
        assert out.get_counter("c.events").value == 10.0

    def test_vector_size_mismatch_is_a_typed_error(self):
        with pytest.raises(SnapshotMergeError, match="vector 'v'"):
            merged(reading("v", [1, 0]), reading("v", [1, 0, 0]))

    def test_merged_registry_snapshot_is_disabled(self):
        reg = merged_registry_snapshot(FakeResult([populated_registry()]), Registry())
        assert not reg.enabled
        reg.read("later", lambda: 5)  # disabled: a zero, no owner kept
        assert reg.get_counter("later").value == 0.0
        assert reg.get_counter("c.events").value == 10.0


class TestEmptyIsTheIdentity:
    """A vector that holds nothing merges away whatever its shape."""

    def test_stale_zero_vector_takes_the_workers_size(self):
        controller = reading("v", np.zeros(12))  # zero, from a bigger network
        worker = reading("v", [0, 0, 0, 2.0, 0, 0, 0, 0])
        out = merged(controller, worker)
        assert out.get_vector("v").values.tolist() == [0, 0, 0, 2.0, 0, 0, 0, 0]
        # and the other way round: a zeroed part changes nothing
        again = merged(worker, controller)
        assert export.snapshot(again) == export.snapshot(out)

    def test_disagreeing_vectors_raise_without_mutating(self):
        target = merged(reading("x", [1, 0]))
        before = export.snapshot(target)
        with pytest.raises(SnapshotMergeError):
            target.merge_from(reading("x", [1, 0, 0]))
        assert export.snapshot(target) == before


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
    st.sampled_from(["counter", "vector", "measured", "edge"]),
    st.integers(0, SIZE - 1),
    st.integers(0, 6),
)


def observed_part() -> tuple[Registry, TraceBuffer, dict]:
    """A registry reading one owner's counter and vector, and a tracer."""
    owner = {"c": 0, "v": np.zeros(SIZE)}
    reg = Registry(enabled=True)
    reg.read("c", lambda: owner["c"])
    reg.read("v", lambda: owner["v"])
    return reg, TraceBuffer(1024, True), owner


def apply_write(tr: TraceBuffer, owner: dict, kind: str, i: int, v: int) -> None:
    if kind == "counter":
        owner["c"] += v
    elif kind == "vector":
        owner["v"][i] += v
    elif kind == "measured":
        tr.measured_window(v, i, float(v), 1.0, 0.0, 0.0, v)
    else:
        tr.edge(i, (i + 1) % SIZE, float(v), float(v) + 1.0)


def channels(tr: TraceBuffer) -> dict:
    """Every channel as comparable plain data."""
    return {name: list(getattr(tr, name)) for name, _ in TraceBuffer.CHANNELS}


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 4),
    writes=st.lists(WRITE, max_size=40),
    faults=st.lists(st.tuples(st.integers(0, 5), st.integers(0, SIZE - 1)), max_size=4),
)
def test_merged_parts_equal_one_sink(k, writes, faults):
    parts = [observed_part() for _ in range(k)]
    sink_reg, sink_tr, sink_owner = observed_part()
    for part, kind, i, v in writes:
        apply_write(*parts[part % k][1:], kind, i, v)
        apply_write(sink_tr, sink_owner, kind, i, v)
    for t, node in faults:
        sink_tr.fault(float(t), "node.down", "inject", (node,), attempt=1)
        for _, tr, _ in parts:  # every worker replays the control plane
            tr.fault(float(t), "node.down", "inject", (node,), attempt=1)

    result = FakeResult([reg for reg, _, _ in parts], [tr for _, tr, _ in parts])
    reg = merged_registry_snapshot(result, Registry())
    tr = merged_trace_snapshot(result, TraceBuffer())
    sink_order = TraceBuffer()
    sink_order.merge_from(sink_tr)  # the sink's records in merge order

    assert export.snapshot(reg) == export.snapshot(sink_reg)
    assert channels(tr) == channels(sink_order)
    # The merge holds values, not the parts' owners.
    before = (export.snapshot(reg), channels(tr))
    for _, _, owner in parts:
        owner["c"] += 1
        owner["v"] += 1
    assert (export.snapshot(reg), channels(tr)) == before


# ----------------------------------------------------------------------
# Source guard: an instrument's state is named only where it is defined
# ----------------------------------------------------------------------
_INSTRUMENT_STATE = {"_value", "_values"}
_DEFINING_MODULES = {"obs/counters.py"}


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

        reg = reading("inherited", 5)
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
        table = window_calibration(records, {0: 0.15, 1: 0.10})
        assert [r["window"] for r in table["windows"]] == [0, 1]
        assert table["windows"][0]["measured_s"] == pytest.approx(0.30)
        assert table["windows"][0]["ratio"] == pytest.approx(2.0)
        assert table["windows"][1]["measured_s"] == pytest.approx(0.20)
        assert table["measured_total_s"] == pytest.approx(0.50)
        assert table["overall_ratio"] == pytest.approx(2.0)
        assert table["worst_window"]["window"] == 0
        assert table["worst_window"]["deviation_s"] == pytest.approx(0.15)

    def test_windows_without_predictions_are_skipped(self):
        table = window_calibration([measured(0, 0, 0.1), measured(7, 0, 0.2)], {0: 0.1})
        assert [r["window"] for r in table["windows"]] == [0]

    def test_a_zero_prediction_has_an_infinite_ratio_and_no_overall_ratio(self):
        table = window_calibration([measured(0, 0, 0.1)], {0: 0.0})
        assert table["windows"][0]["ratio"] == float("inf")
        assert table["predicted_total_s"] == 0.0
        assert table["overall_ratio"] is None
        assert table["worst_window"]["deviation_s"] == pytest.approx(0.1)

    def test_empty_measured_channel_yields_empty_table(self):
        table = window_calibration([], {0: 0.1})
        assert table["windows"] == []
        assert table["overall_ratio"] is None
        assert table["worst_window"] is None

class TestMergedSnapshotDocument:
    def test_document_schema_and_json_round_trip(self):
        tr = tracer_with([measured(0, 0, 0.1, mb=64)])
        calibration = window_calibration(tr.measured, {0: 0.1})
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
