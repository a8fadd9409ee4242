"""Structured trace, straggler blame, Chrome export, and what-if replay.

Covers the four layers of the causal-tracing subsystem:

- :mod:`repro.obs.trace` — ring-buffer semantics: disabled-by-default,
  ``traced_run`` scoping, capacity eviction with ``dropped_records``;
- :mod:`repro.obs.blame` — straggler-takes-all attribution (the blame
  vector sums *exactly* to the modeled barrier wait), critical-path
  handoffs, per-node blame splitting;
- :mod:`repro.obs.trace_export` — well-formed Chrome trace-event JSON;
- :mod:`repro.obs.whatif` — replay scores agree with the dense
  cost-model path (:func:`predict_wallclock`) to float precision, on a
  real traced parallel run.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from repro.cluster import ClusterSpec, SyncCostModel
from repro.core import Approach, MappingPipeline
from repro.engine.costmodel import (
    bucket_event_counts,
    predict_wallclock,
    remote_send_counts,
    window_for_mapping,
)
from repro.engine.windows import WindowStats
from repro.experiments import ExperimentScale, build_network
from repro.experiments.parallel import run_traced_workload
from repro.experiments.runner import cluster_for_scale
from repro.obs import blame
from repro.obs.trace import TraceBuffer, get_tracer, traced_run
from repro.obs.trace_export import to_chrome_trace
from repro.obs.whatif import score_mapping, score_mappings

SCALE = ExperimentScale(
    name="trace-test",
    flat_routers=80,
    flat_hosts=30,
    num_ases=4,
    routers_per_as=10,
    multi_hosts=20,
    http_clients=12,
    http_servers=4,
    http_mean_gap_s=0.4,
    num_engines=4,
    app_processes=4,
    scalapack_iterations=2,
    duration_s=5.0,
    profile_duration_s=2.0,
)

DURATION = 0.4

#: 1 us per event and per remote send, 10 us per barrier: synthetic
#: windows price to round numbers.
UNIT = ClusterSpec(
    "unit", 2, event_cost_s=1e-6, remote_event_cost_s=1e-6,
    sync_cost=SyncCostModel({2: 10e-6, 3: 10e-6}),
)


def rebin(tr, mapping, window):
    """Dense ``(windows, lps)`` counts of the trace under ``mapping``."""
    times, nodes = tr.event_samples()
    tx_t, tx_f, tx_to = tr.tx_samples()
    args = (mapping.assignment, mapping.num_engines, window, DURATION)
    return (
        bucket_event_counts(times, nodes, *args),
        remote_send_counts(tx_t, tx_f, tx_to, *args),
    )


@pytest.fixture(autouse=True)
def _isolate_global_tracer():
    """The process-global tracer must leave tests the way it arrived."""
    tr = get_tracer()
    yield
    tr.disable()
    tr.reset()


@pytest.fixture(scope="module")
def traced_run_result():
    """One traced parallel run plus two candidate mappings to replay."""
    net, fib = build_network("single-as", SCALE, seed=3)
    pipeline = MappingPipeline(net, SCALE.num_engines, cluster_for_scale(SCALE), seed=0)
    candidates = pipeline.run_all([Approach.TOP, Approach.HTOP])
    cluster = cluster_for_scale(SCALE)
    engine, sim, handles, reg, tr = run_traced_workload(
        net, fib, "scalapack", SCALE, candidates[Approach.HTOP], DURATION, seed=0
    )
    # run_traced_workload hands back the process-global tracer, which the
    # per-test isolation fixture resets; keep an independent copy.
    snap = copy.deepcopy(tr)
    return net, engine, snap, candidates, cluster


# ---------------------------------------------------------------------------
# TraceBuffer semantics
# ---------------------------------------------------------------------------
class TestTraceBuffer:
    def test_disabled_record_methods_are_noops(self):
        tr = TraceBuffer()
        assert not tr.enabled
        tr.edge(0, 1, 0.1, 0.9)
        tr.event(0.2, 3)
        tr.tx(0.2, 3, 4)
        token = tr.span_begin()
        tr.span_end(token, "bgp.convergence")
        assert len(tr) == 0 and token == -1.0

    def test_traced_run_enables_resets_and_restores(self):
        tr = TraceBuffer()
        tr.enable()
        tr.event(0.1, 1)
        with traced_run(tr, capacity=8) as inner:
            assert inner is tr and tr.enabled and tr.capacity == 8
            assert len(tr) == 0  # reset_first dropped the stale record
            tr.event(0.2, 2)
        assert tr.enabled  # previous state (enabled) restored
        assert tr.capacity == TraceBuffer().capacity
        assert list(tr.events) == [(0.2, 2)]

    def test_window_records_carry_counts_priced_at_read_time(self):
        rows = [WindowStats(0, 0.0, 1.0, np.array([10, 0]), np.array([3, 0]))]
        cluster = ClusterSpec("c", 2, event_cost_s=2e-6, remote_event_cost_s=5e-6)
        report = blame.analyze(rows, TraceBuffer(), cluster)
        assert report.busy_s[0] == pytest.approx(10 * 2e-6 + 3 * 5e-6)
        assert report.critical_path[0].unit == 0
        assert report.total_wait_s == pytest.approx(report.critical_s)  # LP 1 idles fully

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)

    def test_overflow_evicts_oldest_and_counts_drops(self):
        tr = TraceBuffer(capacity=3, enabled=True)
        for i in range(5):
            tr.event(float(i), i)
        assert list(tr.events) == [(2.0, 2), (3.0, 3), (4.0, 4)]
        assert tr.dropped_records == 2
        # Drops are counted per channel append, across channels.
        for i in range(4):
            tr.tx(float(i), i, i + 1)
        assert tr.dropped_records == 3
        tr.reset()
        assert tr.dropped_records == 0 and len(tr) == 0


# ---------------------------------------------------------------------------
# Blame analysis on synthetic windows
# ---------------------------------------------------------------------------
def _windows(*events) -> list[WindowStats]:
    """Back-to-back one-second windows with these per-LP event counts."""
    return [
        WindowStats(i, float(i), i + 1.0, np.array(ev), np.zeros(len(ev), dtype=np.int64))
        for i, ev in enumerate(events)
    ]


#: Three windows over 2 LPs with a known straggler sequence 1,1,0.
ROWS = _windows([10, 30], [5, 20], [40, 10])


def _synthetic_trace() -> TraceBuffer:
    """The edge by which ROWS' window-1 straggler (LP 1) feeds window 2's (LP 0)."""
    tr = TraceBuffer(enabled=True)
    tr.edge(1, 0, 1.5, 2.5)
    return tr


class TestBlame:
    def test_blame_sums_exactly_to_total_wait(self):
        report = blame.analyze(ROWS, _synthetic_trace(), UNIT)
        expected_wait = (30 - 10) * 1e-6 + (20 - 5) * 1e-6 + (40 - 10) * 1e-6
        assert report.total_wait_s == pytest.approx(expected_wait, rel=0, abs=0)
        assert report.blame_s.sum() == report.total_wait_s
        assert report.blame_s[1] == pytest.approx((20 + 15) * 1e-6)
        assert report.blame_s[0] == pytest.approx(30e-6)
        assert list(report.straggler_windows) == [1, 2]
        assert report.critical_s == pytest.approx((30 + 20 + 40) * 1e-6)

    def test_critical_path_marks_causal_handoff(self):
        report = blame.analyze(ROWS, _synthetic_trace(), UNIT)
        assert [s.unit for s in report.critical_path] == [1, 1, 0]
        # Windows 0->1: same straggler but no recorded edge -> no handoff.
        assert not report.critical_path[1].handoff_from_prev
        # Windows 1->2: the recorded edge LP1 -> LP0 marks the handoff.
        assert report.critical_path[2].handoff_from_prev
        assert report.handoff_fraction == pytest.approx(0.5)

    def test_lp_width_mismatch_raises(self):
        rows = ROWS + [WindowStats(3, 3.0, 4.0, np.array([1, 2, 3]), np.zeros(3))]
        with pytest.raises(ValueError, match="LPs"):
            blame.analyze(rows, _synthetic_trace(), UNIT)

    def test_empty_trace_analyzes_to_zero(self):
        report = blame.analyze([], TraceBuffer(), UNIT, num_units=3)
        assert report.num_windows == 0 and report.total_wait_s == 0.0
        assert report.blame_s.shape == (3,)

    def test_blame_on_overflowed_trace_covers_every_window(self):
        tr = TraceBuffer(capacity=1, enabled=True)
        tr.edge(1, 0, 1.5, 2.5)  # the window 1 -> 2 handoff, evicted
        tr.edge(0, 1, 2.2, 2.9)
        assert tr.dropped_records == 1
        report = blame.analyze(ROWS, tr, UNIT)
        assert report.num_windows == 3
        assert report.dropped_records == 1
        assert report.blame_s.sum() == report.total_wait_s
        assert report.total_wait_s == pytest.approx((20 + 15 + 30) * 1e-6)
        assert not any(s.handoff_from_prev for s in report.critical_path)
        assert "blame covers every window" in blame.format_blame_table(report)

    def test_node_blame_splits_by_event_share(self):
        tr = _synthetic_trace()
        # Nodes 0,1 on LP 0; nodes 2,3 on LP 1. Node 2 did 3x node 3's work.
        for _ in range(3):
            tr.event(0.5, 2)
        tr.event(0.5, 3)
        tr.event(0.5, 0)
        tr.event(2.5, -1)  # engine-internal: never attributed
        report = blame.analyze(ROWS, tr, UNIT)
        assignment = np.array([0, 0, 1, 1])
        share = blame.node_blame(tr, report, assignment)
        assert share[2] == pytest.approx(0.75 * report.blame_s[1])
        assert share[3] == pytest.approx(0.25 * report.blame_s[1])
        assert share[0] == pytest.approx(report.blame_s[0])
        assert share[1] == 0.0

    def test_format_blame_table_cross_checks_sum(self):
        report = blame.analyze(ROWS, _synthetic_trace(), UNIT)
        table = blame.format_blame_table(report)
        assert "blame sums to it exactly" in table
        assert f"{report.total_wait_s * 1e3:.3f}" in table

    def test_blame_shares_of_zero_wait_are_exactly_zero(self):
        # A single-LP shard or an all-idle run accumulates zero barrier
        # wait; shares must be exactly 0.0, not NaN from a 0/0.
        with np.errstate(divide="raise", invalid="raise"):
            shares = blame.blame_shares(np.zeros(3))
            assert shares.tolist() == [0.0, 0.0, 0.0]
            shares = blame.blame_shares(np.array([1.0, 2.0]), total_wait_s=0.0)
            assert shares.tolist() == [0.0, 0.0]

    def test_zero_wait_trace_formats_without_dividing(self):
        # One LP per window: the straggler waits on nobody, so every
        # window contributes zero wait. The table must render (no NaN,
        # shares all 0.0%) and the report's invariants must still hold.
        with np.errstate(divide="raise", invalid="raise"):
            report = blame.analyze(_windows([10], [20]), TraceBuffer(), UNIT)
            table = blame.format_blame_table(report)
        assert report.total_wait_s == 0.0
        assert report.shares.tolist() == [0.0]
        assert "nan" not in table.lower()
        assert "0.0%" in table

    def test_measured_shares_zero_when_no_shard_waited(self):
        # Single-shard measured runs record zero barrier wait everywhere.
        tr = TraceBuffer(enabled=True)
        tr.measured_window(0, 0, 1.0, 0.0, 0.1, 0.05, 100, 0)
        tr.measured_window(1, 0, 2.0, 0.0, 0.2, 0.10, 200, 0)
        with np.errstate(divide="raise", invalid="raise"):
            report = blame.analyze(_windows([0], [0]), tr, num_units=1)
            table = blame.format_blame_table(report)
        assert report.shares.tolist() == [0.0]
        assert report.num_windows == 2
        assert "nan" not in table.lower()

    def test_measured_straggler_is_the_busiest_shard_not_the_longest_total(self):
        # Shard 0 was busier (executing, then cutting a checkpoint) and so
        # waited less; shard 1's total holds the wait shard 0 caused.
        tr = TraceBuffer(enabled=True)
        tr.measured_window(0, 0, 0.5, 0.10, 0.0, 0.0, 10, 0, checkpoint_s=0.02)
        tr.measured_window(0, 1, 0.2, 0.45, 0.0, 0.0, 10, 0)
        busier, longer = tr.measured
        assert busier.total_s < longer.total_s
        assert busier.busy_s == pytest.approx(busier.total_s - busier.barrier_wait_s)
        report = blame.analyze(_windows([0, 0]), tr)
        assert report.unit == "shard"
        assert report.straggler_windows.tolist() == [1, 0]
        assert report.critical_s == pytest.approx(0.52)
        assert report.blame_s.tolist() == pytest.approx([0.32, 0.0])
        assert report.extras["ckpt"].tolist() == [0.02, 0.0]
        assert "ckpt (ms)" in blame.format_blame_table(report)


# ---------------------------------------------------------------------------
# Chrome trace-event export
# ---------------------------------------------------------------------------
class TestChromeExport:
    def test_export_structure_and_json_round_trip(self):
        doc = to_chrome_trace(ROWS, _synthetic_trace(), UNIT)
        doc = json.loads(json.dumps(doc))  # must be plain-JSON serializable
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "X", "s", "f"} <= phases
        slices = [e for e in events if e["ph"] == "X" and e["cat"] == "window"]
        # 3 windows x 2 LPs, all with nonzero busy time.
        assert len(slices) == 6
        assert all(s["dur"] > 0 and s["ts"] >= 0 for s in slices)
        stragglers = [s for s in slices if s["args"]["straggler"]]
        assert len(stragglers) == 3
        barriers = [e for e in events if e.get("cat") == "sync"]
        assert len(barriers) == 3 and all(b["dur"] == 10.0 for b in barriers)

    def test_windows_laid_out_back_to_back(self):
        doc = to_chrome_trace(ROWS, _synthetic_trace(), UNIT)
        slices = [e for e in doc["traceEvents"]
                  if e["ph"] == "X" and e["cat"] == "window"]
        by_window: dict[str, list] = {}
        for s in slices:
            by_window.setdefault(s["name"], []).append(s)
        # Window 1 starts where window 0's straggler (30us) and its
        # barrier (10us) ended.
        assert by_window["window 1"][0]["ts"] == pytest.approx(40.0)
        assert by_window["window 2"][0]["ts"] == pytest.approx(70.0)

    def test_flow_pair_links_sender_to_receiver(self):
        doc = to_chrome_trace(ROWS, _synthetic_trace(), UNIT)
        flows = [e for e in doc["traceEvents"] if e["ph"] in ("s", "f")]
        assert len(flows) == 2
        start, finish = flows
        assert start["id"] == finish["id"]
        assert start["tid"] == 1 and finish["tid"] == 0
        assert start["ts"] <= finish["ts"]

    def test_flow_cap_is_respected(self):
        tr = _synthetic_trace()
        for _ in range(50):
            tr.edge(1, 0, 1.5, 2.5)
        doc = to_chrome_trace(ROWS, tr, UNIT, max_flows=5)
        assert sum(e["ph"] == "s" for e in doc["traceEvents"]) == 5

    def test_empty_trace_exports_metadata_only(self):
        doc = to_chrome_trace([], TraceBuffer(), UNIT)
        assert all(e["ph"] == "M" for e in doc["traceEvents"])


# ---------------------------------------------------------------------------
# Integration: traced parallel run feeds blame + what-if
# ---------------------------------------------------------------------------
class TestTracedRunIntegration:
    def test_engine_hooks_record_all_channels(self, traced_run_result):
        net, engine, tr, candidates, cluster = traced_run_result
        assert len(tr.events) > 1000
        assert len(tr.transmissions) > 0
        assert len(tr.edges) == sum(int(ws.remote_sends_per_lp.sum()) for ws in engine.window_stats)

    def test_global_tracer_disabled_after_traced_run(self, traced_run_result):
        assert not get_tracer().enabled

    def test_blame_totals_on_real_run(self, traced_run_result):
        net, engine, tr, candidates, cluster = traced_run_result
        report = blame.analyze(engine.window_stats, tr, cluster, num_units=engine.num_lps)
        assert report.num_windows == len(engine.window_stats)
        assert report.blame_s.sum() == report.total_wait_s
        assert report.total_wait_s == pytest.approx(float(report.window_wait_s.sum()))
        node_share = blame.node_blame(
            tr, report, candidates[Approach.HTOP].assignment, net.num_nodes
        )
        assert node_share.sum() <= report.total_wait_s * (1 + 1e-9)
        assert node_share.min() >= 0.0

    def test_whatif_agrees_with_dense_cost_model(self, traced_run_result):
        """Acceptance: sparse replay == predict_wallclock re-run, <=1e-9 rel."""
        net, engine, tr, candidates, cluster = traced_run_result
        assert len(candidates) >= 2
        for mapping in candidates.values():
            window = window_for_mapping(mapping.achieved_mll_s, DURATION)
            events, remotes = rebin(tr, mapping, window)
            dense = predict_wallclock(events, remotes, cluster, mapping.num_engines)
            sparse = score_mapping(tr, mapping, cluster, DURATION)
            assert sparse.total_s == pytest.approx(dense.total_s, rel=1e-9)
            assert sparse.compute_s == pytest.approx(dense.compute_s, rel=1e-9)
            assert sparse.sync_s == pytest.approx(dense.sync_s, rel=1e-9)

    def test_score_mappings_sorted_best_first(self, traced_run_result):
        net, engine, tr, candidates, cluster = traced_run_result
        scores = score_mappings(
            tr, {a.value: m for a, m in candidates.items()}, cluster, DURATION
        )
        totals = [s.total_s for s in scores]
        assert totals == sorted(totals)
        from repro.obs.whatif import format_whatif_table

        table = format_whatif_table(scores)
        assert "<== best" in table and scores[0].label in table

    def test_base_mapping_replay_matches_measured_windows(self, traced_run_result):
        """Replaying the run's own mapping reproduces the engine's counts."""
        net, engine, tr, candidates, cluster = traced_run_result
        base = candidates[Approach.HTOP]
        window = window_for_mapping(base.achieved_mll_s, DURATION)
        events, remotes = rebin(tr, base, window)
        # Every executed event lands in the trace (node == -1 goes to
        # LP 0 in both accountings), so re-binned totals reproduce the
        # engine's count exactly. Remote sends only approximately: the
        # engine also counts cross-LP mail without a link transmission
        # (agent-admitted live events), so the replay is a lower bound.
        assert events.sum() == engine.events_executed
        sent = sum(int(ws.remote_sends_per_lp.sum()) for ws in engine.window_stats)
        assert 0 < remotes.sum() <= sent


class TestBgpSpans:
    def test_convergence_span_recorded_when_enabled(self):
        from repro.routing.bgp import configure_bgp
        from repro.topology import generate_multi_as_network

        net = generate_multi_as_network(
            num_ases=3, routers_per_as=3, num_hosts=4, seed=1
        )
        with traced_run() as tr:
            engine = configure_bgp(net)
        spans = [s for s in tr.spans if s.kind == "bgp.convergence"]
        assert len(spans) == 1
        assert spans[0].elapsed_s >= 0.0
        assert spans[0].meta["iterations"] == engine.iterations
        assert spans[0].meta["speakers"] == len(engine.speakers)
