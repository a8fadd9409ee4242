"""End-to-end distributed observability over real worker processes.

The headline invariant of ``obs.distributed``: the merge of N shipped
worker registries (plus the controller's own) *equals* the
single-process observed run on the same workload — procs 1, 2, and 4,
under both fork and spawn start methods — even after an observed run on
a bigger network in the same process. Plus the ``--backend mp
--obs-out`` CLI path writing one merged JSON document, with exact
barrier-wait percentiles.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
import test_multi_as_executed as multi_as_executed

from repro.engine.parallel import ParallelConservativeEngine
from repro.engine.recovery import RecoveryConfig, is_checkpoint_window
from repro.experiments.shard import build_chain_scenario, chain_spec, run_reference
from repro.obs import export, names
from repro.obs.distributed import (
    merged_registry_snapshot,
    merged_snapshot_document,
    merged_trace_snapshot,
)
from repro.obs.registry import Registry, observed_run
from repro.obs.trace import get_tracer, traced_run

ASSIGNMENT = np.array([0, 0, 0, 0, 1, 1, 1, 1])
NUM_LPS = 2
LOOKAHEAD = 1e-4
DURATION = 0.02

#: Instruments whose placement only a distributed run has; excluded
#: from the single-process identity comparison by construction.
MP_ONLY = ("parallel.",)


def spec():
    return chain_spec(num_nodes=8, latency_s=LOOKAHEAD, packets=20)


def deterministic_view(reg: Registry) -> dict:
    """``export.snapshot`` minus the names no single process can match."""
    doc = export.snapshot(reg)
    for section in ("counters", "vectors"):
        doc[section] = {n: v for n, v in doc[section].items() if not n.startswith(MP_ONLY)}
    return doc


@pytest.fixture()
def single_process_view():
    with observed_run() as reg:
        run_reference(spec(), ASSIGNMENT, NUM_LPS, LOOKAHEAD, DURATION)
        return deterministic_view(reg)


class TestMergedSnapshotIdentity:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize("procs", [1, 2, 4])
    def test_merged_equals_single_process(
        self, procs, start_method, single_process_view
    ):
        with observed_run():
            engine = ParallelConservativeEngine(
                ASSIGNMENT, NUM_LPS, LOOKAHEAD,
                procs=procs, start_method=start_method,
            )
            result = engine.run_scenario(spec(), until=DURATION)
            merged = merged_registry_snapshot(result)
        assert len(result.worker_registries) == procs
        assert deterministic_view(merged) == single_process_view

    def test_provenance_lists_controller_then_workers(self):
        with observed_run():
            engine = ParallelConservativeEngine(
                ASSIGNMENT, NUM_LPS, LOOKAHEAD, procs=2, start_method="fork"
            )
            result = engine.run_scenario(spec(), until=DURATION)
            doc = merged_snapshot_document(
                merged_registry_snapshot(result), shards=result.worker_registries
            )
        assert [p["label"] for p in doc["shards"]] == [
            "controller", "worker-0", "worker-1",
        ]

    def test_two_networks_then_mp_in_one_process(self, single_process_view):
        """A 12-node observed run leaves zeroed 12-wide vectors in the
        controller's registry; the 8-node workers' vectors still merge,
        and to the single-process values."""
        with observed_run():
            bigger = chain_spec(num_nodes=12, latency_s=LOOKAHEAD, packets=20)
            run_reference(bigger, np.repeat([0, 1], 6), NUM_LPS, LOOKAHEAD, DURATION)
        with observed_run():
            engine = ParallelConservativeEngine(
                ASSIGNMENT, NUM_LPS, LOOKAHEAD, procs=2, start_method="fork"
            )
            result = engine.run_scenario(spec(), until=DURATION)
            merged = merged_registry_snapshot(result)
        assert merged.get_vector(names.NETSIM_NODE_EVENTS).size == 8
        assert deterministic_view(merged) == single_process_view


class TestMultiAsSessionReset:
    """Every worker converges BGP for its own plane and replays every
    session reset on the control lane; what the registry reads of the
    run still merges to the 1-process reference's."""

    def test_merged_equals_the_reference(self):
        net = multi_as_executed.generate_multi_as_network(
            num_ases=6, routers_per_as=6, num_hosts=24, seed=0
        )
        assignment, lookahead = multi_as_executed.lp_by_as(net, 2)
        reset = multi_as_executed.session_reset_spec(net)
        until = multi_as_executed.TINY_UNTIL
        with observed_run() as reg:
            run_reference(reset, assignment, 2, lookahead, until)
            ref = deterministic_view(reg)
        with observed_run():
            result = ParallelConservativeEngine(
                assignment, 2, lookahead, procs=2, start_method="fork"
            ).run_scenario(reset, until=until)
            merged = deterministic_view(merged_registry_snapshot(result))
        assert ref["counters"][names.FAULTS_BGP_SESSION_RESETS] == 1
        assert merged == ref


class TestMeasuredChannelEndToEnd:
    def test_workers_ship_measured_spans_for_every_window(self):
        with observed_run(), traced_run(get_tracer()):
            engine = ParallelConservativeEngine(
                ASSIGNMENT, NUM_LPS, LOOKAHEAD, procs=2, start_method="fork"
            )
            result = engine.run_scenario(spec(), until=DURATION)
            merged = merged_trace_snapshot(result)
        shards_by_window: dict[int, list[int]] = {}
        for m in merged.measured:
            shards_by_window.setdefault(m.window_index, []).append(m.shard_id)
        assert len(shards_by_window) == len(result.window_stats)
        assert all(sorted(v) == [0, 1] for v in shards_by_window.values())
        # the measured channel is self-consistent with the run totals
        assert sum(m.events for m in merged.measured) == result.events_executed
        assert sum(m.mail_bytes for m in merged.measured) == (
            result.total_mail_bytes
        )

    def test_the_checkpoint_cut_is_measured_on_the_windows_that_cut(self):
        every = 5
        with observed_run(), traced_run(get_tracer()):
            engine = ParallelConservativeEngine(
                ASSIGNMENT, NUM_LPS, LOOKAHEAD, procs=2, start_method="fork",
                recovery=RecoveryConfig(checkpoint_every_n_windows=every),
            )
            result = engine.run_scenario(spec(), until=DURATION)
            merged = merged_trace_snapshot(result)
        cut = [m for m in merged.measured if is_checkpoint_window(m.window_index, every)]
        assert len(cut) == result.recovery["checkpoints_taken"] > 0
        assert all(m.checkpoint_s > 0.0 for m in cut)
        assert all(m.checkpoint_s == 0.0 for m in merged.measured if m not in cut)


class TestObsOutCli:
    def test_backend_mp_obs_out_writes_merged_document(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.__main__ import main
        from repro.experiments import SCALES
        from repro.experiments.config import ExperimentScale

        tiny = ExperimentScale(
            name="small",
            flat_routers=24,
            flat_hosts=12,
            num_ases=2,
            routers_per_as=4,
            multi_hosts=8,
            http_clients=6,
            http_servers=2,
            http_mean_gap_s=0.5,
            num_engines=2,
            app_processes=2,
            scalapack_iterations=1,
            duration_s=1.0,
            profile_duration_s=0.5,
        )
        monkeypatch.setitem(SCALES, "small", tiny)
        rc = main(
            [
                "experiment", "single-as", "scalapack",
                "--backend", "mp", "--procs", "2",
                "--scale", "small", "--seed", "1",
                "--obs-out", str(tmp_path),
            ]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "obs_mp_snapshot.json").read_text())
        assert doc["meta"]["backend"] == "mp"
        labels = [s["label"] for s in doc["shards"]]
        assert labels[0] == "controller"
        assert {"worker-0", "worker-1"} <= set(labels)
        assert doc["measured_windows"]
        assert doc["calibration"]["windows"]
        assert doc["counters"]["engine.events.executed"] > 0
        out = capsys.readouterr().out
        assert "measured per-shard wall decomposition" in out
        assert "merged observability snapshot written to" in out
        # The p-line gives exact percentiles of one wait per (window, shard).
        waits_ms = [m["barrier_wait_s"] * 1e3 for m in doc["measured_windows"]]
        p50, p95, p99 = np.percentile(waits_ms, (50, 95, 99))
        assert (f"barrier wait per window: p50 {p50:.4f} ms, p95 {p95:.4f} ms, "
                f"p99 {p99:.4f} ms") in out
