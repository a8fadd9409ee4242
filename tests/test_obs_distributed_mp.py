"""End-to-end distributed observability over real worker processes.

The headline invariant of ``obs.distributed``: for deterministic
instruments, the merge of N shipped worker registries (plus the
controller's own) *equals* the single-process observed run on the same
workload — procs 1, 2, and 4, under both fork and spawn start methods —
even after an observed run on a bigger network in the same process.
Plus the ``--backend mp --obs-out`` CLI path writing one merged JSON
document.
"""

from __future__ import annotations

import json
from dataclasses import replace

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

#: Instruments only a distributed run records; excluded from the
#: single-process identity comparison by construction.
MP_ONLY = ("parallel.", "calibration.")
#: Work every process repeats for itself (each worker builds its own
#: OSPF trees): it sums over workers, so no single process can equal it.
PER_PROCESS = ("routing.spf.",)


def spec():
    return chain_spec(num_nodes=8, latency_s=LOOKAHEAD, packets=20)


def deterministic_view(reg: Registry) -> dict:
    """``export.snapshot`` minus the wall-clock timers and the names no
    single process can match."""
    doc = export.snapshot(reg)
    del doc["timers"]
    for section in ("counters", "vectors", "gauges", "histograms"):
        doc[section] = {
            n: v for n, v in doc[section].items()
            if not n.startswith(MP_ONLY + PER_PROCESS)
        }
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


def build_chain_reporting_trees(engine, params):
    """``build_chain_scenario`` whose ``collect()`` adds the shard's own
    ``trees_built`` — the ground truth the merged counter must sum to."""
    scenario = build_chain_scenario(engine, params)
    collect = scenario.collect
    fib = collect.__self__.sim.fib

    def collect_with_trees():
        out = collect()
        out["trees_built"] = fib.route_recompute_stats()["trees_built"]
        return out

    scenario.collect = collect_with_trees
    return scenario


class TestPerWorkerSpf:
    def test_merged_spf_trees_sum_the_workers_trees_built(self):
        reporting = replace(spec(), builder=f"{__name__}:build_chain_reporting_trees")
        with observed_run():
            engine = ParallelConservativeEngine(
                ASSIGNMENT, NUM_LPS, LOOKAHEAD, procs=2, start_method="fork"
            )
            result = engine.run_scenario(reporting, until=DURATION)
            merged = merged_registry_snapshot(result)
        built = [part["trees_built"] for part in result.collected]
        # Packets cross the chain both ways, so both workers need both
        # trees, and the first ask builds the 8-member chain's one block
        # of trees: the work is replicated, and the merge must say so.
        assert built == [8, 8]
        assert merged.get_counter(names.ROUTING_SPF_TREES).value == sum(built)
        timer = merged.get_timer(names.ROUTING_SPF_SECONDS)
        assert timer.count == 2 and timer.total_s > 0.0  # one block per worker
        per_worker = [
            reg.get_counter(names.ROUTING_SPF_TREES).value
            for reg in result.worker_registries.values()
        ]
        assert per_worker == built


class TestPerWorkerBgp:
    """Every worker converges BGP for its own plane and replays every
    session reset on the control lane, so ``bgp.*`` is work repeated
    per worker, like ``routing.spf.*``: a merged snapshot sums it, and
    reads ``procs`` times the 1-process reference. Nothing else moves."""

    def test_merged_bgp_counts_are_the_reference_once_per_worker(self):
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
        bgp = {n: v for n, v in ref["counters"].items() if n.startswith("bgp.")}
        assert set(bgp) == {
            names.BGP_UPDATES_SENT, names.BGP_UPDATES_RECEIVED,
            names.BGP_DECISIONS, names.BGP_ITERATIONS,
        }
        assert all(v > 0 for v in bgp.values())
        assert {n: merged["counters"][n] for n in bgp} == {n: 2 * v for n, v in bgp.items()}
        assert ref["counters"][names.FAULTS_BGP_SESSION_RESETS] == 1
        for doc in (ref, merged):
            doc["counters"] = {n: v for n, v in doc["counters"].items() if n not in bgp}
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
            registry = merged_registry_snapshot(result)
        cut = [m for m in merged.measured if is_checkpoint_window(m.window_index, every)]
        assert len(cut) == result.recovery["checkpoints_taken"] > 0
        assert all(m.checkpoint_s > 0.0 for m in cut)
        assert all(m.checkpoint_s == 0.0 for m in merged.measured if m not in cut)
        timer = registry.get_timer(names.PARALLEL_CHECKPOINT)
        assert timer.count == len(cut)
        assert timer.total_s == pytest.approx(sum(m.checkpoint_s for m in cut))


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
