"""Tests for experiment config, workloads, runner, and reports."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Approach
from repro.experiments import (
    APP_KINDS,
    DEFAULT_APPROACHES,
    ExperimentScale,
    SCALES,
    build_network,
    default_scale,
    evaluate_claims,
    format_figure,
    format_result,
    install_workload,
    run_experiment,
)
from repro.experiments.runner import cluster_for_scale
from repro.experiments.shard import DeliveryRecorder
from repro.engine import ShardEngine
from repro.netsim import NetworkSimulator
from repro.online import Agent
from repro.routing.fib import ForwardingPlane

MICRO = ExperimentScale(
    name="micro",
    flat_routers=80,
    flat_hosts=40,
    num_ases=8,
    routers_per_as=10,
    multi_hosts=36,
    http_clients=20,
    http_servers=6,
    http_mean_gap_s=0.4,
    num_engines=6,
    app_processes=4,
    scalapack_iterations=2,
    duration_s=4.0,
    profile_duration_s=2.0,
    event_cost_s=75e-6,
    remote_event_cost_s=190e-6,
)


class TestConfig:
    def test_scales_registry(self):
        assert {"small", "medium", "large", "paper"} <= set(SCALES)

    def test_paper_scale_matches_paper(self):
        p = SCALES["paper"]
        assert p.flat_routers == 20_000
        assert p.flat_hosts == 10_000
        assert p.num_ases == 100
        assert p.routers_per_as == 200
        assert p.http_clients == 8_000
        assert p.http_servers == 2_000
        assert p.http_mean_gap_s == 5.0
        assert p.http_mean_file_bytes == 50_000.0
        assert p.num_engines == 90

    def test_default_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert default_scale().name == "medium"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            default_scale()
        monkeypatch.delenv("REPRO_SCALE")
        assert default_scale().name == "small"

    def test_scaled_http_counts_clamped(self):
        c, s = MICRO.scaled_http_counts(10)
        assert c + s + MICRO.app_processes <= 10 + 2  # near-fit
        assert c >= 1 and s >= 1

    def test_scaled_http_counts_pass_through(self):
        c, s = MICRO.scaled_http_counts(1000)
        assert (c, s) == (20, 6)

    def test_cluster_for_scale(self):
        cl = cluster_for_scale(MICRO)
        assert cl.event_cost_s == MICRO.event_cost_s
        assert cl.num_engine_nodes == MICRO.num_engines


class TestBuildNetwork:
    def test_single_as(self):
        net = build_network("single-as", MICRO, seed=1)
        fib = ForwardingPlane(net)
        assert net.num_routers == MICRO.flat_routers
        assert fib.bgp is None

    def test_multi_as(self):
        net = build_network("multi-as", MICRO, seed=1)
        fib = ForwardingPlane(net)
        assert len(net.as_domains) == MICRO.num_ases
        assert fib.bgp is not None and fib.bgp.iterations > 0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_network("mesh", MICRO)


class TestInstallWorkload:
    def test_host_sets_disjoint(self):
        net = build_network("single-as", MICRO, seed=1)
        fib = ForwardingPlane(net)
        k = ShardEngine([0] * net.num_nodes, 1, lookahead=1.0)
        sim = NetworkSimulator(net, fib, k)
        agent = Agent(sim)
        handles = install_workload(sim, agent, net, "scalapack", MICRO, seed=0)
        everyone = handles.clients + handles.servers + handles.app_hosts
        assert len(everyone) == len(set(everyone))

    @pytest.mark.parametrize("app_kind", APP_KINDS)
    def test_apps_run_to_completion(self, app_kind):
        net = build_network("single-as", MICRO, seed=1)
        fib = ForwardingPlane(net)
        k = ShardEngine([0] * net.num_nodes, 1, lookahead=60.0)
        sim = NetworkSimulator(net, fib, k)
        agent = Agent(sim)
        handles = install_workload(sim, agent, net, app_kind, MICRO, seed=0,
                                   duration_s=60.0)
        k.run(until=60.0)
        assert handles.apps_finished
        assert handles.http.stats.responses_completed > 0

    def test_unknown_app_kind(self):
        net = build_network("single-as", MICRO, seed=1)
        fib = ForwardingPlane(net)
        k = ShardEngine([0] * net.num_nodes, 1, lookahead=1.0)
        sim = NetworkSimulator(net, fib, k)
        with pytest.raises(ValueError):
            install_workload(sim, Agent(sim), net, "hadoop", MICRO)

    def test_explicit_rng_matches_seed_path(self):
        """The explicit-Generator parameter replays the seed-derived split."""
        net = build_network("single-as", MICRO, seed=1)
        fib = ForwardingPlane(net)

        def split(**kwargs):
            k = ShardEngine([0] * net.num_nodes, 1, lookahead=1.0)
            sim = NetworkSimulator(net, fib, k)
            h = install_workload(sim, Agent(sim), net, "scalapack", MICRO, **kwargs)
            return (h.clients, h.servers, h.app_hosts)

        assert split(seed=9) == split(rng=np.random.default_rng(9))

    def test_same_seeded_run_twice_in_one_process_delivers_identically(self):
        """Flow ids are the simulator's, not the process's: the second run
        in a process repeats the first's ``(time, node, flow_id, seq)``."""
        net = build_network("single-as", MICRO, seed=1)
        fib = ForwardingPlane(net)

        def deliveries():
            k = ShardEngine([0] * net.num_nodes, 1, lookahead=3.0)
            sim = NetworkSimulator(net, fib, k)
            recorder = DeliveryRecorder(sim, k)
            install_workload(sim, Agent(sim), net, "scalapack", MICRO, seed=0,
                             duration_s=3.0)
            k.run(until=3.0)
            return [rec[2:] for rec in recorder.records]

        first = deliveries()
        assert first and min(rec[2] for rec in first) == 1
        assert deliveries() == first


class TestRunExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("single-as", "scalapack", scale=MICRO, seed=0)

    def test_rows_complete(self, result):
        assert [r.approach for r in result.rows] == DEFAULT_APPROACHES
        for row in result.rows:
            assert row.sim_time_s > 0
            assert row.achieved_mll_ms > 0
            assert 0 <= row.parallel_eff <= 1
            assert row.measured_imbalance >= 0

    def test_paper_shape_hierarchical_mll_larger(self, result):
        checks = evaluate_claims([result], ["mll-dominance", "htop-mll-above-top2"])
        assert all(c.holds for c in checks)

    def test_paper_shape_hprof_fastest(self, result):
        assert all(c.holds for c in evaluate_claims([result], ["time-near-tuned-flat"]))

    def test_events_counted(self, result):
        assert result.total_events > 1000
        for row in result.rows:
            assert row.prediction.total_events <= result.total_events

    def test_result_accessors(self, result):
        row = result.row(Approach.HPROF)
        assert row.approach is Approach.HPROF
        assert result.metric(Approach.HPROF, "sim_time_s") == row.sim_time_s
        with pytest.raises(KeyError):
            result.row(Approach.TOP)

    def test_report_rendering(self, result):
        text = format_result(result)
        assert "HPROF" in text and "TOP2" in text
        fig = format_figure([result], "sim_time_s")
        assert "Simulation Time" in fig
        assert "scalapack" in fig

    def test_format_figure_unknown_metric(self, result):
        with pytest.raises(ValueError):
            format_figure([result], "latency_budget")
