"""End-to-end tests of the conservative parallel engine on real workloads.

The strongest integration evidence in the suite: the same network
simulation runs on the sequential kernel and on the barrier-synchronized
parallel engine, and (for background traffic, which is fully node-local
in its control flow) produces *identical* results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Approach, MappingPipeline
from repro.engine import ShardEngine, SimKernel
from repro.experiments import ExperimentScale, build_network, install_workload
from repro.experiments.parallel import predict_from_windows, run_parallel_workload
from repro.experiments.runner import cluster_for_scale
from repro.netsim import NetworkSimulator
from repro.netsim.app import HttpTraffic
from repro.online import Agent
from repro.topology import pick_clients_and_servers

SCALE = ExperimentScale(
    name="parallel-test",
    flat_routers=100,
    flat_hosts=40,
    num_ases=6,
    routers_per_as=10,
    multi_hosts=30,
    http_clients=18,
    http_servers=6,
    http_mean_gap_s=0.4,
    num_engines=4,
    app_processes=4,
    scalapack_iterations=2,
    duration_s=5.0,
    profile_duration_s=2.0,
)


@pytest.fixture(scope="module")
def mapped_network():
    net, fib = build_network("single-as", SCALE, seed=2)
    pipeline = MappingPipeline(net, SCALE.num_engines, cluster_for_scale(SCALE), seed=0)
    mapping = pipeline.run(Approach.HTOP)
    return net, fib, mapping


class TestHttpEquivalence:
    """Background HTTP is node-local in control flow: both engines must
    produce byte-identical results."""

    def _run(self, net, fib, engine_factory, clients, servers):
        sched = engine_factory()
        sim = NetworkSimulator(net, fib, sched)
        http = HttpTraffic(sim, clients, servers, seed=5, mean_gap_s=0.3, stop_at=4.0)
        http.start()
        sched.run(until=4.0)
        return sim, http, sched.events_executed

    def test_identical_behavior(self, mapped_network, rng):
        net, fib, mapping = mapped_network
        hosts = net.host_ids()
        clients, servers = hosts[:12], hosts[12:16]

        sim_a, http_a, events_a = self._run(net, fib, SimKernel, clients, servers)

        lookahead = min(mapping.achieved_mll_s, 4.0)
        sim_b, http_b, events_b = self._run(
            net,
            fib,
            lambda: ShardEngine(
                mapping.assignment, mapping.num_engines, lookahead, strict=True
            ),
            clients,
            servers,
        )

        assert events_a == events_b
        assert http_a.stats.requests_started == http_b.stats.requests_started
        assert http_a.stats.responses_completed == http_b.stats.responses_completed
        assert http_a.stats.bytes_served == http_b.stats.bytes_served
        assert np.allclose(
            sorted(http_a.stats.response_times), sorted(http_b.stats.response_times)
        )
        assert np.array_equal(sim_a.node_packets, sim_b.node_packets)
        assert sim_a.counters.as_dict() == sim_b.counters.as_dict()


class TestFullWorkloadParallel:
    @pytest.mark.parametrize("app_kind", ["scalapack", "gridnpb"])
    def test_runs_strict_without_violations(self, mapped_network, app_kind):
        net, fib, mapping = mapped_network
        engine, sim, handles = run_parallel_workload(
            net, fib, app_kind, SCALE, mapping, duration_s=8.0, seed=1, strict=True
        )
        assert engine.lookahead_violations == 0
        assert engine.events_executed > 1000
        assert handles.http.stats.responses_completed > 0
        # Cross-LP traffic actually flowed.
        assert sum(int(ws.remote_sends_per_lp.sum()) for ws in engine.window_stats) > 0

    def test_apps_complete_in_parallel_mode(self, mapped_network):
        net, fib, mapping = mapped_network
        engine, sim, handles = run_parallel_workload(
            net, fib, "scalapack", SCALE, mapping, duration_s=30.0, seed=1
        )
        assert handles.apps_finished

    def test_window_stats_account_all_events(self, mapped_network):
        net, fib, mapping = mapped_network
        engine, sim, handles = run_parallel_workload(
            net, fib, "gridnpb", SCALE, mapping, duration_s=6.0, seed=3
        )
        assert sum(ws.total_events for ws in engine.window_stats) == engine.events_executed

    def test_prediction_from_measured_windows(self, mapped_network):
        net, fib, mapping = mapped_network
        engine, sim, handles = run_parallel_workload(
            net, fib, "scalapack", SCALE, mapping, duration_s=6.0, seed=1
        )
        cluster = cluster_for_scale(SCALE)
        pred = predict_from_windows(engine.window_stats, engine.num_lps, cluster)
        assert pred.total_events == engine.events_executed
        assert pred.num_windows == len(engine.window_stats)
        assert pred.total_s > 0
        # Remote accounting agrees with the engine's own counters.
        assert np.allclose(
            pred.remote_per_lp, sum(ws.remote_sends_per_lp for ws in engine.window_stats)
        )

    def test_empty_engine_prediction(self):
        engine = ShardEngine(np.zeros(1, dtype=np.int64), 2, lookahead=1.0)
        cluster = cluster_for_scale(SCALE)
        pred = predict_from_windows(engine.window_stats, engine.num_lps, cluster)
        assert pred.total_events == 0
