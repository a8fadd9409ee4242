"""Tests for the traffic applications: HTTP, ScaLapack, GridNPB."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ShardEngine
from repro.netsim import NetworkSimulator, send_datagram
from repro.netsim.app import (
    GridNpbApp,
    HttpTraffic,
    ScaLapackApp,
    helical_chain,
    mixed_bag,
    visualization_pipeline,
)
from repro.online import Agent
from repro.routing import ForwardingPlane


@pytest.fixture()
def sim_env(flat_net, flat_fib):
    k = ShardEngine([0] * flat_net.num_nodes, 1, lookahead=1.0)
    sim = NetworkSimulator(flat_net, flat_fib, k)
    return k, sim


class TestHttp:
    def test_requests_flow(self, sim_env, flat_net):
        k, sim = sim_env
        hosts = flat_net.host_ids()
        http = HttpTraffic(sim, hosts[:10], hosts[10:14], seed=0,
                           mean_gap_s=0.5, stop_at=10.0)
        http.start()
        k.run(until=10.0)
        assert http.stats.requests_started > 10
        assert http.stats.responses_completed > 0
        assert http.stats.bytes_served > 0

    def test_response_times_recorded(self, sim_env, flat_net):
        k, sim = sim_env
        hosts = flat_net.host_ids()
        http = HttpTraffic(sim, hosts[:5], hosts[5:7], seed=1,
                           mean_gap_s=0.5, stop_at=5.0)
        http.start()
        k.run(until=8.0)
        assert all(t > 0 for t in http.stats.response_times)

    def test_stop_at_freezes(self, sim_env, flat_net):
        k, sim = sim_env
        hosts = flat_net.host_ids()
        http = HttpTraffic(sim, hosts[:5], hosts[5:7], seed=1,
                           mean_gap_s=0.2, stop_at=2.0)
        http.start()
        k.run(until=2.0)
        count_at_stop = http.stats.requests_started
        k.run(until=10.0)
        assert http.stats.requests_started == count_at_stop

    def test_empty_sets_rejected(self, sim_env, flat_net):
        k, sim = sim_env
        with pytest.raises(ValueError):
            HttpTraffic(sim, [], flat_net.host_ids()[:2])

    def test_deterministic(self, flat_net, flat_fib):
        counts = []
        for _ in range(2):
            k = ShardEngine([0] * flat_net.num_nodes, 1, lookahead=5.0)
            sim = NetworkSimulator(flat_net, flat_fib, k)
            hosts = flat_net.host_ids()
            http = HttpTraffic(sim, hosts[:5], hosts[5:7], seed=42,
                               mean_gap_s=0.3, stop_at=5.0)
            http.start()
            k.run(until=5.0)
            counts.append(http.stats.requests_started)
        assert counts[0] == counts[1]


class TestScaLapack:
    def test_completes_iterations(self, sim_env, flat_net):
        k, sim = sim_env
        agent = Agent(sim)
        hosts = flat_net.host_ids()[:4]
        app = ScaLapackApp(agent, hosts, iterations=3, compute_s=0.05,
                           panel_bytes=20_000, block_bytes=10_000)
        app.start()
        k.run(until=60.0)
        assert app.stats.finished
        assert app.stats.iterations_completed == 3

    def test_communication_pattern(self, sim_env, flat_net):
        k, sim = sim_env
        agent = Agent(sim)
        hosts = flat_net.host_ids()[:4]
        app = ScaLapackApp(agent, hosts, iterations=2, compute_s=0.01,
                           panel_bytes=10_000, block_bytes=5_000)
        app.start()
        k.run(until=60.0)
        # per iteration: (P-1) broadcasts + P ring transfers
        assert app.stats.transfers == 2 * (3 + 4)

    def test_shrinking_panels(self, sim_env, flat_net):
        k, sim = sim_env
        agent = Agent(sim)
        app = ScaLapackApp(agent, flat_net.host_ids()[:3], iterations=10)
        assert app._scaled(100_000, 0) > app._scaled(100_000, 8)

    def test_needs_two_processes(self, sim_env, flat_net):
        k, sim = sim_env
        agent = Agent(sim)
        with pytest.raises(ValueError):
            ScaLapackApp(agent, flat_net.host_ids()[:1])

    def test_finish_callback(self, sim_env, flat_net):
        k, sim = sim_env
        agent = Agent(sim)
        finished = []
        app = ScaLapackApp(agent, flat_net.host_ids()[:3], iterations=1,
                           compute_s=0.01, on_finish=lambda t: finished.append(t))
        app.start()
        k.run(until=60.0)
        assert finished == [app.stats.finished_at]


class TestWorkflows:
    def test_helical_chain_structure(self):
        wf = helical_chain(rounds=3)
        assert len(wf.tasks) == 9
        assert wf.sources == [0]
        wf.validate_acyclic()

    def test_visualization_pipeline_structure(self):
        wf = visualization_pipeline(width=3, depth=3)
        assert len(wf.tasks) == 9
        assert len(wf.sources) == 3
        wf.validate_acyclic()

    def test_mixed_bag_structure(self):
        wf = mixed_bag(seed=1)
        assert len(wf.tasks) == 9
        wf.validate_acyclic()

    def test_mixed_bag_uneven_sizes(self):
        wf = mixed_bag(seed=1)
        sizes = [t.output_bytes for t in wf.tasks]
        assert max(sizes) > 1.5 * min(sizes)

    def test_cycle_detection(self):
        wf = helical_chain(rounds=1)
        wf.add_edge(2, 0)  # close a cycle
        with pytest.raises(ValueError, match="cycle"):
            wf.validate_acyclic()

    @pytest.mark.parametrize("factory", [helical_chain, visualization_pipeline, mixed_bag])
    def test_all_workflows_execute(self, sim_env, flat_net, factory):
        k, sim = sim_env
        agent = Agent(sim)
        hosts = flat_net.host_ids()[:3]
        app = GridNpbApp(agent, hosts, factory())
        app.start()
        k.run(until=120.0)
        assert app.stats.finished
        assert app.stats.iterations_completed == len(app.workflow.tasks)

    def test_tasks_wait_for_all_inputs(self, sim_env, flat_net):
        k, sim = sim_env
        agent = Agent(sim)
        wf = mixed_bag(seed=0)
        app = GridNpbApp(agent, flat_net.host_ids()[:5], wf)
        app.start()
        k.run(until=120.0)
        assert app.stats.finished
        assert app.stats.transfers == sum(len(t.successors) for t in wf.tasks)

    def test_colocated_tasks_ok(self, sim_env, flat_net):
        # All tasks on ONE host: pure loopback, must still complete.
        k, sim = sim_env
        agent = Agent(sim)
        app = GridNpbApp(agent, flat_net.host_ids()[:1], helical_chain())
        app.start()
        k.run(until=120.0)
        assert app.stats.finished
