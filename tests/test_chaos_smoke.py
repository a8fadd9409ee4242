"""Tier-1 chaos smoke: a fault scenario heals, end to end.

One tiny multi-AS run with a link flap, a router restart, and a BGP
session reset. The acceptance story from the robustness issue: the
faults trace shows the injections, OSPF recomputes routes around the
topology faults, BGP withdraws and then re-advertises over the reset
session, and the run ends RECOVERED. A second run with the same seed
must reproduce the schedule, the fault trace, and the delivery counters
exactly.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments import run_chaos_experiment
from repro.experiments.config import SCALES
from repro.faults import FaultScenario

TINY = replace(
    SCALES["small"],
    name="tiny-chaos",
    num_ases=6,
    routers_per_as=6,
    multi_hosts=48,
    http_clients=24,
    http_servers=8,
    app_processes=4,
    scalapack_iterations=3,
    duration_s=10.0,
)

SCENARIO = FaultScenario(
    name="smoke",
    start_s=1.0,
    end_s=5.0,
    link_flaps=1,
    flap_cycles=1,
    flap_down_s=0.4,
    router_restarts=1,
    restart_down_s=0.8,
    bgp_resets=1,
    bgp_down_s=1.0,
)


def _run(seed: int = 0):
    return run_chaos_experiment(
        "multi-as", "scalapack", SCENARIO, scale=TINY, seed=seed, duration_s=10.0
    )


@pytest.fixture(scope="module")
def result():
    return _run()


class TestChaosSmoke:
    def test_run_recovers(self, result):
        assert result.links_restored
        assert result.routers_restored
        assert result.sessions_recovered
        assert result.routes_recomputed
        assert result.recovered

    def test_faults_were_injected_and_traced(self, result):
        assert result.num_fault_events == 5  # flap pair + restart pair + reset
        assert result.counts.injected == 5
        kinds = {r.kind for r in result.fault_records}
        assert {"link.down", "link.up", "router.down", "router.up"} <= kinds

    def test_ospf_reconverges_around_topology_faults(self, result):
        # Each of the four topology transitions invalidates routes and the
        # forwarding plane rebuilds trees on demand afterwards.
        assert result.route_recompute["invalidations"] >= 4
        assert result.route_recompute["trees_built"] > 0

    def test_bgp_withdraws_then_readvertises(self, result):
        kinds = [r.kind for r in result.fault_records]
        assert "bgp.withdrawn" in kinds
        assert "bgp.reestablished" in kinds
        assert kinds.index("bgp.withdrawn") < kinds.index("bgp.reestablished")
        assert result.bgp is not None
        assert result.bgp.resets >= 1
        assert result.bgp.reestablished == result.bgp.resets
        assert result.bgp.gave_up == 0
        assert result.bgp.withdraw_iterations >= 1
        assert result.bgp.readvertise_iterations >= 1

    def test_traffic_flows_despite_faults(self, result):
        assert result.traffic["sent"] > 0
        assert result.traffic["delivered"] > 0

    def test_same_seed_reproduces_run_exactly(self, result):
        again = _run()
        assert again.schedule_digest == result.schedule_digest
        assert again.fault_trace_digest == result.fault_trace_digest
        assert again.traffic == result.traffic
        assert again.dropped_fault == result.dropped_fault
        assert again.counts.as_dict() == result.counts.as_dict()


class TestProcessChaosSmoke:
    """``repro chaos --kill-workers``: SIGKILLed workers, byte-identity."""

    def test_kill_workers_cli_recovers_and_exits_zero(self, capsys):
        from repro.__main__ import main

        code = main([
            "chaos", "single-as", "scalapack",
            "--kill-workers", "2", "--procs", "2",
            "--duration", "1.0", "--checkpoint-every", "32",
            "--scale", "small",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict        : RECOVERED" in out
        assert "byte-identical to the 1-process reference" in out
        assert "proc.sigkill" in out
        assert "respawn(s)" in out
        assert "reference run  : " in out

    def test_report_prints_what_the_reference_delivered(self):
        """RECOVERED against a mostly unroutable reference must say so."""
        from repro.experiments.chaos import ProcessChaosResult, format_process_chaos_report

        result = ProcessChaosResult(
            network="multi-as", procs=2, seed=0, duration_s=0.5, kills=1,
            on_worker_loss="respawn", plan_digest="0" * 64, fault_lines=[],
            reference_counters={"sent": 920, "delivered": 64, "dropped_queue": 0,
                                "dropped_ttl": 0, "unroutable": 856},
            recovery={"detections": 1, "respawns": 1, "windows_replayed": 3,
                      "adoptions": 0, "checkpoints_taken": 2, "checkpoint_bytes": 10},
            byte_identical=True, counters_match=True,
        )
        lines = format_process_chaos_report(result).splitlines()
        assert lines[-2:] == [
            "reference run  : 64 delivered, 856 unroutable of 920 sent",
            "verdict        : RECOVERED",
        ]
