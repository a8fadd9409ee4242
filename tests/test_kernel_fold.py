"""The sequential engine is the frozen kernel, event by event.

``SimKernel`` folded into ``ShardEngine``: every modeled run (the PROF
profiling run, the simulate stage, modeled chaos, ``repro trace``) now
runs a ``ShardEngine`` on one LP, ``ShardEngine([0] * num_nodes, 1,
lookahead=duration_s)``. ``tests/_kernel_oracle.py`` keeps the kernel as
it was; here both run the same workloads and must leave the same
``(time, node)`` trace (every time compared as a float hex string), the
same delivery log in the same order, and the same counters and fault
traces — not the same multisets, which is all a comparison between one
LP and many can ask for. The workloads: the two applications through
the ``Agent`` with TCP retransmission timers cancelled on the way, the
differential chain under its fault schedule, and a modeled multi-AS
chaos run with BGP session resets.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from _kernel_oracle import KernelOracle
from repro.engine import ShardEngine
from repro.engine.events import Event
from repro.experiments import chaos
from repro.experiments.config import SCALES
from repro.experiments.shard import DeliveryRecorder
from repro.experiments.workloads import install_workload
from repro.faults import FaultScenario
from repro.netsim import NetworkSimulator
from repro.online import Agent
from repro.routing import ForwardingPlane
from repro.topology import generate_flat_network
from test_differential_determinism import FAULT_EVENTS, NUM_NODES, UNTIL, _run_with_faults

SMOKE = replace(
    SCALES["small"], name="smoke", flat_routers=60, flat_hosts=40, http_clients=24,
    http_servers=8, num_engines=4, app_processes=4, scalapack_iterations=2,
)
DURATION_S = 1.5
TINY_MULTI_AS = replace(
    SCALES["small"], name="tiny-chaos", num_ases=6, routers_per_as=6, multi_hosts=48,
    http_clients=24, http_servers=8, app_processes=4, scalapack_iterations=3,
)
CHAOS_S = 6.0
RESETS = FaultScenario(
    name="fold", start_s=1.0, end_s=4.0, link_flaps=1, flap_cycles=1, flap_down_s=0.4,
    router_restarts=1, restart_down_s=0.8, bgp_resets=2, bgp_down_s=1.0,
)


def oracle(num_nodes: int, duration_s: float) -> KernelOracle:
    return KernelOracle(record_trace=True)


def one_lp(num_nodes: int, duration_s: float) -> ShardEngine:
    return ShardEngine([0] * num_nodes, 1, lookahead=duration_s, record_trace=True)


def trace_hex(engine) -> tuple[list[str], list[int]]:
    times, nodes = engine.trace()
    return [t.hex() for t in times.tolist()], nodes.tolist()


def deliveries(recorder: DeliveryRecorder) -> list[tuple]:
    """``(time, node, flow_id, seq)``: the phase tag is the engine's own."""
    return [record[2:] for record in recorder.records]


def run_app(make_engine, app_kind: str) -> dict:
    net = generate_flat_network(SMOKE.flat_routers, SMOKE.flat_hosts, seed=0)
    engine = make_engine(net.num_nodes, DURATION_S)
    sim = NetworkSimulator(net, ForwardingPlane(net), engine, record_transmissions=True)
    recorder = DeliveryRecorder(sim, engine)
    handles = install_workload(sim, Agent(sim), net, app_kind, SMOKE, 0, DURATION_S)
    engine.run(until=DURATION_S)
    tx_times, tx_from, tx_to = sim.transmissions()
    return {
        "trace": trace_hex(engine),
        "deliveries": deliveries(recorder),
        "events": engine.events_executed,
        "now": engine.now,
        "counters": sim.counters.as_dict(),
        "node_packets": sim.node_packets.tolist(),
        "transmissions": ([t.hex() for t in tx_times.tolist()], tx_from.tolist(), tx_to.tolist()),
        "http": handles.http.stats.responses_completed,
    }


@pytest.mark.parametrize("app_kind", ["scalapack", "gridnpb"])
def test_applications_through_the_agent(app_kind, monkeypatch):
    cancels = []
    cancel = Event.cancel
    monkeypatch.setattr(Event, "cancel", lambda ev: cancels.append(ev.time) or cancel(ev))
    old = run_app(oracle, app_kind)
    assert cancels, "no retransmission timer was cancelled"
    old_cancels = list(cancels)
    cancels.clear()
    new = run_app(one_lp, app_kind)
    assert new == old
    assert cancels == old_cancels
    assert old["deliveries"] and old["counters"]["delivered"] > 0


def test_the_differential_chain_under_faults():
    runs = []
    for make_engine in (oracle, one_lp):
        engine = make_engine(NUM_NODES, UNTIL)
        sim, log, faults = _run_with_faults(engine, FAULT_EVENTS)
        runs.append({
            "trace": trace_hex(engine),
            "log": log,
            "faults": faults,
            "counters": sim.counters.as_dict(),
            "node_packets": sim.node_packets.tolist(),
            "dropped_fault": sim.dropped_fault,
            "lost": [lr.total_lost for lr in sim.links],
            "events": engine.events_executed,
        })
    old, new = runs
    assert old["faults"] and old["dropped_fault"] > 0
    assert new == old


def run_chaos(make_engine, obs_out=None) -> tuple[chaos.ChaosResult, dict]:
    """``run_chaos_experiment`` with its engine and simulator recorded.

    The shipped call builds the engine; the factory keeps its arguments
    and only adds ``record_trace`` (or swaps in the oracle).
    """
    made: dict = {}

    def engine_factory(assignment, num_lps, lookahead, **kwargs):
        assert list(assignment) == [0] * len(assignment) and num_lps == 1
        assert lookahead == CHAOS_S
        made["engine"] = make_engine(len(assignment), lookahead)
        return made["engine"]

    def simulator_factory(*args, **kwargs):
        sim = NetworkSimulator(*args, **kwargs)
        made["recorder"] = DeliveryRecorder(sim, made["engine"])
        return sim

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chaos, "ShardEngine", engine_factory)
        patch.setattr(chaos, "NetworkSimulator", simulator_factory)
        result = chaos.run_chaos_experiment(
            "multi-as", "scalapack", RESETS, scale=TINY_MULTI_AS, seed=0,
            duration_s=CHAOS_S, obs_out=obs_out,
        )
    return result, made


@pytest.fixture(scope="module")
def chaos_runs(tmp_path_factory):
    snapshot = tmp_path_factory.mktemp("fold") / "chaos.json"
    old = run_chaos(oracle)
    new = run_chaos(one_lp, obs_out=str(snapshot))
    return old, new, json.loads(snapshot.read_text())


def test_modeled_multi_as_chaos_with_session_resets(chaos_runs):
    (old, old_made), (new, new_made), _ = chaos_runs
    assert old.bgp is not None and old.bgp.resets > 0 and old.bgp.reestablished > 0
    assert old.fault_records and old.recovered
    for field in (
        "schedule_digest", "counts", "traffic", "dropped_fault", "packets_lost",
        "packets_corrupted", "route_recompute", "bgp", "fault_records",
        "fault_trace_digest", "links_restored", "routers_restored", "sessions_recovered",
    ):
        assert getattr(new, field) == getattr(old, field), field
    assert trace_hex(new_made["engine"]) == trace_hex(old_made["engine"])
    assert deliveries(new_made["recorder"]) == deliveries(old_made["recorder"])
    assert new_made["engine"].events_executed == old_made["engine"].events_executed


def test_a_modeled_snapshot_counts_its_engine(chaos_runs):
    _, (_, made), snapshot = chaos_runs
    engine = made["engine"]
    assert engine.events_executed > 0
    assert snapshot["counters"]["engine.events.executed"] == engine.events_executed
    assert snapshot["counters"]["engine.windows.completed"] == len(engine.window_stats) == 1
