"""The fused per-hop path against the code it replaced.

``tests/_hop_oracle.py`` holds ``_handle_at``, ``SimKernel.run``, the
one-object-per-link ``LinkRuntime`` with its ``transmit`` and the
tuple-keyed forwarding plane as they were.
Every scenario here is run twice — once with them, once with what
ships — and everything a packet can leave
behind is asserted *identical*, not close: the traffic counters, the
per-node and per-link counts, the fault drops, the digest of the
forwarding decisions the run asked for, and the transmission record and
kernel trace float for float (compared as hex strings). The scenarios
are small random networks carrying UDP datagrams (loopback and
short-TTL ones included) and TCP transfers over drop-tail or RED queues
small enough to overflow, under a fault schedule of link and router
outages and a loss/corruption burst, on the engine three ways: on one
LP (against the old kernel), owning both LPs of a partition, and as a
2-shard in-process group (mail serialisation included).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import _hop_oracle as oracle
from repro.engine import ShardEngine
from repro.engine.parallel import LocalShardGroup, ScenarioSpec, ShardScenario
from repro.experiments.shard import _install_faults
from repro.faults import FaultEvent, FaultKind
from repro.netsim import NetworkSimulator
from repro.netsim.packet import Packet, Protocol
from repro.netsim.tcp import TcpReceiver, TcpSender
from repro.obs import export
from repro.obs.registry import observed_run
from repro.obs.trace import traced_run
from repro.routing import ForwardingPlane
from repro.topology import Network, NodeKind

#: every link is at least this slow, so any node -> LP map is conservative
LOOKAHEAD_S = 1e-3
LATENCIES = (1e-3, 2e-3, 5e-3)
BANDWIDTHS = (1e6, 1e7, 1e8)
#: the small ones overflow under a TCP window or a burst of datagrams
QUEUES = (3_000, 20_000, 1 << 20)
UNTIL_S = 0.3
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
COMPARE = settings(max_examples=25, deadline=None)


def random_params(seed: int, discipline: str) -> dict:
    """A picklable scenario: connected network, traffic, fault schedule."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}  # a random tree
    for _ in range(int(rng.integers(0, n))):
        u, v = sorted(int(x) for x in rng.choice(n, 2, replace=False))
        edges.add((u, v))  # a set: never a parallel link (see _hop_oracle)
    # Figures with full mantissas: on round ones (1e7 b/s, 1000 bytes) a
    # reordered expression often rounds to the same float and would pass.
    links = [
        (
            u, v,
            float(rng.choice(BANDWIDTHS) * rng.uniform(0.9, 1.1)),
            float(rng.choice(LATENCIES) * rng.uniform(1.0, 1.5)),
            int(rng.choice(QUEUES)),
        )
        for u, v in sorted(edges)
    ]
    datagrams = [
        (
            float(rng.uniform(0.0, 0.05)),
            int(rng.integers(0, n)),
            int(rng.integers(0, n)),  # may equal the source: loopback
            int(rng.choice((200, 1001, 1500))),
            int(rng.choice((1, 2, 64))),  # ttl: the short ones expire on the way
        )
        for _ in range(int(rng.integers(5, 60)))
    ]
    transfers = [
        (float(rng.uniform(0.0, 0.02)), *(int(x) for x in rng.choice(n, 2, replace=False)),
         int(rng.choice((3_000, 20_000, 60_000))))
        for _ in range(int(rng.integers(0, 3)))
    ]
    faults = []
    for _ in range(int(rng.integers(0, 3))):
        link_id = int(rng.integers(0, len(links)))
        t0, t1 = sorted(float(t) for t in rng.uniform(0.0, 0.1, 2))
        faults += [
            FaultEvent(t0, FaultKind.LINK_DOWN, (link_id,)),
            FaultEvent(t1, FaultKind.LINK_UP, (link_id,)),
        ]
    if rng.random() < 0.5:
        node = int(rng.integers(0, n))
        t0, t1 = sorted(float(t) for t in rng.uniform(0.0, 0.1, 2))
        faults += [
            FaultEvent(t0, FaultKind.ROUTER_DOWN, (node,)),
            FaultEvent(t1, FaultKind.ROUTER_UP, (node,)),
        ]
    if rng.random() < 0.7:
        link_id = int(rng.integers(0, len(links)))
        t0, t1 = sorted(float(t) for t in rng.uniform(0.0, 0.1, 2))
        burst = (("corrupt_prob", float(rng.choice((0.0, 0.2)))), ("loss_prob", 0.3))
        faults += [
            FaultEvent(t0, FaultKind.LOSS_BURST_START, (link_id,), burst),
            FaultEvent(t1, FaultKind.LOSS_BURST_END, (link_id,)),
        ]
    return {
        "nodes": n, "links": links, "datagrams": datagrams, "transfers": transfers,
        "faults": faults, "discipline": discipline, "oracle": False,
        "assignment": rng.integers(0, 2, n).tolist(),
    }


def build(engine, params: dict) -> ShardScenario:
    """Set ``params`` up on any engine; ``collect`` returns what a run left."""
    net = Network()
    for _ in range(params["nodes"]):
        net.add_node(NodeKind.ROUTER)
    for u, v, bandwidth, latency, queue in params["links"]:
        net.add_link(u, v, bandwidth, latency, queue)
    fib = (oracle.OracleForwardingPlane if params["oracle"] else ForwardingPlane)(net)
    simulator = oracle.OracleSimulator if params["oracle"] else NetworkSimulator
    sim = simulator(
        net, fib, engine, record_transmissions=True, queue_discipline=params["discipline"]
    )
    _install_faults(engine, sim, fib, params)
    for i, (t, src, dst, size, ttl) in enumerate(params["datagrams"]):
        packet = Packet(
            src=src, dst=dst, size_bytes=size, protocol=Protocol.UDP, flow_id=i, seq=i, ttl=ttl
        )
        engine.schedule_at(t, sim.inject, node=src, args=(packet,))
    for i, (t, src, dst, payload) in enumerate(params["transfers"]):
        # start_transfer with an explicit flow id: every shard replays
        # this set-up, and the global allocator would hand each another.
        flow_id = 1_000_000 + i
        sender = TcpSender(sim, flow_id, src, dst, payload)
        receiver = TcpReceiver(sim, flow_id, src, dst, sender.total_segments)
        sim.register_tcp_endpoint(flow_id, src, sender, "snd")
        sim.register_tcp_endpoint(flow_id, dst, receiver, "rcv")
        engine.schedule_at(t, sender.start, node=src)

    def collect() -> dict:
        tx_times, tx_from, tx_to = sim.transmissions()
        return {
            "counters": sim.counters.as_dict(),
            "node_packets": np.asarray(sim.node_packets, dtype=np.int64).tolist(),
            "dropped_fault": sim.dropped_fault,
            "links": oracle.per_link(sim.links),
            "fib_digest": fib.digest(),
            "transmissions": ([t.hex() for t in tx_times.tolist()], tx_from.tolist(), tx_to.tolist()),
            "events_executed": engine.events_executed,
        }

    return ShardScenario(handlers={"handle_at": sim._handle_at, "inject": sim.inject}, collect=collect)


def both(params: dict, run) -> tuple:
    """``run(params)`` with the old hop code, then with what ships."""
    return run({**params, "oracle": True}), run({**params, "oracle": False})


def assert_something_happened(collected: dict) -> None:
    assert collected["counters"]["sent"] > 0 and collected["events_executed"] > 0


def on_kernel(params: dict) -> dict:
    if params["oracle"]:
        kernel = oracle.OracleKernel(record_trace=True)
    else:
        kernel = ShardEngine([0] * params["nodes"], 1, lookahead=UNTIL_S, record_trace=True)
    collect = build(kernel, params).collect
    kernel.run(until=UNTIL_S)
    times, nodes = kernel.trace()
    return {**collect(), "trace": ([t.hex() for t in times.tolist()], nodes.tolist()), "now": kernel.now}


def on_conservative(params: dict) -> dict:
    engine = ShardEngine(params["assignment"], 2, LOOKAHEAD_S)
    collect = build(engine, params).collect
    engine.run(until=UNTIL_S)
    windows = [
        (ws.events_per_lp.tolist(), ws.remote_sends_per_lp.tolist()) for ws in engine.window_stats
    ]
    return {**collect(), "windows": windows}


def on_two_shards(params: dict) -> dict:
    group = LocalShardGroup(params["assignment"], 2, LOOKAHEAD_S, shards=[[0], [1]])
    result = group.run_scenario(ScenarioSpec("test_hop_oracle:build", params), until=UNTIL_S)
    return {"shards": result.collected, "mail_bytes": result.total_mail_bytes}


@COMPARE
@given(seed=SEEDS, discipline=st.sampled_from(["droptail", "red"]))
def test_sequential_kernel_runs_are_identical(seed, discipline):
    old, new = both(random_params(seed, discipline), on_kernel)
    assert_something_happened(old)
    assert new == old


@COMPARE
@given(seed=SEEDS, discipline=st.sampled_from(["droptail", "red"]))
def test_conservative_engine_runs_are_identical(seed, discipline):
    old, new = both(random_params(seed, discipline), on_conservative)
    assert_something_happened(old)
    assert new == old


@COMPARE
@given(seed=SEEDS, discipline=st.sampled_from(["droptail", "red"]))
def test_two_shard_runs_are_identical(seed, discipline):
    old, new = both(random_params(seed, discipline), on_two_shards)
    assert sum(shard["counters"]["sent"] for shard in old["shards"]) > 0
    assert new == old


@settings(max_examples=10, deadline=None)
@given(seed=SEEDS, discipline=st.sampled_from(["droptail", "red"]))
def test_observed_and_traced_runs_record_the_same(seed, discipline):
    """The obs arm of the hop path and the fault records, which the runs above leave off."""

    def observed(params: dict) -> tuple:
        with observed_run() as registry, traced_run() as tracer:
            collected = on_kernel(params)
        instruments = export.snapshot(registry)
        # The engine's instruments: the old kernel kept none.
        engine = {
            name: instruments[kind].pop(name)
            for kind in ("counters", "vectors")
            for name in list(instruments[kind])
            if name.startswith(("engine.", "parallel."))
        }
        return collected, instruments, list(tracer.faults), engine

    old, new = both(random_params(seed, discipline), observed)
    assert new[:3] == old[:3]
    assert old[3] == {}
    assert new[3]["engine.events.executed"] == old[0]["events_executed"]
    assert new[3]["engine.windows.completed"] == 1


def test_the_scenarios_reach_every_arm_of_the_hop_path():
    """Or the suite above could pass by never leaving the common case."""
    seen = {"dropped_queue": 0, "dropped_ttl": 0, "unroutable": 0, "dropped_fault": 0,
            "lost": 0, "corrupted": 0}
    for seed in range(40):
        for discipline in ("droptail", "red"):
            collected = on_kernel(random_params(seed, discipline))
            for key in ("dropped_queue", "dropped_ttl", "unroutable"):
                seen[key] += collected["counters"][key]
            seen["dropped_fault"] += collected["dropped_fault"]
            seen["lost"] += sum(sum(link[3]) for link in collected["links"])
            seen["corrupted"] += sum(sum(link[4]) for link in collected["links"])
    assert all(seen.values()), seen
