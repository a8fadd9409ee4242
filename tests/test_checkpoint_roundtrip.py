"""Checkpoint round-trip properties: capture -> encode -> restore is exact.

The recovery protocol's correctness rests on one invariant: restoring a
shard from its checkpoint blob reproduces the captured barrier state
*exactly* — same pending events in the same canonical order, same
clock, same tiebreak counter, same scenario dynamics — so a respawned
worker re-derives bit-identical windows. These properties drive a real
shard (the chain workload on a `ShardEngine`) to a randomized barrier,
checkpoint it, rebuild from the blob, and demand a fixpoint: the
rebuilt shard's own checkpoint must be byte-equal to the original, and
the sha256 digest must be stable across repeated encodes and across
processes. The scenario is drawn from three shapes: the fault-free
chain, the chain under a loss + corruption burst (a link's fault stream
is created mid-run), and chained UDP injection over a small generated
network (the shape of the benchmark's checkpointed workload).

A cut holds the link table's columns, and the per-LP states it also
carries are selections of those columns; the oracle property below
holds them to what the per-link capture they replaced
(``tests/_hop_oracle.py``'s ``OracleLinkRuntime``) took of each link's
LP slice.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import _hop_oracle as oracle
from repro.engine import ShardEngine
from repro.engine.parallel.shard import (
    ShardEngine,
    _build_shard,
    _encode_worker_checkpoint,
    _restore_shard_from_blob,
)
from repro.engine.recovery import checkpoint_digest
from repro.engine.windows import iter_windows
from repro.experiments.shard import (
    LpStatePort,
    chain_spec,
    udp_spec,
)
from repro.faults import FaultEvent, FaultKind
from repro.netsim import NetworkSimulator
from repro.netsim.link import FAULT, RED
from repro.routing import ForwardingPlane
from repro.serialization import decode_payload, encode_payload
from repro.topology import Network, NodeKind, generate_flat_network

NUM_NODES = 8
LATENCY_S = 1e-4
UNTIL = 0.05
ASSIGNMENT = np.array([0, 0, 0, 0, 1, 1, 1, 1])
#: a loss + corruption burst on the chain's link 2 - 3 (LP 0)
BURST = [
    FaultEvent(
        0.002, FaultKind.LOSS_BURST_START, (2,), (("corrupt_prob", 0.2), ("loss_prob", 0.3))
    ),
    FaultEvent(0.02, FaultKind.LOSS_BURST_END, (2,)),
]
UDP_NET = generate_flat_network(num_routers=10, num_hosts=6, seed=3)
UDP_ASSIGNMENT = (np.arange(UDP_NET.num_nodes) >= UDP_NET.num_nodes // 2).astype(np.int64)
UDP_LOOKAHEAD = min(
    l.latency_s for l in UDP_NET.links if UDP_ASSIGNMENT[l.u] != UDP_ASSIGNMENT[l.v]
)
#: room for as many windows as the chain has
UDP_UNTIL = UNTIL / LATENCY_S * UDP_LOOKAHEAD
CASES = ("chain", "chain + burst", "udp")


def _case(case: str, packets: int, seed: int):
    """``(spec, assignment, lookahead, until)`` of one scenario shape."""
    if case == "udp":
        spec = udp_spec(
            UDP_NET, UDP_UNTIL, packets=packets, seed=seed, chain_injects=True
        )
        return spec, UDP_ASSIGNMENT, UDP_LOOKAHEAD, UDP_UNTIL
    spec = chain_spec(
        num_nodes=NUM_NODES, latency_s=LATENCY_S, packets=packets, seed=seed,
        faults=BURST if case == "chain + burst" else None,
    )
    return spec, ASSIGNMENT, LATENCY_S, UNTIL


def _run_to_window(case: str, packets: int, seed: int, stop_window: int):
    """One shard owning every LP, run to the end of ``stop_window``."""
    spec, assignment, lookahead, until = _case(case, packets, seed)
    engine = ShardEngine(
        assignment, 2, lookahead, owned_lps=[0, 1], shard_id=0, num_shards=1
    )
    scenario, fn_to_name, name_to_fn = _build_shard(engine, spec)
    engine.seal_setup()
    last = 0
    windows = list(iter_windows(0.0, lookahead, until))
    for w, _start, end in windows:
        if w > stop_window:
            break
        engine.run_window(w, end)
        last = w
    return spec, (assignment, 2, lookahead), windows, engine, scenario, fn_to_name, last


@settings(max_examples=18, deadline=None)
@given(
    case=st.sampled_from(CASES),
    packets=st.integers(min_value=5, max_value=30),
    seed=st.integers(min_value=0, max_value=20),
    stop_window=st.integers(min_value=0, max_value=400),
)
def test_capture_encode_decode_restore_is_a_fixpoint(case, packets, seed, stop_window):
    spec, layout, _windows, engine, scenario, fn_to_name, w = _run_to_window(
        case, packets, seed, stop_window
    )
    blob = _encode_worker_checkpoint(engine, scenario, fn_to_name, w, 0)

    # Restore into a freshly built shard and re-checkpoint: byte-equal.
    r_engine, r_scenario, r_f2n, _n2f, payload = _restore_shard_from_blob(
        blob, *layout, spec, True, 1
    )
    again = _encode_worker_checkpoint(r_engine, r_scenario, r_f2n, w, 0)
    assert again == blob
    assert checkpoint_digest(again) == checkpoint_digest(blob)
    assert payload["window_index"] == w
    assert payload["engine"]["now"] == engine.now
    assert payload["engine"]["kcount"] == engine._kcount

    # Encoding the same barrier twice is deterministic (the canonical
    # queue ordering is independent of heap layout).
    assert _encode_worker_checkpoint(engine, scenario, fn_to_name, w, 0) == blob


@settings(max_examples=18, deadline=None)
@given(
    case=st.sampled_from(CASES),
    packets=st.integers(min_value=5, max_value=30),
    seed=st.integers(min_value=0, max_value=20),
    stop_window=st.integers(min_value=0, max_value=400),
)
def test_restored_shard_replays_identical_windows(case, packets, seed, stop_window):
    # Beyond the static fixpoint: the restored shard must *behave*
    # identically — running both engines one more window produces the
    # same event count, clock, and a byte-equal next checkpoint.
    spec, layout, windows, engine, scenario, fn_to_name, w = _run_to_window(
        case, packets, seed, stop_window
    )
    blob = _encode_worker_checkpoint(engine, scenario, fn_to_name, w, 0)
    r_engine, r_scenario, r_f2n, _n2f, _payload = _restore_shard_from_blob(
        blob, *layout, spec, True, 1
    )
    if w + 1 < len(windows):
        nxt, _start, end = windows[w + 1]
        ran = engine.run_window(nxt, end)
        r_ran = r_engine.run_window(nxt, end)
        assert r_ran == ran
        assert r_engine.now == engine.now
        assert r_engine._kcount == engine._kcount
        after = _encode_worker_checkpoint(engine, scenario, fn_to_name, nxt, 0)
        r_after = _encode_worker_checkpoint(r_engine, r_scenario, r_f2n, nxt, 0)
        assert r_after == after


def _digest_in_subprocess(blob: bytes) -> str:
    with multiprocessing.get_context("fork").Pool(1) as pool:
        return pool.apply(checkpoint_digest, (blob,))


def test_digest_is_stable_across_processes():
    # The controller verifies worker-computed digests; a digest that
    # depended on process identity (hash randomization, id()s) would
    # poison every cross-process checkpoint verification.
    _spec, _layout, _windows, engine, scenario, fn_to_name, w = _run_to_window(
        "chain", 20, 7, 100
    )
    blob = _encode_worker_checkpoint(engine, scenario, fn_to_name, w, 0)
    assert _digest_in_subprocess(blob) == checkpoint_digest(blob)
    payload = decode_payload(blob)
    assert payload["shard_id"] == 0
    assert sorted(payload["engine"]["queues"]) == [0, 1]


# ----------------------------------------------------------------------
# Oracle: an LP state restores as the link's own LP slice
# ----------------------------------------------------------------------
#: one link's state: ``None`` = as built, else what to move off it
LINK_STATE = st.none() | st.fixed_dictionaries(
    {
        "busy_until": st.lists(st.floats(0.0, 10.0), min_size=2, max_size=2),
        "packets_carried": st.lists(st.integers(0, 99), min_size=2, max_size=2),
        "failed": st.booleans(),
        "red_draws": st.integers(0, 3),
        "fault_draws": st.integers(0, 2),
    }
)


def _set_link_states(sim: NetworkSimulator, old_links: list, states: list) -> None:
    """The same states onto the simulator's table and onto old links."""
    table = sim.link_table
    for i, (old, state) in enumerate(zip(old_links, states)):
        if state is None:
            continue
        table.busy_until[2 * i:2 * i + 2] = old.busy_until[:] = state["busy_until"]
        table.packets_carried[2 * i:2 * i + 2] = old.packets_carried[:] = state["packets_carried"]
        sim.links[i].failed = old.failed = state["failed"]
        for _ in range(state["red_draws"]):  # 0: the RED stream stays uncreated
            table.stream(i, RED).random()
            old._red_stream().random()
        for _ in range(state["fault_draws"]):
            table.stream(i, FAULT).random()
            old._fault_draw()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lp_states_selected_from_the_cut_restore_as_each_links_own_slice(data):
    n = data.draw(st.integers(2, 7), label="nodes")
    net = Network()
    for _ in range(n):
        net.add_node(NodeKind.ROUTER)
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    for u, v in data.draw(st.lists(ends, min_size=1, max_size=10), label="links"):
        net.add_link(u, v, 1e8, 1e-3)
    num_lps = data.draw(st.integers(1, 4), label="LPs")
    assignment = data.draw(
        st.lists(st.integers(0, num_lps - 1), min_size=n, max_size=n), label="assignment"
    )
    states = st.lists(LINK_STATE, min_size=len(net.links), max_size=len(net.links))
    at_cut = data.draw(states, label="link states at the cut")
    on_adopter = data.draw(states, label="link states on the adopting shard")

    def built(link_states: list) -> tuple[NetworkSimulator, list]:
        sim = NetworkSimulator(net, ForwardingPlane(net), ShardEngine([0] * net.num_nodes, 1, lookahead=1.0), queue_discipline="red")
        old_links = [oracle.OracleLinkRuntime(link, discipline="red") for link in net.links]
        _set_link_states(sim, old_links, link_states)
        return sim, old_links

    source, old_source = built(at_cut)
    port = LpStatePort(source, assignment)
    for lp in range(num_lps):
        selected = decode_payload(encode_payload(port.capture(lp)))
        own = {
            idx: lr.capture((assignment[lr.link.u] == lp, assignment[lr.link.v] == lp))
            for idx, lr in enumerate(old_source)
            if lp in (assignment[lr.link.u], assignment[lr.link.v])
        }
        via_cut, via_links = built(on_adopter)
        LpStatePort(via_cut, assignment).restore(lp, selected)
        for idx, state in decode_payload(encode_payload(own)).items():
            via_links[idx].restore(state)
        assert oracle.per_link(via_cut.links) == oracle.per_link(via_links)
