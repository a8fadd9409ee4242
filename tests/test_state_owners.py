"""Every stateful object snapshots itself — and forgets no field.

Four objects own the dynamic state of a packet simulation:
:class:`LinkTable`, :class:`NetworkSimulator` (with its
:class:`TrafficCounters`), :class:`FaultInjector` (with its
:class:`FaultCounts`) and, on a multi-AS network,
:class:`BgpSessionManager` (with the RIBs of its engine's speakers).
Each declares once which of its fields are dynamic and builds one
``capture()`` / ``restore()`` from that declaration; ``experiments/shard.py`` only composes them.

- *Classification guards*: every instance attribute of an owner is
  declared dynamic or static — for the link table, its columns — so a
  field added tomorrow fails here instead of silently missing from
  checkpoints and migrations.
- *Round trip* (hypothesis): perturb every dynamic field — a drawn-from
  RED stream and a lazily created fault stream included — capture,
  restore onto a freshly built twin: every dynamic field equal, static
  ones untouched, and the twin captures to the same bytes.
- *Source guards*: ``engine/parallel`` never looks inside a value a
  scenario hook returned, and ``experiments/shard.py`` never reaches
  into an owner's private state.
"""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path
from typing import Any

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ShardEngine
from repro.faults import FaultCounts, FaultInjector, FaultSchedule
from repro.netsim import LinkTable, NetworkSimulator, TrafficCounters
from repro.netsim.link import FAULT, RED
from repro.routing import ForwardingPlane
from repro.routing.bgp import BgpSessionManager, SessionState, configure_bgp
from repro.serialization import decode_payload, encode_payload
from repro.topology import Network, NodeKind

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
NUM_NODES = 5


def _net() -> Network:
    net = Network()
    for _ in range(NUM_NODES):
        net.add_node(NodeKind.ROUTER)
    for u in range(NUM_NODES - 1):
        net.add_link(u, u + 1, 1e8, 1e-3, 1 << 16)
    return net


def _build(net: Network, discipline: str = "red"):
    kernel = ShardEngine([0] * net.num_nodes, 1, lookahead=1.0)
    fib = ForwardingPlane(net)
    sim = NetworkSimulator(net, fib, kernel, queue_discipline=discipline)
    injector = FaultInjector(sim, fib, FaultSchedule.from_events([]))
    injector.install(kernel)
    return sim, injector


def _is_instrument(name: str) -> bool:
    return name.startswith("_obs") or name == "_trace"


# ----------------------------------------------------------------------
# Classification guards
# ----------------------------------------------------------------------
def test_every_link_field_is_declared_dynamic_or_static():
    sim, _ = _build(_net())
    table = sim.link_table
    _assert_classified(table)
    # The columns are declared once, each per link end or per link ...
    assert table.DYNAMIC == table.END_COLUMNS + table.LINK_COLUMNS + ("streams",)
    ends, links = 2 * len(sim.links), len(sim.links)
    assert all(len(getattr(table, n)) == ends for n in table.END_COLUMNS)
    assert all(len(getattr(table, n)) == links for n in table.LINK_COLUMNS + ("fast",))
    # ... and a handle holds none of them: a stateless view of its entries.
    assert not hasattr(sim.links[0], "__dict__")
    assert set(type(sim.links[0]).__slots__) == {"table", "index", "link"}


def _assert_classified(owner) -> None:
    cls = type(owner)
    dynamic, static = set(cls.DYNAMIC), set(cls.STATIC)
    assert not dynamic & static
    attrs = {name for name in vars(owner) if not _is_instrument(name)}
    assert attrs - dynamic - static == set(), (
        f"{cls.__name__} attributes declared neither DYNAMIC nor STATIC: "
        f"{sorted(attrs - dynamic - static)}"
    )
    assert (dynamic | static) - attrs == set(), "declared but never set"
    assert set(owner.capture()) == dynamic


def test_every_simulator_attribute_is_declared_dynamic_or_static():
    sim, injector = _build(_net())
    _assert_classified(sim)
    _assert_classified(injector)


def _sessions(net: Network):
    kernel = ShardEngine([0] * net.num_nodes, 1, lookahead=10.0)
    return BgpSessionManager(configure_bgp(net), kernel, seed=3)


def test_every_session_manager_attribute_is_declared_dynamic_or_static(multi_net):
    _assert_classified(_sessions(multi_net))


def test_a_session_outage_restores_onto_a_fresh_twin_exactly(multi_net):
    manager = _sessions(multi_net)
    a, b = next(iter(manager.sessions))
    manager.reset(a, b, down_for_s=0.2)
    manager._backoff_delay(1)  # one more draw of the jitter stream
    blob = encode_payload(manager.capture())

    twin = _sessions(multi_net)
    fresh = {as_id: dict(sp.rib) for as_id, sp in twin.engine.speakers.items()}
    twin.restore(decode_payload(blob))
    assert encode_payload(twin.capture()) == blob
    ribs = {as_id: sp.rib for as_id, sp in twin.engine.speakers.items()}
    assert ribs == {as_id: sp.rib for as_id, sp in manager.engine.speakers.items()}
    assert ribs != fresh  # the withdrawal, restored without a re-run
    assert b not in twin.engine.speakers[a].relationships
    assert twin.session(a, b).state is SessionState.CONNECT
    assert twin.stats == manager.stats and twin.stats.resets == 1
    assert twin._backoff_delay(0) == manager._backoff_delay(0)


def test_counter_dataclasses_are_flat_ints():
    # capture_fields copies a counters dataclass by its vars.
    for cls in (TrafficCounters, FaultCounts):
        assert all(isinstance(getattr(cls(), f.name), int) for f in fields(cls))
    assert list(TrafficCounters(packets_sent=3).as_dict().items())[0] == ("sent", 3)
    assert set(TrafficCounters().as_dict()) == {
        "sent", "delivered", "dropped_queue", "dropped_ttl", "unroutable",
    }


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------
def _perturb(sim: NetworkSimulator, injector: FaultInjector, seed: int, data) -> None:
    """Move every dynamic field of every owner off its initial value."""
    rng = np.random.default_rng(seed)

    def count() -> int:
        return int(rng.integers(1, 1 << 40))

    table = sim.link_table
    for name in table.END_COLUMNS:
        column = getattr(table, name)
        column[:] = [float(rng.random()) if isinstance(v, float) else count() for v in column]
    for lr in sim.links:
        lr.failed = bool(rng.integers(0, 2))
        lr.loss_prob, lr.corrupt_prob = float(rng.random()), float(rng.random())
        for _ in range(data.draw(st.integers(0, 5), label="red draws")):
            table.stream(lr.index, RED).random()
        for _ in range(data.draw(st.integers(0, 3), label="fault draws")):
            lr._fault_draw()  # 0 draws: the lazy stream stays uncreated
    for f in fields(TrafficCounters):
        setattr(sim.counters, f.name, count())
    sim.node_packets = rng.integers(1, 1000, size=NUM_NODES)
    sim._down_nodes.update(int(n) for n in rng.integers(0, NUM_NODES, size=2))
    sim.dropped_fault = count()
    for _ in range(int(rng.integers(1, 9))):
        sim.next_flow_id()
    sim.tx_times.append(float(rng.random()))
    sim.tx_from.append(1)
    sim.tx_to.append(2)
    for f in fields(FaultCounts):
        setattr(injector.counts, f.name, count())
    injector.slowdown_spans.append((1, float(rng.random()), 2.0, 3.0))
    injector._open_windows[("lp", int(rng.integers(0, 4)))] = ((float(rng.random()), 2.5),)
    injector._open_windows[("lp", 7)] = ((0.25, 4.0), (0.5, 2.0))
    injector._open_windows[("link", int(rng.integers(0, NUM_NODES - 1)))] = ((0.1, None),)
    injector._open_windows[("router", int(rng.integers(0, NUM_NODES)))] = ((0.2, None),)
    injector._open_windows[("loss", 0)] = ((0.3, (0.5, 0.25)),)


def _static_view(sim: NetworkSimulator, injector: FaultInjector) -> list:
    table = sim.link_table
    statics = [(n, getattr(table, n)) for n in table.STATIC if n != "fast"]
    statics += [(n, id(getattr(table, n))) for n in table.DYNAMIC]  # refilled in place
    statics += [(n, id(getattr(sim, n))) for n in sim.STATIC if n != "_hops_epoch"]
    statics += [(n, id(getattr(injector, n))) for n in injector.STATIC]
    return statics


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_capture_restores_onto_a_fresh_twin_exactly(seed, data):
    net = _net()
    sim, injector = _build(net)
    _perturb(sim, injector, seed, data)
    blob = encode_payload({"sim": sim.capture(), "injector": injector.capture()})

    twin_sim, twin_injector = _build(net)
    before = _static_view(twin_sim, twin_injector)
    state = decode_payload(blob)
    twin_sim.restore(state["sim"])
    twin_injector.restore(state["injector"])

    # Dynamic fields equal, column by column, entry by entry ...
    table, twin = sim.link_table, twin_sim.link_table
    for name in table.COLUMNS + ("fast",):
        assert _typed(getattr(twin, name)) == _typed(getattr(table, name)), name
    assert sorted(twin.streams) == sorted(table.streams)
    for key, stream in table.streams.items():
        assert twin.streams[key].bit_generator.state == stream.bit_generator.state
    # ... and the streams resume mid-sequence.
    for i in range(len(sim.links)):
        for kind in (RED, FAULT):
            assert twin.stream(i, kind).random() == table.stream(i, kind).random()
    for name in set(sim.DYNAMIC) - {"link_table"}:
        assert getattr(twin_sim, name) == getattr(sim, name), name
    for name in injector.DYNAMIC:
        assert getattr(twin_injector, name) == getattr(injector, name), name
    # The outages in force were re-applied to the twin's forwarding plane.
    assert twin_sim.fib.epoch > 0
    # Static fields untouched.
    assert _static_view(twin_sim, twin_injector) == before


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_restored_twin_captures_to_the_same_bytes(seed, data):
    net = _net()
    sim, injector = _build(net)
    _perturb(sim, injector, seed, data)
    blob = encode_payload({"sim": sim.capture(), "injector": injector.capture()})
    assert encode_payload({"sim": sim.capture(), "injector": injector.capture()}) == blob
    twin_sim, twin_injector = _build(net)
    state = decode_payload(blob)
    twin_sim.restore(state["sim"])
    twin_injector.restore(state["injector"])
    again = encode_payload(
        {"sim": twin_sim.capture(), "injector": twin_injector.capture()}
    )
    assert again == blob


def _typed(values: list) -> list[tuple[type, Any]]:
    return [(type(v), v) for v in values]


def test_an_lp_slice_is_a_selection_of_the_link_capture():
    table = _build(_net())[0].link_table
    table.busy_until[2:4] = [0.5, 0.75]  # link 1
    table.packets_carried[2:4] = [3, 4]
    table.stream(1, FAULT).random()
    table.stream(2, RED).random()
    whole = table.capture()
    # The LP transmitting from end 3 alone (link 1's v -> u) takes its
    # busy horizon; one owning both ends of link 1, its created stream.
    one_way = table.capture_lp([3], frozenset())
    assert one_way == {"busy_until": [0.75], "streams": {}}
    both = table.capture_lp([2, 3], frozenset({2 + RED, 2 + FAULT}))
    assert both == {"busy_until": [0.5, 0.75], "streams": {3: whole["streams"][3]}}
    # Restoring a slice leaves what it does not name alone.
    twin = _build(_net())[0].link_table
    twin.busy_until[2:4] = [9.0, 9.0]
    twin.restore_lp([3], frozenset(), one_way)
    assert twin.busy_until[2:4] == [9.0, 0.75] and twin.packets_carried[2:4] == [0, 0]
    twin.stream(1, RED).random()  # created here, not at the source: uncreated again
    twin.restore_lp([2, 3], frozenset({2, 3}), both)
    assert sorted(twin.streams) == [3]
    assert twin.stream(1, FAULT).random() == table.stream(1, FAULT).random()
    # A capture is a copy: the table moving on leaves it as it was.
    table.busy_until[2] = 9.5
    assert whole["busy_until"][2:4] == [0.5, 0.75]


# ----------------------------------------------------------------------
# Source guards
# ----------------------------------------------------------------------
#: a subscript or ``.get`` of ``shard_state`` / ``payload["shard_state"]``
_LOOKS_INSIDE = re.compile(
    r"""shard_state\s*(\[|\.get\()|\[["']shard_state["']\]\s*(\[|\.get\()"""
)


def test_engine_parallel_never_looks_inside_a_hook_returned_value():
    """``shard_state`` is carried and handed back, never subscripted."""
    stray = [
        f"{path.relative_to(SRC)}:{i}"
        for path in sorted((SRC / "engine" / "parallel").glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if _LOOKS_INSIDE.search(line)
    ]
    assert not stray, f"engine/parallel indexes into a scenario's blob: {stray}"


def test_the_guard_pattern_catches_what_it_is_for():
    assert _LOOKS_INSIDE.search('shard_state["lp"]')
    assert _LOOKS_INSIDE.search('lp_states = shard_state.get("lp", {})')
    assert _LOOKS_INSIDE.search('payload["shard_state"]["collect"]')
    assert not _LOOKS_INSIDE.search('scenario.restore_shard(payload["shard_state"])')
    assert not _LOOKS_INSIDE.search('payload.get("shard_state") is not None')


def test_experiments_shard_reaches_into_no_owner():
    text = (SRC / "experiments" / "shard.py").read_text()
    for private in (".streams", "._down_nodes", "._open_windows", ".busy_until"):
        assert private not in text, f"experiments/shard.py touches {private}"


def test_no_process_wide_simulation_state_is_left():
    """Move (1): the three process-wide bindings and their resets are gone."""
    gone = {
        "engine/events.py": ("_seq = itertools.count()",),
        "netsim/packet.py": ("_flow_counter", "def new_flow_id"),
        "online/wrapsocket.py": ("_listeners: dict", "reset_listeners"),
        "experiments/workloads.py": ("reset_listeners",),
    }
    for rel, needles in gone.items():
        text = (SRC / rel).read_text()
        for needle in needles:
            assert needle not in text, f"{rel} still has {needle!r}"
