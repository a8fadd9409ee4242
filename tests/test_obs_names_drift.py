"""Names-drift check: ``obs/names.py`` and the instrumented modules agree.

The canonical-name module is only useful while it is *complete* and
*authoritative*: every constant must be registered by some instrumented
component, and every instrument a component registers must come from the
module. This test constructs one of each instrumented component against
a fresh registry and compares the registered-name set to the constants —
in both directions — so adding a hook without a ``names`` constant (or a
constant nobody registers, or one without ``# HELP`` text) fails here
instead of silently drifting.
"""

from __future__ import annotations

import numpy as np

import repro.obs.registry as registry_mod
from repro.obs import names
from repro.obs.registry import Registry
from repro.routing import ForwardingPlane
from repro.topology import Network, NodeKind


def canonical_names() -> set[str]:
    """Every string instrument-name constant ``names.__all__`` exports."""
    return {
        getattr(names, const)
        for const in names.__all__
        if const.isupper() and isinstance(getattr(names, const), str)
    }


def registered_names(monkeypatch) -> set[str]:
    """Instrument names resolved by constructing each hooked component."""
    reg = Registry()
    monkeypatch.setattr(registry_mod, "_GLOBAL", reg)
    # Imports are deferred past the monkeypatch so each constructor's
    # get_registry() resolves against the fresh registry.
    from repro.engine.parallel import ParallelConservativeEngine, ShardEngine
    from repro.faults import FaultInjector, FaultSchedule
    from repro.netsim.simulator import NetworkSimulator
    from repro.engine.recovery import RecoveryConfig
    from repro.partition.rebalance import RebalanceConfig
    from repro.routing.bgp.engine import BgpEngine, BgpSpeaker

    net = Network()
    r0 = net.add_node(NodeKind.ROUTER)
    h0 = net.add_node(NodeKind.HOST)
    net.add_link(r0, h0, 1e9, 1e-3)
    engine = ShardEngine(np.zeros(net.num_nodes, dtype=np.int64), 1, 1.0)
    # The shard engine registers the engine.* set and the worker-side
    # parallel.* set (per-worker reads with shard labels); constructing
    # the controller registers the controller-side reads (with a
    # rebalance config the rebalance.* set too, with a recovery config
    # the recovery.* set). No worker processes start until
    # run_scenario().
    ParallelConservativeEngine(
        np.zeros(net.num_nodes, dtype=np.int64), 1, 1.0,
        rebalance=RebalanceConfig(), recovery=RecoveryConfig(),
    )
    fib = ForwardingPlane(net)
    sim = NetworkSimulator(net, fib, engine)
    BgpEngine({1: BgpSpeaker(1, {2: "peer"}), 2: BgpSpeaker(2, {1: "peer"})})
    FaultInjector(sim, fib, FaultSchedule.from_events([]))
    return set(reg.counters()) | set(reg.vectors())


def test_every_registered_instrument_has_a_names_constant(monkeypatch):
    rogue = registered_names(monkeypatch) - canonical_names()
    assert not rogue, (
        f"instruments registered without an obs/names.py constant: {sorted(rogue)}"
    )


def test_every_names_constant_is_registered_by_some_component(monkeypatch):
    dead = canonical_names() - registered_names(monkeypatch)
    assert not dead, (
        f"obs/names.py constants no instrumented module registers: {sorted(dead)}"
    )


def test_every_names_constant_has_help_text():
    missing = canonical_names() - set(names.HELP)
    assert not missing, f"instrument names without # HELP text: {sorted(missing)}"


def test_help_has_no_orphan_entries():
    orphans = set(names.HELP) - canonical_names()
    assert not orphans, f"# HELP entries for unknown instruments: {sorted(orphans)}"


#: The one split the design has: a ``run()`` engine keeps its own window
#: rows (and observes their totals), and the controller keeps its
#: workers', which never fill ``window_stats``. Either one is zero in any
#: run, so their sum is the run's count.
WINDOW_OWNERS = {"ParallelConservativeEngine", "ShardEngine"}
WINDOW_NAMES = {
    names.ENGINE_WINDOWS,
    names.ENGINE_LP_EVENTS,
    names.ENGINE_LP_REMOTE_SENDS,
}


def registrations_by_component(monkeypatch) -> dict[str, dict[str, set[str]]]:
    """Per component class, the names it registers as reads and as writes.

    Each component is constructed against a fresh disabled registry of
    its own (what it needs is built beforehand, against another one), so
    a name is attributed to the class whose constructor registered it.
    """
    from repro.engine.parallel import ParallelConservativeEngine, ShardEngine
    from repro.engine.recovery import RecoveryConfig
    from repro.faults import FaultInjector, FaultSchedule
    from repro.netsim.simulator import NetworkSimulator
    from repro.partition.rebalance import RebalanceConfig
    from repro.routing.bgp.engine import BgpEngine, BgpSpeaker

    net = Network()
    r0 = net.add_node(NodeKind.ROUTER)
    h0 = net.add_node(NodeKind.HOST)
    net.add_link(r0, h0, 1e9, 1e-3)
    assignment = np.zeros(net.num_nodes, dtype=np.int64)
    out: dict[str, dict[str, set[str]]] = {}

    def construct(make):
        reg = Registry()
        monkeypatch.setattr(registry_mod, "_GLOBAL", reg)
        component = make()
        written = set().union(reg._counters, reg._vectors)
        mine = out.setdefault(type(component).__name__, {"read": set(), "written": set()})
        mine["read"] |= set(reg._reads)
        mine["written"] |= written
        return component

    engine = construct(lambda: ShardEngine(assignment, 1, 1.0))
    construct(lambda: ParallelConservativeEngine(
        assignment, 1, 1.0, rebalance=RebalanceConfig(), recovery=RecoveryConfig(),
    ))
    fib = construct(lambda: ForwardingPlane(net))
    sim = construct(lambda: NetworkSimulator(net, fib, engine))
    construct(lambda: BgpEngine({1: BgpSpeaker(1, {2: "peer"}), 2: BgpSpeaker(2, {1: "peer"})}))
    construct(lambda: FaultInjector(sim, fib, FaultSchedule.from_events([])))
    return out


def test_every_names_constant_has_one_owner(monkeypatch):
    """A constant is read off its owner or written, never both, and by one
    component class — a second copy of a count is what reads replaced."""
    owners: dict[str, set[tuple[str, str]]] = {}
    for component, kinds in registrations_by_component(monkeypatch).items():
        for kind, registered in kinds.items():
            for name in registered:
                owners.setdefault(name, set()).add((component, kind))
    assert set(owners) == canonical_names()
    both = sorted(n for n, o in owners.items() if len({kind for _, kind in o}) > 1)
    assert not both, f"registered both as a read and as a written instrument: {both}"
    shared = {n: {c for c, _ in o} for n, o in owners.items() if len(o) > 1}
    assert set(shared) == WINDOW_NAMES, f"registered by more than one component: {shared}"
    assert all(classes == WINDOW_OWNERS for classes in shared.values()), shared


def test_the_fault_injector_writes_no_instrument(monkeypatch):
    """``faults.*`` are reads of the injector's ``FaultCounts``, which a
    checkpoint restores; a written copy would restart at zero on a respawn."""
    injector = registrations_by_component(monkeypatch)["FaultInjector"]
    assert injector["written"] == set()
    assert injector["read"] == {n for n in canonical_names() if n.startswith("faults.")}
