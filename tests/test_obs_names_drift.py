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
    from repro.obs.distributed import CalibrationRecorder
    from repro.partition.rebalance import RebalanceConfig
    from repro.routing.bgp.engine import BgpEngine, BgpSpeaker

    net = Network()
    r0 = net.add_node(NodeKind.ROUTER)
    h0 = net.add_node(NodeKind.HOST)
    net.add_link(r0, h0, 1e9, 1e-3)
    engine = ShardEngine(np.zeros(net.num_nodes, dtype=np.int64), 1, 1.0)
    # The shard engine registers the engine.* set and the worker-side
    # parallel.* set (per-worker recording with shard labels);
    # constructing the controller registers the controller-side parallel
    # instruments (with a rebalance config, the rebalance.* set too),
    # and the calibration.* set lives in the CalibrationRecorder. No
    # worker processes start until run_scenario().
    ParallelConservativeEngine(
        np.zeros(net.num_nodes, dtype=np.int64), 1, 1.0,
        rebalance=RebalanceConfig(),
    )
    # Recovery is mutually exclusive with rebalance, so the recovery.*
    # instrument set needs its own controller construction.
    ParallelConservativeEngine(
        np.zeros(net.num_nodes, dtype=np.int64), 1, 1.0,
        recovery=RecoveryConfig(),
    )
    CalibrationRecorder()
    fib = ForwardingPlane(net)
    sim = NetworkSimulator(net, fib, engine)
    BgpEngine({1: BgpSpeaker(1, {2: "peer"}), 2: BgpSpeaker(2, {1: "peer"})})
    FaultInjector(sim, fib, FaultSchedule.from_events([]))
    return (
        set(reg.counters())
        | set(reg.vectors())
        | set(reg.gauges())
        | set(reg.histograms())
        | set(reg.timers())
        | set(reg.series_map())
    )


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
