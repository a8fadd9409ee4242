"""Bridge: registry snapshot -> :class:`~repro.profilers.traffic.TrafficProfile`.

The paper's PROF approaches need "an initial simulation experiment ...
traffic monitoring". The registry reads the packet simulator's own
counts, so any observed run *is* that monitoring: this module snapshots
the ``netsim.*`` instruments into a :class:`TrafficProfile` — including
the binned per-node event-rate series of Figure 3 — so PROF/HPROF can
consume a real run instead of a hand-assembled array triple.

Usage::

    with observed_run() as reg:
        engine, sim = build_run()   # built inside: the registry reads sim
        engine.run(until=duration)
    profile = profile_from_registry(duration, reg)
    mapping = MappingPipeline.for_network(net, k).run(Approach.PROF, profile)
"""

from __future__ import annotations

from ..profilers.traffic import TrafficProfile
from . import names
from .registry import Registry, get_registry

__all__ = ["profile_from_registry"]


def profile_from_registry(
    duration_s: float, registry: Registry | None = None
) -> TrafficProfile:
    """Snapshot the netsim instruments of a run into a traffic profile.

    ``duration_s`` is the observed simulated duration (the profile's
    normalization base for event rates). Raises ``KeyError`` with the
    known instrument names when no simulator was instrumented in this
    registry (i.e. no :class:`~repro.netsim.simulator.NetworkSimulator`
    was constructed while observability was wired up), and ``ValueError``
    when the instruments are empty — profiling a run that executed no
    traffic would silently produce an all-ones PROF weighting.
    """
    reg = registry if registry is not None else get_registry()
    node_events = reg.get_vector(names.NETSIM_NODE_EVENTS)
    link_bytes = reg.get_vector(names.NETSIM_LINK_BYTES)
    link_packets = reg.get_vector(names.NETSIM_LINK_PACKETS)
    if node_events.total == 0:
        raise ValueError(
            "observed run recorded zero node events; build the simulator "
            "inside repro.obs.observed_run, which reads it"
        )
    series = reg.get_series(names.NETSIM_NODE_RATE_BINS)
    return TrafficProfile(
        node_events=node_events.values.copy(),
        link_bytes=link_bytes.values.copy(),
        link_packets=link_packets.values.copy(),
        duration_s=float(duration_s),
        node_rate_bins=series.matrix(),
        rate_bin_s=series.bin_s,
    )

