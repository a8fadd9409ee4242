"""Deterministic fault schedules: seeded scenarios -> timed fault events.

A :class:`FaultSchedule` is a *plan*: a sorted list of
:class:`FaultEvent` records saying what breaks (and recovers) when.
Plans come from two sources:

- :meth:`FaultSchedule.from_events` — an explicit, hand-written list
  (tests and the ``--spec`` CLI path);
- :meth:`FaultSchedule.from_scenario` — a seeded draw from a
  :class:`FaultScenario` parameterization against a concrete network.
  All random choices (which links flap, which routers crash, when)
  come from one ``numpy`` Generator consumed in a fixed order, so the
  same ``(scenario, network, seed)`` triple always yields the same
  schedule — :meth:`FaultSchedule.digest` is the checkable witness.

The schedule itself touches nothing; :class:`repro.faults.injector.
FaultInjector` turns each event into an ordinary simulation event.
"""

from __future__ import annotations

import enum
import hashlib
import sys
from dataclasses import dataclass, fields
from typing import Any

import numpy as np

from ..topology.models import Network, NodeKind

__all__ = [
    "FaultKind", "FaultEvent", "FaultScenario", "FaultSchedule", "BUILTIN_SCENARIOS",
    "pair_window",
]


class FaultKind(enum.Enum):
    """What a single fault event does."""

    LINK_DOWN = "link.down"
    LINK_UP = "link.up"
    ROUTER_DOWN = "router.down"
    ROUTER_UP = "router.up"
    LOSS_BURST_START = "loss.start"
    LOSS_BURST_END = "loss.end"
    LP_SLOWDOWN_START = "lp.slow.start"
    LP_SLOWDOWN_END = "lp.slow.end"
    BGP_SESSION_RESET = "bgp.reset"


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault transition.

    ``target`` identifies what the event applies to (a link id, a node
    id, an LP index, or an AS pair); ``params`` carries kind-specific
    numbers as a sorted tuple of ``(name, value)`` pairs — tuples, not a
    dict, so the event is hashable and its repr is canonical.
    """

    time: float
    kind: FaultKind
    target: tuple[int, ...] = ()
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        # Parameter names are interned — also when unpickled, which goes
        # through the constructor (__reduce__): a checkpoint holding a
        # pending fault then encodes to the same bytes before and after a
        # restore, whichever equal strings happen to be one object.
        object.__setattr__(
            self, "params", tuple((sys.intern(k), v) for k, v in self.params)
        )

    def __reduce__(self):
        return (FaultEvent, (self.time, self.kind, self.target, self.params))

    def param(self, name: str, default: float = 0.0) -> float:
        """The value of parameter ``name`` (``default`` if absent)."""
        for key, value in self.params:
            if key == name:
                return value
        return default

    def canonical(self) -> str:
        """Stable one-line text form (digest and trace material)."""
        params = ",".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.time!r}|{self.kind.value}|{self.target}|{params}"


def pair_window(
    open_windows: dict[Any, tuple], key: Any, start: bool, time: float, value: Any = None
) -> tuple[float, Any] | None:
    """Open or close one fault window on ``key``, first in, first out.

    ``open_windows[key]`` is the tuple of ``key``'s open windows as
    ``(start time, value)``, oldest first, and absent when none is open.
    A start appends one; an end closes the oldest and returns it
    (``None`` if none was open). Ends name no window, so first in, first
    out pairs them exactly for windows of one length — what
    :meth:`FaultSchedule.from_scenario` draws, targets with replacement.
    """
    windows = open_windows.get(key, ())
    if start:
        open_windows[key] = windows + ((time, value),)
        return None
    if not windows:
        return None
    if len(windows) > 1:
        open_windows[key] = windows[1:]
    else:
        del open_windows[key]
    return windows[0]


def _params(**kwargs: float) -> tuple[tuple[str, float], ...]:
    return tuple(sorted((k, float(v)) for k, v in kwargs.items()))


@dataclass(frozen=True)
class FaultScenario:
    """Parameterized fault mix, materialized against a network by seed.

    All counts are totals over the run; all times in simulated seconds.
    Faults are drawn inside ``[start_s, end_s]`` so the run has a clean
    warm-up and a recovery tail before the horizon.
    """

    name: str = "custom"
    start_s: float = 1.0
    end_s: float = 8.0
    #: link flapping: each flap is `flap_cycles` down/up cycles
    link_flaps: int = 0
    flap_down_s: float = 0.5
    flap_cycles: int = 1
    #: router crash/restart pairs
    router_restarts: int = 0
    restart_down_s: float = 1.0
    #: packet loss/corruption bursts on a link
    loss_bursts: int = 0
    loss_prob: float = 0.2
    corrupt_prob: float = 0.0
    burst_s: float = 1.0
    #: LP straggler slowdown spans (cost-model faults)
    lp_slowdowns: int = 0
    slowdown_factor: float = 3.0
    slowdown_s: float = 2.0
    num_lps: int = 4
    #: explicit BGP session resets (beyond those implied by crashes)
    bgp_resets: int = 0
    bgp_down_s: float = 2.0

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ValueError("need start_s < end_s")
        if not 0.0 <= self.loss_prob <= 1.0 or not 0.0 <= self.corrupt_prob <= 1.0:
            raise ValueError("loss_prob and corrupt_prob must be probabilities")
        if self.slowdown_factor < 1.0:
            raise ValueError("slowdown_factor must be >= 1")

    @classmethod
    def from_dict(cls, spec: dict) -> "FaultScenario":
        """Build from a plain dict, rejecting unknown keys loudly."""
        known = {f.name for f in fields(cls)}
        unknown = set(spec) - known
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        return cls(**spec)


class FaultSchedule:
    """An immutable, time-sorted plan of fault events."""

    def __init__(self, events: list[FaultEvent], name: str = "custom", seed: int = 0) -> None:
        self.events = sorted(events, key=lambda e: (e.time, e.kind.value, e.target))
        self.name = name
        self.seed = seed

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def digest(self) -> str:
        """SHA-256 over the canonical event list — the determinism witness.

        Two schedules with the same digest inject byte-identical fault
        sequences; the determinism tests compare digests across repeated
        runs.
        """
        h = hashlib.sha256()
        for ev in self.events:
            h.update(ev.canonical().encode())
            h.update(b";")
        return h.hexdigest()

    # ------------------------------------------------------------------
    @classmethod
    def from_events(cls, events: list[FaultEvent], name: str = "explicit") -> "FaultSchedule":
        """Wrap an explicit event list (tests, ``--spec`` files)."""
        return cls(list(events), name=name)

    @classmethod
    def from_scenario(
        cls, scenario: FaultScenario, net: Network, seed: int = 0
    ) -> "FaultSchedule":
        """Materialize ``scenario`` against ``net`` with a seeded draw.

        Candidate pools are built deterministically from the network
        (sorted ids), and every random choice consumes the single
        Generator in source order — same inputs, same schedule.
        """
        rng = np.random.default_rng(0xFA017C0D ^ seed)
        events: list[FaultEvent] = []
        span = scenario.end_s - scenario.start_s

        def draw_time() -> float:
            return float(scenario.start_s + rng.random() * span)

        def pick(pool: list[int]) -> int:
            return pool[int(rng.integers(len(pool)))]

        # Flap pool: intra-AS router-router links keep OSPF busy without
        # partitioning hosts; fall back to any link on tiny topologies.
        is_router = [n.kind is NodeKind.ROUTER for n in net.nodes]
        flap_pool = [
            l.link_id
            for l in net.links
            if is_router[l.u] and is_router[l.v]
            and net.nodes[l.u].as_id == net.nodes[l.v].as_id
        ]
        if not flap_pool:
            flap_pool = [l.link_id for l in net.links]
        for _ in range(scenario.link_flaps):
            link_id = pick(flap_pool)
            t = draw_time()
            for cycle in range(scenario.flap_cycles):
                down = t + cycle * 2.0 * scenario.flap_down_s
                events.append(FaultEvent(down, FaultKind.LINK_DOWN, (link_id,)))
                events.append(
                    FaultEvent(down + scenario.flap_down_s, FaultKind.LINK_UP, (link_id,))
                )

        # Crash pool: routers with an alternative path (degree >= 2).
        crash_pool = [
            n.node_id
            for n in net.nodes
            if n.kind is NodeKind.ROUTER and net.degree(n.node_id) >= 2
        ]
        if not crash_pool:
            crash_pool = [n.node_id for n in net.nodes if n.kind is NodeKind.ROUTER]
        for _ in range(scenario.router_restarts):
            node = pick(crash_pool)
            t = draw_time()
            down_for = scenario.restart_down_s
            events.append(
                FaultEvent(t, FaultKind.ROUTER_DOWN, (node,), _params(down_for=down_for))
            )
            events.append(FaultEvent(t + down_for, FaultKind.ROUTER_UP, (node,)))

        burst_pool = [l.link_id for l in net.links]
        for _ in range(scenario.loss_bursts):
            link_id = pick(burst_pool)
            t = draw_time()
            events.append(
                FaultEvent(
                    t,
                    FaultKind.LOSS_BURST_START,
                    (link_id,),
                    _params(
                        loss_prob=scenario.loss_prob, corrupt_prob=scenario.corrupt_prob
                    ),
                )
            )
            events.append(
                FaultEvent(t + scenario.burst_s, FaultKind.LOSS_BURST_END, (link_id,))
            )

        for _ in range(scenario.lp_slowdowns):
            lp = int(rng.integers(max(1, scenario.num_lps)))
            t = draw_time()
            events.append(
                FaultEvent(
                    t,
                    FaultKind.LP_SLOWDOWN_START,
                    (lp,),
                    _params(factor=scenario.slowdown_factor),
                )
            )
            events.append(
                FaultEvent(t + scenario.slowdown_s, FaultKind.LP_SLOWDOWN_END, (lp,))
            )

        # BGP pool: every relationship edge, from the sorted AS domains.
        bgp_pairs: list[tuple[int, int]] = []
        for as_id in sorted(net.as_domains):
            for nbr in sorted(net.as_domains[as_id].neighbor_ases):
                if as_id < nbr:
                    bgp_pairs.append((as_id, nbr))
        for _ in range(scenario.bgp_resets):
            if not bgp_pairs:
                break
            a, b = bgp_pairs[int(rng.integers(len(bgp_pairs)))]
            events.append(
                FaultEvent(
                    draw_time(),
                    FaultKind.BGP_SESSION_RESET,
                    (a, b),
                    _params(down_for=scenario.bgp_down_s),
                )
            )

        return cls(events, name=scenario.name, seed=seed)


#: Named scenario presets the chaos CLI exposes.
BUILTIN_SCENARIOS: dict[str, FaultScenario] = {
    "link-flap": FaultScenario(
        name="link-flap", link_flaps=2, flap_cycles=2, flap_down_s=0.4
    ),
    "router-restart": FaultScenario(
        name="router-restart", router_restarts=2, restart_down_s=1.0
    ),
    "loss-burst": FaultScenario(
        name="loss-burst", loss_bursts=2, loss_prob=0.25, corrupt_prob=0.05, burst_s=1.0
    ),
    "chaos-mixed": FaultScenario(
        name="chaos-mixed",
        link_flaps=1,
        flap_cycles=2,
        router_restarts=1,
        loss_bursts=1,
        lp_slowdowns=1,
        bgp_resets=1,
    ),
}
