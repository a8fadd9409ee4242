"""Fault injector: turns a schedule into simulation events and recovery.

The injector is the only component that *mutates* anything: each
:class:`~repro.faults.schedule.FaultEvent` is scheduled as an ordinary
engine event (``node=-1``, like other control-plane work), and applying
it drives the existing machinery —

- link events toggle :class:`~repro.netsim.link.LinkRuntime` failure
  state **and** feed the forwarding plane so OSPF re-converges
  (:meth:`ForwardingPlane.set_link_state`);
- router events black-hole the node in the simulator, re-converge OSPF
  around it, and reset the BGP sessions of crashed border routers;
- loss/corruption bursts set the per-link fault probabilities (drawn
  from the link's dedicated fault stream, never the RED stream);
- LP slowdowns record straggler spans the cost model consumes via
  ``busy_multipliers``;
- a target stays down, lossy (at the latest open burst's probabilities)
  or slow while any of its windows is open; ends close the oldest first
  (:func:`~repro.faults.schedule.pair_window`);
- BGP resets go to the :class:`~repro.routing.bgp.session.
  BgpSessionManager`, whose transitions come back through
  :meth:`FaultInjector._on_session_change` into the trace.

Everything lands in the ``faults`` trace channel
(:meth:`repro.obs.trace.TraceBuffer.fault`) and in :class:`FaultCounts`,
which the ``faults.*`` instruments read, so a chaos run's story is
replayable from the trace alone.
With an empty schedule the injector schedules nothing and touches
nothing — the no-fault bit-identity guarantee.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from ..netsim.simulator import (
    NetworkSimulator,
    Scheduler,
    capture_fields,
    restore_fields,
)
from ..obs import names as obs_names
from ..obs.registry import get_registry
from ..obs.trace import get_tracer
from ..routing.bgp.session import BgpSessionManager
from ..routing.fib import ForwardingPlane
from .schedule import FaultEvent, FaultKind, FaultSchedule, pair_window

__all__ = ["FaultCounts", "FaultInjector"]


@dataclass
class FaultCounts:
    """What the injector actually applied (report material)."""

    injected: int = 0
    link_transitions: int = 0
    router_transitions: int = 0
    loss_transitions: int = 0
    lp_transitions: int = 0
    bgp_resets: int = 0
    bgp_reestablished: int = 0
    bgp_gave_up: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict."""
        return asdict(self)


class FaultInjector:
    """Apply a :class:`FaultSchedule` to a running simulation.

    Parameters
    ----------
    sim, fib:
        The packet simulator and its forwarding plane.
    schedule:
        The fault plan; an empty schedule makes the injector inert.
    sessions:
        The BGP session manager for multi-AS networks (``None`` for
        single-AS runs — BGP fault kinds are then ignored with a trace
        note rather than an exception).
    """

    #: The dynamic fields: what :meth:`capture` / :meth:`restore` carry,
    #: listed here and nowhere else.
    DYNAMIC = ("counts", "slowdown_spans", "_open_windows")
    #: Everything else ``__init__`` sets (the tracer aside): its
    #: arguments, the scheduler ``install`` binds, the border-session
    #: table. tests/test_state_owners.py fails on an attribute in neither.
    STATIC = ("sim", "fib", "schedule", "sessions", "_sched", "_border_sessions")

    def __init__(
        self,
        sim: NetworkSimulator,
        fib: ForwardingPlane,
        schedule: FaultSchedule,
        *,
        sessions: BgpSessionManager | None = None,
    ) -> None:
        self.sim = sim
        self.fib = fib
        self.schedule = schedule
        self.sessions = sessions
        self.counts = FaultCounts()
        self._sched: Scheduler | None = None
        #: finalized LP straggler spans: (lp, start_s, end_s, factor)
        self.slowdown_spans: list[tuple[int, float, float, float]] = []
        # (kind, target) -> its open windows, (start time, value) oldest
        # first (pair_window); kind is "link", "router", "loss" or "lp"
        self._open_windows: dict[tuple[str, int], tuple[tuple[float, Any], ...]] = {}

        # The registry reads the counts; a checkpoint restores them, so
        # the reads stay exact through a respawn.
        reg = get_registry()
        for name, fields in (
            (obs_names.FAULTS_INJECTED, ("injected",)),
            (obs_names.FAULTS_LINK_TRANSITIONS, ("link_transitions",)),
            (obs_names.FAULTS_ROUTER_TRANSITIONS, ("router_transitions",)),
            # every link or router transition invalidates forwarding state
            (obs_names.FAULTS_ROUTE_INVALIDATIONS, ("link_transitions", "router_transitions")),
            (obs_names.FAULTS_BGP_SESSION_RESETS, ("bgp_resets",)),
            (obs_names.FAULTS_BGP_REESTABLISHED, ("bgp_reestablished",)),
        ):
            reg.read(name, lambda fields=fields: self._control_count(fields))
        self._trace = get_tracer()

        if sessions is not None:
            sessions.on_change = self._on_session_change
        # Crashed border routers take their BGP sessions with them:
        # precompute router -> AS pairs once from the domain border maps.
        self._border_sessions: dict[int, list[tuple[int, int]]] = {}
        if sessions is not None:
            for as_id in sorted(sim.net.as_domains):
                dom = sim.net.as_domains[as_id]
                for nbr, pairs in sorted(dom.border_links.items()):
                    key = (min(as_id, nbr), max(as_id, nbr))
                    if key not in sessions.sessions:
                        continue
                    for local, _remote in pairs:
                        rows = self._border_sessions.setdefault(local, [])
                        if key not in rows:
                            rows.append(key)

    @property
    def links_down(self) -> set[int]:
        """Links an open outage window holds down (at the end of a run:
        the ones the schedule left down)."""
        return {target for kind, target in self._open_windows if kind == "link"}

    @property
    def nodes_down(self) -> set[int]:
        """Routers an open crash window holds down."""
        return {target for kind, target in self._open_windows if kind == "router"}

    # ------------------------------------------------------------------
    def install(self, scheduler: Scheduler) -> None:
        """Schedule every fault event on ``scheduler`` (idempotent per call)."""
        self._sched = scheduler
        for fe in self.schedule:
            scheduler.schedule_at(fe.time, self._apply, node=-1, args=(fe,))

    @property
    def now(self) -> float:
        """Current simulated time of the scheduler the faults run on."""
        assert self._sched is not None, "install() before applying faults"
        return self._sched.current_time

    def capture(self) -> dict[str, Any]:
        """Picklable copy of the dynamic state (:attr:`DYNAMIC`).

        Where the schedule stands is not in it: the applications still
        to come are pending events, and the engine checkpoints those.
        """
        return capture_fields(self, self.DYNAMIC)

    def restore(self, state: dict[str, Any]) -> None:
        """Apply a :meth:`capture` onto a freshly built twin.

        The twin's forwarding plane starts all-up; routing is a pure
        function of the up/down topology, so re-applying the outages
        still in force reconverges it to the identical tables.
        """
        restore_fields(self, state)
        for link_id in sorted(self.links_down):
            self.fib.set_link_state(link_id, False)
        for node in sorted(self.nodes_down):
            self.fib.set_node_state(node, False)

    def _control_count(self, fields: tuple[str, ...]) -> int:
        """The sum of :attr:`counts`' ``fields`` on the shard that owns
        the control plane, 0 on any other. Every shard applies each fault
        (replicas replay the control lane) and the shards' registries
        merge by sum, so the control owner at read time — the first, a
        respawn, an heir or a migration's target — is the one count."""
        if not self.sim.sched.has_control:
            return 0
        return sum(getattr(self.counts, f) for f in fields)

    # ------------------------------------------------------------------
    def _apply(self, fe: FaultEvent) -> None:
        """Apply one fault event (scheduled event callback)."""
        self.counts.injected += 1
        kind = fe.kind
        if kind is FaultKind.LINK_DOWN or kind is FaultKind.LINK_UP:
            self._apply_link(fe, up=kind is FaultKind.LINK_UP)
        elif kind is FaultKind.ROUTER_DOWN or kind is FaultKind.ROUTER_UP:
            self._apply_router(fe, up=kind is FaultKind.ROUTER_UP)
        elif kind is FaultKind.LOSS_BURST_START or kind is FaultKind.LOSS_BURST_END:
            self._apply_loss(fe, start=kind is FaultKind.LOSS_BURST_START)
        elif kind is FaultKind.LP_SLOWDOWN_START or kind is FaultKind.LP_SLOWDOWN_END:
            self._apply_slowdown(fe, start=kind is FaultKind.LP_SLOWDOWN_START)
        elif kind is FaultKind.BGP_SESSION_RESET:
            self._apply_bgp_reset(fe)
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown fault kind {kind!r}")

    def _flips(self, key: tuple[str, int], start: bool) -> bool:
        """Open or close one window on ``key``: does the target change
        state — from no open window to one, or back?"""
        was_open = key in self._open_windows
        pair_window(self._open_windows, key, start, self.now)
        return was_open != (key in self._open_windows)

    def _apply_link(self, fe: FaultEvent, up: bool) -> None:
        link_id = fe.target[0]
        if self._flips(("link", link_id), not up):
            if up:
                self.sim.restore_link(link_id)
            else:
                self.sim.fail_link(link_id)
            self.fib.set_link_state(link_id, up)
        self.counts.link_transitions += 1
        self._trace.fault(
            self.now, "link.up" if up else "link.down",
            "recover" if up else "inject", (link_id,),
        )

    def _apply_router(self, fe: FaultEvent, up: bool) -> None:
        node = fe.target[0]
        if self._flips(("router", node), not up):
            if up:
                self.sim.set_node_up(node)
            else:
                self.sim.set_node_down(node)
            self.fib.set_node_state(node, up)
        self.counts.router_transitions += 1
        self._trace.fault(
            self.now, "router.up" if up else "router.down",
            "recover" if up else "inject", (node,),
        )
        if not up and self.sessions is not None:
            # The crash kills the router's BGP sessions; they come back
            # by retry after the router restarts. A crash window opening
            # on a router already down extends the sessions' outage.
            down_for = fe.param("down_for", 1.0)
            for a, b in self._border_sessions.get(node, ()):
                self.sessions.reset(a, b, down_for)

    def _apply_loss(self, fe: FaultEvent, start: bool) -> None:
        link_id = fe.target[0]
        key = ("loss", link_id)
        probs = (fe.param("loss_prob", 0.0), fe.param("corrupt_prob", 0.0))
        pair_window(self._open_windows, key, start, self.now, probs)
        lr = self.sim.links[link_id]
        opened = self._open_windows.get(key)
        lr.loss_prob, lr.corrupt_prob = opened[-1][1] if opened else (0.0, 0.0)
        self.counts.loss_transitions += 1
        self._trace.fault(
            self.now, "loss.start" if start else "loss.end",
            "inject" if start else "recover", (link_id,),
            loss_prob=lr.loss_prob, corrupt_prob=lr.corrupt_prob,
        )

    def _apply_slowdown(self, fe: FaultEvent, start: bool) -> None:
        lp = fe.target[0]
        closed = pair_window(
            self._open_windows, ("lp", lp), start, self.now, fe.param("factor", 1.0)
        )
        if closed is not None:
            t0, factor = closed
            self.slowdown_spans.append((lp, t0, self.now, factor))
        self.counts.lp_transitions += 1
        self._trace.fault(
            self.now, "lp.slow" if start else "lp.normal",
            "inject" if start else "recover", (lp,),
            factor=fe.param("factor", 1.0) if start else 1.0,
        )

    def _apply_bgp_reset(self, fe: FaultEvent) -> None:
        if self.sessions is None:
            self._trace.fault(self.now, "bgp.reset.skipped", "inject", fe.target)
            return
        a, b = fe.target
        self.sessions.reset(a, b, fe.param("down_for", 1.0))

    # ------------------------------------------------------------------
    def _on_session_change(self, event: str, a: int, b: int, detail: dict) -> None:
        """Session-manager transition hook: trace + counters."""
        t = self.now if self._sched is not None else 0.0
        if event == "withdrawn":
            self.counts.bgp_resets += 1
            self._trace.fault(t, "bgp.withdrawn", "inject", (a, b), **detail)
        elif event == "reestablished":
            self.counts.bgp_reestablished += 1
            self.fib.flush_cache()
            self._trace.fault(t, "bgp.reestablished", "recover", (a, b), **detail)
        elif event == "retry":
            self._trace.fault(t, "bgp.retry", "recover", (a, b), **detail)
        elif event == "gave-up":
            self.counts.bgp_gave_up += 1
            self._trace.fault(t, "bgp.gave_up", "inject", (a, b), **detail)
        else:
            self._trace.fault(t, f"bgp.{event}", "inject", (a, b), **detail)
        if event == "withdrawn":
            self.fib.flush_cache()

    # ------------------------------------------------------------------
    def busy_multipliers(
        self, num_windows: int, num_lps: int, window_s: float, end_time: float
    ) -> np.ndarray:
        """``(windows, lps)`` straggler multipliers for the cost model.

        Each recorded slowdown span raises the multiplier of every
        window it overlaps to its factor (max-combined when spans
        overlap); spans still open at ``end_time`` extend to it.
        """
        out = np.ones((num_windows, num_lps), dtype=np.float64)
        spans = list(self.slowdown_spans)
        spans.extend(
            (lp, t0, end_time, factor)
            for (kind, lp), windows in sorted(self._open_windows.items()) if kind == "lp"
            for t0, factor in windows
        )
        for lp, t0, t1, factor in spans:
            if lp >= num_lps or t1 <= 0 or window_s <= 0:
                continue
            w0 = max(0, int(t0 / window_s))
            w1 = min(num_windows, int(np.ceil(min(t1, end_time) / window_s)))
            if w1 > w0:
                out[w0:w1, lp] = np.maximum(out[w0:w1, lp], factor)
        return out
