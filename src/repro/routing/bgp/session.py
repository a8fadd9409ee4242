"""BGP session lifecycle: teardown, withdrawal, and backoff re-establishment.

The convergence engine (:mod:`repro.routing.bgp.engine`) computes a
static fixed point over the relationship graph. Fault scenarios
(:mod:`repro.faults`) need the *dynamic* half of BGP: a link or router
failure kills the session between two speakers, the failed adjacency's
routes are withdrawn network-wide, and the session is re-established
with retries after the fault clears — at which point the withdrawn
routes are re-advertised.

The manager models this with the engine's own fixed-point machinery:

- **Teardown** removes the relationship edge from *both* speakers and
  re-runs the engine. Because each Jacobi sweep rebuilds every RIB from
  the inbox, routes that depended on the removed edge disappear — that
  *is* withdrawal propagation, and the iteration count is the
  withdrawal convergence time.
- **Re-establishment** restores the edge and re-runs; the re-advertised
  routes flow back in the same way.

Timing follows the standard FSM shape without simulating individual
KEEPALIVEs: a reset takes effect after the hold time would have expired,
and the CONNECT state retries with bounded exponential backoff plus a
small deterministic jitter (seeded) until the peer answers or the retry
budget is exhausted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .engine import BgpEngine

__all__ = ["SessionState", "SessionInfo", "SessionStats", "BgpSessionManager"]


class SessionState(enum.Enum):
    """Coarse BGP FSM state of one inter-AS session."""

    ESTABLISHED = "established"
    #: torn down, retrying with backoff
    CONNECT = "connect"
    #: torn down and out of retries
    DOWN = "down"


@dataclass
class SessionInfo:
    """Mutable state of one session between speaker ASes ``a < b``."""

    a: int
    b: int
    state: SessionState = SessionState.ESTABLISHED
    #: relationship labels removed at teardown, restored on re-establish
    rel_a_of_b: str = ""
    rel_b_of_a: str = ""
    #: simulated time before which re-establishment attempts fail
    down_until: float = 0.0
    #: consecutive failed attempts in the current CONNECT episode
    attempts: int = 0
    #: lifetime teardown count
    resets: int = 0


@dataclass
class SessionStats:
    """Aggregate session-lifecycle counters (chaos report material)."""

    resets: int = 0
    retry_attempts: int = 0
    reestablished: int = 0
    gave_up: int = 0
    #: engine iterations spent propagating withdrawals
    withdraw_iterations: int = 0
    #: engine iterations spent propagating re-advertisements
    readvertise_iterations: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (reports and assertions)."""
        return {
            "resets": self.resets,
            "retry_attempts": self.retry_attempts,
            "reestablished": self.reestablished,
            "gave_up": self.gave_up,
            "withdraw_iterations": self.withdraw_iterations,
            "readvertise_iterations": self.readvertise_iterations,
        }


class BgpSessionManager:
    """Session FSM over a converged :class:`BgpEngine`.

    Parameters
    ----------
    engine:
        The convergence engine whose speakers carry the sessions.
    scheduler:
        Anything satisfying :class:`repro.netsim.simulator.Scheduler`;
        retry attempts are scheduled as ordinary engine events.
    hold_time_s, keepalive_s:
        FSM timing: a reset is detected after the hold time (three
        keepalive intervals by convention — the defaults keep that
        3:1 ratio).
    base_retry_s, max_retry_s, max_retries:
        Bounded exponential backoff for re-establishment attempts:
        attempt ``k`` waits ``min(base * 2**k, max) * (1 + jitter*u)``.
    jitter, seed:
        Jitter fraction and the seed of the deterministic stream that
        draws ``u`` — same seed, same retry schedule.
    on_change:
        Optional callback ``(event, a, b, detail)`` fired on every
        session transition (the fault injector wires this to the trace).
    on_reconverge:
        Optional callback fired after each engine re-run (the chaos
        runner flushes forwarding caches here).
    """

    #: The dynamic fields: what :meth:`capture` / :meth:`restore` carry —
    #: for ``engine``, the relationships and RIB of every speaker, which
    #: a teardown and a re-establishment rewrite.
    DYNAMIC = ("engine", "sessions", "stats", "_rng")
    #: Everything else ``__init__`` sets: the timing, the scheduler and
    #: the two callbacks. tests/test_state_owners.py fails on an
    #: attribute in neither.
    STATIC = (
        "sched", "hold_time_s", "keepalive_s", "base_retry_s", "max_retry_s",
        "max_retries", "jitter", "on_change", "on_reconverge",
    )

    def __init__(
        self,
        engine: BgpEngine,
        scheduler,
        *,
        hold_time_s: float = 9.0,
        keepalive_s: float = 3.0,
        base_retry_s: float = 0.5,
        max_retry_s: float = 8.0,
        max_retries: int = 16,
        jitter: float = 0.1,
        seed: int = 0,
        on_change: Callable[[str, int, int, dict], None] | None = None,
        on_reconverge: Callable[[], None] | None = None,
    ) -> None:
        if hold_time_s <= 0 or keepalive_s <= 0:
            raise ValueError("hold_time_s and keepalive_s must be positive")
        if base_retry_s <= 0 or max_retry_s < base_retry_s:
            raise ValueError("need 0 < base_retry_s <= max_retry_s")
        self.engine = engine
        self.sched = scheduler
        self.hold_time_s = float(hold_time_s)
        self.keepalive_s = float(keepalive_s)
        self.base_retry_s = float(base_retry_s)
        self.max_retry_s = float(max_retry_s)
        self.max_retries = int(max_retries)
        self.jitter = float(jitter)
        self._rng = np.random.default_rng(0x5E551011 ^ seed)
        self.on_change = on_change
        self.on_reconverge = on_reconverge
        self.stats = SessionStats()
        #: (min_as, max_as) -> SessionInfo for every relationship edge
        self.sessions: dict[tuple[int, int], SessionInfo] = {}
        for as_id in sorted(engine.speakers):
            sp = engine.speakers[as_id]
            for nbr in sp.relationships:
                key = (min(as_id, nbr), max(as_id, nbr))
                if key not in self.sessions:
                    a, b = key
                    self.sessions[key] = SessionInfo(
                        a=a,
                        b=b,
                        rel_a_of_b=engine.speakers[a].relationships[b],
                        rel_b_of_a=engine.speakers[b].relationships[a],
                    )

    # ------------------------------------------------------------------
    def session(self, a: int, b: int) -> SessionInfo:
        """The session between ASes ``a`` and ``b`` (KeyError if none)."""
        return self.sessions[(min(a, b), max(a, b))]

    def all_established(self) -> bool:
        """True when every session is back in ESTABLISHED."""
        return all(s.state is SessionState.ESTABLISHED for s in self.sessions.values())

    def capture(self) -> dict[str, Any]:
        """Picklable, canonical copy of the dynamic state (:attr:`DYNAMIC`).

        The pending retry attempts are not in it: they are engine
        events, keyed by the session's AS pair, and the engine
        checkpoints those.
        """
        return {
            "engine": {
                as_id: (dict(sorted(sp.relationships.items())), dict(sorted(sp.rib.items())))
                for as_id, sp in sorted(self.engine.speakers.items())
            },
            "sessions": {key: dict(vars(info)) for key, info in sorted(self.sessions.items())},
            "stats": dict(vars(self.stats)),
            "_rng": self._rng.bit_generator.state,
        }

    def restore(self, state: dict[str, Any]) -> None:
        """Apply a :meth:`capture` onto a manager over a freshly
        converged engine: sessions down at the cut are down again, with
        the RIBs their withdrawal left, and no re-run."""
        for as_id, (relationships, rib) in state["engine"].items():
            speaker = self.engine.speakers[as_id]
            speaker.relationships = dict(relationships)
            speaker.rib = dict(rib)
        for key, saved in state["sessions"].items():
            vars(self.sessions[key]).update(saved)
        vars(self.stats).update(state["stats"])
        self._rng.bit_generator.state = state["_rng"]

    # ------------------------------------------------------------------
    def reset(self, a: int, b: int, down_for_s: float) -> None:
        """Tear down the a<->b session; the peer stays dead ``down_for_s``.

        Takes effect immediately (the hold timer is assumed expired —
        fault scenarios schedule the reset event at detection time).
        Withdrawal propagation runs synchronously; re-establishment is
        scheduled as retry events on the simulation scheduler.
        """
        info = self.session(a, b)
        now = self.sched.current_time
        if info.state is not SessionState.ESTABLISHED:
            # Another fault hit a session that is already down: extend
            # the outage window; the in-flight retry chain will keep
            # failing until the new deadline passes.
            info.down_until = max(info.down_until, now + down_for_s)
            self._notify("reset-extended", info, {"down_until": info.down_until})
            return
        info.state = SessionState.CONNECT
        info.down_until = now + down_for_s
        info.attempts = 0
        info.resets += 1
        self.stats.resets += 1
        spk_a = self.engine.speakers[info.a]
        spk_b = self.engine.speakers[info.b]
        spk_a.relationships.pop(info.b, None)
        spk_b.relationships.pop(info.a, None)
        # Drop routes learned over the dead session before re-running:
        # the sweep exports from current RIBs, and a route whose next hop
        # is no longer a neighbor would trip export policy. Third-party
        # routes through the dead edge decay over the sweep itself —
        # that is the withdrawal propagating.
        spk_a.rib = {
            p: r for p, r in spk_a.rib.items() if r.is_local or r.next_hop_as != info.b
        }
        spk_b.rib = {
            p: r for p, r in spk_b.rib.items() if r.is_local or r.next_hop_as != info.a
        }
        iterations = self.engine.run()
        self.stats.withdraw_iterations += iterations
        self._notify("withdrawn", info, {"iterations": iterations})
        if self.on_reconverge is not None:
            self.on_reconverge()
        self._schedule_attempt(info, self._backoff_delay(0))

    def _schedule_attempt(self, info: SessionInfo, delay: float) -> None:
        # Keyed by the AS pair, not the SessionInfo: a checkpointed or
        # migrated event comes back with a copy of its arguments.
        self.sched.schedule_at(
            self.sched.current_time + delay, self._attempt, node=-1, args=(info.a, info.b)
        )

    def _backoff_delay(self, attempt: int) -> float:
        base = min(self.base_retry_s * (2.0**attempt), self.max_retry_s)
        return base * (1.0 + self.jitter * float(self._rng.random()))

    def _attempt(self, a: int, b: int) -> None:
        """One re-establishment attempt (scheduled event callback)."""
        info = self.sessions[(a, b)]
        if info.state is not SessionState.CONNECT:
            return  # re-established or given up by an overlapping chain
        now = self.sched.current_time
        if now < info.down_until:
            info.attempts += 1
            self.stats.retry_attempts += 1
            if info.attempts > self.max_retries:
                info.state = SessionState.DOWN
                self.stats.gave_up += 1
                self._notify("gave-up", info, {"attempts": info.attempts})
                return
            delay = self._backoff_delay(info.attempts)
            self._notify(
                "retry", info, {"attempt": info.attempts, "next_in_s": delay}
            )
            self._schedule_attempt(info, delay)
            return
        # Peer is back: restore the relationship edge on both speakers
        # and re-run the engine — the withdrawn routes re-advertise.
        self.engine.speakers[info.a].relationships[info.b] = info.rel_a_of_b
        self.engine.speakers[info.b].relationships[info.a] = info.rel_b_of_a
        iterations = self.engine.run()
        self.stats.readvertise_iterations += iterations
        info.state = SessionState.ESTABLISHED
        info.attempts = 0
        self.stats.reestablished += 1
        self._notify("reestablished", info, {"iterations": iterations})
        if self.on_reconverge is not None:
            self.on_reconverge()

    def _notify(self, event: str, info: SessionInfo, detail: dict) -> None:
        if self.on_change is not None:
            self.on_change(event, info.a, info.b, detail)
