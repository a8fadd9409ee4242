"""The Agent: gateway between live application traffic and the simulator.

MaSSF's Agent "accepts and dispatches live traffic from application
wrapper to the network simulation" and carries responses back. Our live
applications are synthetic processes (:mod:`repro.netsim.app`), but the
code path is the same: a WrapSocket hands the Agent a stream operation,
the Agent resolves virtual addresses, injects the traffic into the
simulated network as TCP, and invokes the application's callback when
the simulated network completes the operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from ..netsim.simulator import NetworkSimulator
from ..netsim.tcp import start_transfer
from .ipmap import VirtualIpMapper

__all__ = ["Agent", "AgentStats"]


@dataclass
class AgentStats:
    """Live-traffic accounting at the agent boundary."""

    streams_opened: int = 0
    streams_completed: int = 0
    bytes_requested: int = 0


class Agent:
    """Dispatches live application traffic into a :class:`NetworkSimulator`.

    Parameters
    ----------
    sim:
        The running network simulator.
    mapper:
        The virtual/real IP mapping service (created if not supplied).
    """

    def __init__(self, sim: NetworkSimulator, mapper: VirtualIpMapper | None = None) -> None:
        self.sim = sim
        self.mapper = mapper if mapper is not None else VirtualIpMapper()
        self.stats = AgentStats()
        #: stream listeners by node: ``(the WrapSocket that registered it,
        #: on_stream(src_node, nbytes, t))``, written by
        #: :meth:`WrapSocket.listen`; per agent, so per simulation
        self.listeners: dict[int, tuple[Any, Callable[[int, int, float], None]]] = {}

    # ------------------------------------------------------------------
    # Time/scheduling passthrough (applications model compute with these)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.sim.now

    def _injection_time(self) -> float:
        """Earliest time live traffic may enter the simulation.

        On more than one LP: the end of the current synchronization
        window — the Agent queues live traffic until the barrier, exactly
        how MaSSF admits external (real-time) events without violating
        the lookahead. On one LP no injection can cross an LP, so it
        enters now.
        """
        sched = self.sim.sched
        if sched.num_lps > 1:
            return max(self.sim.now, sched.next_barrier_time)
        return self.sim.now

    def schedule(
        self, delay: float, fn: Callable[..., Any], node: int = -1, args: tuple = ()
    ) -> Any:
        """Schedule ``fn(*args)`` as application-side work (compute
        phases, think time). The ``args`` tuple is the closure-free
        dispatch path — payloads stay picklable for the future LP
        boundary (simlint SIM203)."""
        when = max(self.sim.now + delay, self._injection_time())
        return self.sim.sched.schedule_at(when, fn, node=node, args=args)

    # ------------------------------------------------------------------
    # Live traffic entry points (called by WrapSocket)
    # ------------------------------------------------------------------
    def transfer(
        self,
        src_node: int,
        dst_node: int,
        nbytes: int,
        on_complete: Callable[[float], None] | None = None,
        on_received: Callable[[float], None] | None = None,
    ) -> None:
        """Stream ``nbytes`` from ``src_node`` to ``dst_node`` over
        simulated TCP.

        ``on_complete(t)`` fires at the sender on final ACK;
        ``on_received(t)`` at the receiver on final arrival. Injection is
        deferred to the next barrier on a parallel engine (see
        :meth:`_injection_time`), so the transfer itself starts at the
        source node's LP.
        """
        self.stats.streams_opened += 1
        self.stats.bytes_requested += nbytes
        # Bound method + args (no closures): the deferred start must stay
        # picklable across the future LP boundary (simlint SIM203).
        self.sim.sched.schedule_at(
            self._injection_time(),
            self._start_transfer,
            node=src_node,
            args=(src_node, dst_node, nbytes, on_complete, on_received),
        )

    def _start_transfer(
        self,
        src_node: int,
        dst_node: int,
        nbytes: int,
        on_complete: Callable[[float], None] | None,
        on_received: Callable[[float], None] | None,
    ) -> None:
        """Barrier-deferred transfer start (runs on the source node's LP)."""
        start_transfer(
            self.sim,
            src_node,
            dst_node,
            nbytes,
            partial(self._transfer_done, on_complete),
            on_received=on_received,
        )

    def _transfer_done(
        self, on_complete: Callable[[float], None] | None, t: float
    ) -> None:
        self.stats.streams_completed += 1
        if on_complete is not None:
            on_complete(t)

    # ------------------------------------------------------------------
    def attach_process(self, real_endpoint: str, node: int) -> str:
        """Register a live process at a simulated host; returns its
        virtual IP (what the process believes its address is)."""
        return self.mapper.register(real_endpoint, node)
