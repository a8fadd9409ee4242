"""WrapSocket: the socket-level interception library.

Application processes in MicroGrid link against WrapSocket, which
intercepts socket calls and redirects the streams through the Agent into
the network simulation — no application modification. Our synthetic
applications use the same API surface: ``connect`` by virtual IP,
``send`` with a completion callback, ``listen`` for incoming streams.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .agent import Agent
from .errors import OnlineTimeoutError
from .ipmap import VirtualIpMapper

__all__ = ["WrapSocket", "SocketClosed"]

#: Retried sends cap their per-attempt timeout at this multiple of the
#: caller's ``timeout_s`` (bounded exponential backoff).
MAX_TIMEOUT_FACTOR = 8.0
#: Deterministic jitter fraction added to each backed-off timeout so
#: concurrent retries don't resynchronize.
TIMEOUT_JITTER = 0.1


class SocketClosed(RuntimeError):
    """Operation on a closed WrapSocket."""


class WrapSocket:
    """A virtual socket bound to one simulated host.

    Parameters
    ----------
    agent:
        The live-traffic gateway.
    node:
        The simulated host this process runs on.
    real_endpoint:
        Identifier of the live process (registered with the IP mapper;
        auto-generated when omitted).
    """

    def __init__(self, agent: Agent, node: int, real_endpoint: str | None = None) -> None:
        self.agent = agent
        self.node = node
        endpoint = real_endpoint if real_endpoint is not None else f"proc@node{node}"
        try:
            self.virtual_ip = agent.attach_process(endpoint, node)
        except ValueError:
            # The process re-opens sockets on the same node: reuse mapping.
            self.virtual_ip = VirtualIpMapper.virtual_ip(node)
        self._open = True
        self._peer: int | None = None
        # Lazily created per-node stream for retry-timeout jitter; same
        # node, same jitter sequence (deterministic across runs).
        self._timeout_rng: np.random.Generator | None = None

    # ------------------------------------------------------------------
    def connect(self, peer_virtual_ip: str) -> None:
        """Resolve the peer's virtual IP to its simulated host."""
        self._check_open()
        self._peer = VirtualIpMapper.node_of(peer_virtual_ip)

    def connect_node(self, node: int) -> None:
        """Connect directly by simulated node id (bypasses IP resolution)."""
        self._check_open()
        self._peer = node

    def send(
        self,
        nbytes: int,
        on_complete: Callable[[float], None] | None = None,
        on_received: Callable[[float], None] | None = None,
        *,
        timeout_s: float | None = None,
        max_retries: int = 3,
        on_timeout: Callable[[OnlineTimeoutError], None] | None = None,
    ) -> None:
        """Stream ``nbytes`` to the connected peer via the simulation.

        ``on_complete(t)`` fires at the sender when the peer has
        acknowledged the full payload; ``on_received(t)`` and the peer's
        listener callback (if any) fire when the last byte *arrives* — at
        the peer, so that under the parallel engine the peer's reaction
        executes on the peer's logical process.

        With ``timeout_s`` set, a watchdog guards each attempt: if no
        acknowledgment arrives in time, the stream is re-sent with the
        timeout doubled (bounded at ``MAX_TIMEOUT_FACTOR * timeout_s``,
        plus deterministic jitter) up to ``max_retries`` times. On
        exhaustion an :class:`OnlineTimeoutError` goes to ``on_timeout``
        when given, else is raised from the watchdog event.
        ``on_complete`` fires at most once even if a timed-out attempt's
        acknowledgment arrives late; the receiver may see duplicate
        streams, exactly as with application-level retransmission.
        Without ``timeout_s`` the behavior is unchanged.
        """
        self._check_open()
        if self._peer is None:
            raise SocketClosed("socket is not connected")
        peer = self._peer
        src = self.node

        def _received(t: float) -> None:
            listener = self.agent.listeners.get(peer)
            if listener is not None:
                listener[1](src, nbytes, t)
            if on_received is not None:
                on_received(t)

        if timeout_s is None:
            self.agent.transfer(src, peer, nbytes, on_complete, on_received=_received)
            return
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        _GuardedSend(
            self, nbytes, on_complete, _received, timeout_s, max_retries, on_timeout
        ).attempt(timeout_s)

    def _backoff_timeout(self, base_s: float, attempt: int) -> float:
        rng = self._timeout_rng
        if rng is None:
            rng = self._timeout_rng = np.random.default_rng(0x50C7E7 ^ self.node)
        capped = min(base_s * (2.0**attempt), MAX_TIMEOUT_FACTOR * base_s)
        return capped * (1.0 + TIMEOUT_JITTER * float(rng.random()))

    def listen(self, on_stream: Callable[[int, int, float], None]) -> None:
        """Register a stream-received callback for this node.

        One listener per node and agent: the latest registration wins.
        """
        self._check_open()
        self.agent.listeners[self.node] = (self, on_stream)

    def close(self) -> None:
        """Close the socket and remove the listener it registered, if any.

        A listener another socket on the same host registered stays.
        """
        self._open = False
        listeners = self.agent.listeners
        if listeners.get(self.node, (None,))[0] is self:
            del listeners[self.node]

    def _check_open(self) -> None:
        if not self._open:
            raise SocketClosed("socket is closed")


class _GuardedSend:
    """Retry state for one guarded send.

    The watchdog/completion callbacks are bound methods of this object
    rather than nested closures, so every payload handed to the scheduler
    stays statically picklable for the future LP boundary (simlint
    SIM203). One instance tracks one logical send across all of its
    retransmission attempts.
    """

    def __init__(
        self,
        sock: WrapSocket,
        nbytes: int,
        on_complete: Callable[[float], None] | None,
        received: Callable[[float], None],
        timeout_s: float,
        max_retries: int,
        on_timeout: Callable[[OnlineTimeoutError], None] | None,
    ) -> None:
        self.sock = sock
        self.src = sock.node
        self.peer = sock._peer
        self.nbytes = nbytes
        self.on_complete = on_complete
        self.received = received
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.on_timeout = on_timeout
        self.done = False
        self.attempt_no = 0
        self.waited = 0.0

    def complete(self, t: float) -> None:
        """Sender-side final-ACK callback (idempotent under late ACKs)."""
        if self.done:
            return  # a timed-out attempt's ACK arriving late
        self.done = True
        if self.on_complete is not None:
            self.on_complete(t)

    def attempt(self, current_timeout: float) -> None:
        """Issue one transfer attempt and arm its watchdog."""
        self.sock.agent.transfer(
            self.src, self.peer, self.nbytes, self.complete, on_received=self.received
        )
        self.sock.agent.schedule(
            current_timeout, self.watchdog, node=self.src, args=(current_timeout,)
        )

    def watchdog(self, current_timeout: float) -> None:
        """Timeout check: retransmit with backoff or give up."""
        if self.done:
            return
        self.waited += current_timeout
        self.attempt_no += 1
        if self.attempt_no > self.max_retries:
            self.done = True
            err = OnlineTimeoutError(
                f"send {self.nbytes}B node{self.src}->node{self.peer}",
                self.waited,
                self.attempt_no,
            )
            if self.on_timeout is not None:
                self.on_timeout(err)
                return
            raise err
        self.attempt(self.sock._backoff_timeout(self.timeout_s, self.attempt_no))
