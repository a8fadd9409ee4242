"""HTTP background traffic (paper Section 4.2).

"8,000 clients continuously sending HTTP file requests to 2,000 servers;
average time gap between two successive requests of a client is 5 seconds
and average file size is 50 KB." Each request is a small TCP upload
(the GET) followed by the server's TCP response of exponentially
distributed size; the client then thinks for an exponential gap and
repeats.

Implementation notes for parallel execution:

- every client owns an independent RNG stream, so behavior is identical
  whatever order the engine interleaves clients in (one LP or many,
  window by window);
- the server's response starts when the request *arrives at the server*
  (receiver-side callback) and the client's next request is scheduled
  when the response *arrives at the client* — every action executes on
  the LP that owns the acting node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..simulator import NetworkSimulator
from ..tcp import start_transfer

__all__ = ["HttpTraffic", "HttpStats"]


@dataclass
class HttpStats:
    requests_started: int = 0
    responses_completed: int = 0
    bytes_served: int = 0
    response_times: list[float] = field(default_factory=list)


class HttpTraffic:
    """Closed-loop web workload between client and server host sets.

    Parameters mirror the paper's defaults; ``stop_at`` freezes the loop
    (no new requests are issued at or after that simulated time).
    """

    def __init__(
        self,
        sim: NetworkSimulator,
        clients: list[int],
        servers: list[int],
        seed: int = 0,
        mean_gap_s: float = 5.0,
        mean_file_bytes: float = 50_000.0,
        request_bytes: int = 300,
        min_file_bytes: int = 1_000,
        stop_at: float | None = None,
    ) -> None:
        if not clients or not servers:
            raise ValueError("need at least one client and one server")
        self.sim = sim
        self.clients = list(clients)
        self.servers = list(servers)
        # Independent per-client streams: interleaving-order invariant.
        root = np.random.SeedSequence(seed)
        self.rngs = {
            c: np.random.default_rng(s)
            for c, s in zip(self.clients, root.spawn(len(self.clients)))
        }
        self.mean_gap_s = mean_gap_s
        self.mean_file_bytes = mean_file_bytes
        self.request_bytes = request_bytes
        self.min_file_bytes = min_file_bytes
        self.stop_at = stop_at
        self.stats = HttpStats()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule every client's first request (staggered exponentially)."""
        for client in self.clients:
            self._schedule_next(client)

    def _schedule_next(self, client: int) -> None:
        # The first request of each client samples a full gap too, which
        # staggers the start and avoids a synchronized burst at t=0.
        gap = float(self.rngs[client].exponential(self.mean_gap_s))
        when = self.sim.now + gap
        if self.stop_at is not None and when >= self.stop_at:
            return
        # Closure-free dispatch: a bound method plus args tuple pickles
        # across the future LP boundary; a capturing lambda never will
        # (simlint SIM203).
        self.sim.sched.schedule_at(when, self._issue, node=client, args=(client,))

    def _issue(self, client: int) -> None:
        rng = self.rngs[client]
        server = self.servers[int(rng.integers(len(self.servers)))]
        size = max(self.min_file_bytes, int(rng.exponential(self.mean_file_bytes)))
        started = self.sim.now
        self.stats.requests_started += 1

        def _response_received(t: float, c=client, s=size, t0=started) -> None:
            # Executes at the client: record stats, think, request again.
            self.stats.responses_completed += 1
            self.stats.bytes_served += s
            self.stats.response_times.append(t - t0)
            self._schedule_next(c)

        def _request_received(_t: float, c=client, sv=server, s=size) -> None:
            # Executes at the server: stream the file back.
            start_transfer(self.sim, sv, c, s, on_received=_response_received)

        start_transfer(
            self.sim, client, server, self.request_bytes, on_received=_request_received
        )
