"""The per-hop path and the forwarding state as they were before they
were made cheap.

``NetworkSimulator._handle_at``, ``LinkRuntime.transmit`` (with the
``_early_drop`` it calls) and ``SimKernel.run`` / ``schedule_at`` at
commit e974424, moved here verbatim as methods of three subclasses, to
serve as the reference of ``tests/test_hop_oracle.py``: the code under
``src/`` must count, drop, route and time every packet exactly as these
do — counters equal, every float equal as a hex string.

Nothing else of the subclasses differs from what ships: construction,
``inject``, ``_deliver``, the transports, the fault hooks and the event
queue are the shipped ones. What the old code needs and the new one
dropped is rebuilt in ``__init__``: the ``(from, to) -> LinkRuntime``
dict (first-created link wins — the parallel-link bug is the old code's,
so the suite compares on networks without parallel links) and
``node_packets`` as the live ``int64`` array.

Beside them, the forwarding state of commit 6c304f0, the reference of
``tests/test_forwarding_state_oracle.py``: ``ForwardingPlane.next_hop``,
``flush_cache`` and ``digest`` over one ``(node, dest)``-keyed dict, and
``NetworkSimulator._resolve_hop`` building a fresh ``(next node,
LinkRuntime, direction)`` tuple for every pair it resolves.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable

import numpy as np

from repro.engine.events import Event
from repro.engine.kernel import SimKernel
from repro.netsim.link import LinkRuntime, TransmitResult
from repro.netsim.packet import Packet
from repro.netsim.simulator import NetworkSimulator, _ospf_metric
from repro.routing.fib import ForwardingPlane


class OracleLinkRuntime(LinkRuntime):
    """``LinkRuntime`` with the old ``transmit`` and ``_early_drop``."""

    def _early_drop(self, backlog_bytes: float) -> bool:
        """Gentle-RED drop decision for the observed ``backlog_bytes``.

        Drop probability is 0 up to ``min_th``, rises linearly to
        ``max_p`` at ``max_th``, continues linearly from ``max_p`` to 1
        at ``2 * max_th`` (the gentle-RED extension), and is certain
        beyond — no discontinuous jump anywhere in the profile.
        """
        if self.discipline != "red":
            return False
        min_th = self.red.min_th_fraction * self.link.queue_bytes
        max_th = self.red.max_th_fraction * self.link.queue_bytes
        if backlog_bytes <= min_th:
            return False
        if backlog_bytes < max_th:
            p = self.red.max_p * (backlog_bytes - min_th) / (max_th - min_th)
        elif backlog_bytes < 2.0 * max_th:
            p = self.red.max_p + (1.0 - self.red.max_p) * (backlog_bytes - max_th) / max_th
        else:
            return True
        return bool(self._red_stream().random() < p)

    def transmit(self, from_node: int, packet: Packet, now: float) -> TransmitResult:
        """Offer ``packet`` for transmission; returns timing or a drop.

        ``arrival_time`` is when the last bit reaches the far endpoint
        (transmission completion + propagation latency).
        """
        d = self.direction(from_node)
        if self.failed:
            self.packets_dropped[d] += 1
            return TransmitResult(accepted=False)
        if self.loss_prob > 0.0 and self._fault_draw() < self.loss_prob:
            self.packets_lost[d] += 1
            return TransmitResult(accepted=False, faulted=True)
        start = max(now, self.busy_until[d])
        backlog_bytes = (start - now) * self.link.bandwidth_bps / 8.0
        # Admission counts the packet itself: admitting on backlog alone
        # overshoots the buffer by up to one packet and lets a packet
        # larger than the whole buffer into an empty queue.
        if (
            backlog_bytes + packet.size_bytes > self.link.queue_bytes
            or self._early_drop(backlog_bytes)
        ):
            self.packets_dropped[d] += 1
            return TransmitResult(accepted=False, backlog_bytes=backlog_bytes)
        tx_time = packet.size_bytes * 8.0 / self.link.bandwidth_bps
        finish = start + tx_time
        self.busy_until[d] = finish
        if self.corrupt_prob > 0.0 and self._fault_draw() < self.corrupt_prob:
            # A corrupted packet still occupies the transmitter for its
            # full serialization time (capacity is burned) but never
            # reaches the far endpoint — the receiver's checksum fails.
            self.packets_corrupted[d] += 1
            return TransmitResult(
                accepted=False,
                start_time=start,
                arrival_time=finish + self.link.latency_s,
                backlog_bytes=backlog_bytes,
                faulted=True,
            )
        self.bytes_carried[d] += packet.size_bytes
        self.packets_carried[d] += 1
        return TransmitResult(
            accepted=True,
            start_time=start,
            arrival_time=finish + self.link.latency_s,
            backlog_bytes=backlog_bytes,
        )


class OracleSimulator(NetworkSimulator):
    """``NetworkSimulator`` with the old ``_handle_at`` over old links."""

    #: a plain attribute again, as it was: the live array
    node_packets = None

    def __init__(self, net, fib, scheduler, **kwargs: Any) -> None:
        super().__init__(net, fib, scheduler, **kwargs)
        self.links = [
            OracleLinkRuntime(lr.link, discipline=lr.discipline) for lr in self.links
        ]
        self._runtime_by_pair: dict[tuple[int, int], LinkRuntime] = {}
        for lr in self.links:
            self._runtime_by_pair.setdefault((lr.link.u, lr.link.v), lr)
            self._runtime_by_pair.setdefault((lr.link.v, lr.link.u), lr)
        self.node_packets = np.zeros(net.num_nodes, dtype=np.int64)

    def _handle_at(self, node: int, packet: Packet) -> None:
        """Process a packet at ``node``: deliver locally or forward."""
        if self._down_nodes and node in self._down_nodes:
            self.dropped_fault += 1
            return
        self.node_packets[node] += 1
        if self._obs.enabled:
            self._obs_node_events.inc(node)
            self._obs_rate_bins.observe(self.now, node)
        if node == packet.dst:
            self._deliver(node, packet)
            return
        if packet.ttl <= 0:
            self.counters.packets_dropped_ttl += 1
            self._obs_dropped_ttl.inc()
            return
        next_node = self.fib.next_hop(node, packet.dst)
        if next_node is None:
            self.counters.packets_unroutable += 1
            self._obs_unroutable.inc()
            return
        runtime = self._runtime_by_pair.get((node, next_node))
        assert runtime is not None, "forwarding plane returned a non-adjacent hop"
        depart = self.now + (self.hop_processing_s if node != packet.src else 0.0)
        result = runtime.transmit(node, packet, depart)
        if self._obs.enabled:
            self._obs_queue_hwm.observe(runtime.link.link_id, result.backlog_bytes)
        if not result.accepted:
            if result.faulted:
                # Injected loss/corruption — accounted separately so the
                # queue-drop counter (and the regression fingerprint)
                # keeps its meaning under fault scenarios.
                self.dropped_fault += 1
                return
            self.counters.packets_dropped_queue += 1
            if self._obs.enabled:
                self._obs_dropped_queue.inc()
                self._obs_link_drops.inc(runtime.link.link_id)
            return
        packet.ttl -= 1
        packet.hops += 1
        if self._obs.enabled:
            link_id = runtime.link.link_id
            self._obs_link_packets.inc(link_id)
            self._obs_link_bytes.inc(link_id, packet.size_bytes)
        if self.record_transmissions:
            self.tx_times.append(result.start_time)
            self.tx_from.append(node)
            self.tx_to.append(next_node)
        if self._trace.enabled:
            self._trace.tx(result.start_time, node, next_node)
        # Closure-free forwarding: bound method + argument slots on the
        # Event itself — no per-hop lambda allocation (the hot path of
        # the whole simulator; see docs/performance.md).
        self.sched.schedule_at(
            result.arrival_time,
            self._handle_at,
            node=next_node,
            args=(next_node, packet),
        )


class OracleKernel(SimKernel):
    """``SimKernel`` with the old ``schedule_at`` and ``run``."""

    def schedule_at(
        self, time: float, fn: Callable[..., Any], node: int = -1, args: tuple = ()
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time`` at ``node``."""
        if time < self.now:
            raise ValueError("cannot schedule into the past")
        return self.queue.push(time, fn, node, args)

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Execute events until the queue drains, ``until`` is reached, or
        ``max_events`` have run. Returns the number executed this call.

        Events stamped exactly at ``until`` are *not* executed, and once
        nothing earlier than ``until`` is queued ``now`` advances to
        ``until``, so back-to-back windows compose exactly. A call that
        stops on ``max_events`` leaves ``now`` at the last executed event:
        work before ``until`` may still be pending.
        """
        executed = 0
        bound = float("inf") if until is None else until
        queue = self.queue
        while max_events is None or executed < max_events:
            ev = queue.pop_until(bound)
            if ev is None:
                if until is not None and self.now < until:
                    self.now = until
                break
            self.now = ev.time
            ev.fn(*ev.args)
            executed += 1
            if self.record_trace:
                self._trace_times.append(ev.time)
                self._trace_nodes.append(ev.node)
        self.events_executed += executed
        return executed


# ----------------------------------------------------------------------
# Forwarding state at commit 6c304f0
# ----------------------------------------------------------------------
_MISS = object()


class OracleForwardingPlane(ForwardingPlane):
    """``ForwardingPlane`` keeping its decisions under ``(node, dest)`` keys."""

    def __init__(self, net, bgp=None) -> None:
        super().__init__(net, bgp)
        # (node, dest) -> next node; flows hammer the same pairs.
        self._cache: dict[tuple[int, int], int | None] = {}

    def next_hop(self, node: int, dest: int) -> int | None:
        """The next node on the path from ``node`` to ``dest``.

        Returns ``None`` for unreachable destinations — under policy
        routing, connectivity does not imply reachability.
        """
        if node == dest:
            return None
        key = (node, dest)
        hit = self._cache.get(key, _MISS)
        if hit is not _MISS:
            return hit
        result = self._compute_next_hop(node, dest)
        self._cache[key] = result
        return result

    @property
    def resolved_pairs(self) -> int:
        return len(self._cache)

    def flush_cache(self) -> None:
        """Drop every cached forwarding decision (route recomputation)."""
        self._cache.clear()
        self.epoch += 1

    def digest(self) -> str:
        """SHA-256 over the resolved forwarding decisions, order-independent."""
        h = hashlib.sha256()
        for (node, dest), nxt in sorted(self._cache.items()):
            h.update(f"{node},{dest}->{-1 if nxt is None else nxt};".encode())
        return h.hexdigest()


class OracleResolvingSimulator(NetworkSimulator):
    """``NetworkSimulator`` resolving each pair to a tuple of its own."""

    def _resolve_hop(self, node: int, dst: int) -> tuple[int, LinkRuntime, int] | None:
        """Ask the forwarding plane for one ``(node, dst)`` and keep the answer.

        Between a pair with parallel links the packet rides the one SPF
        routed over: of those in service the cheapest by the OSPF metric,
        the first-created among equals (``min`` returns the first of
        equal minima). Only a link failed behind the forwarding plane's
        back — ``fail_link`` without ``fib.set_link_state`` — can leave
        none in service; the packet is then offered to the cheapest and
        dropped there.
        """
        next_node = self.fib.next_hop(node, dst)
        hop = None
        if next_node is not None:
            links = self._links_by_pair.get((node, next_node))
            assert links, "forwarding plane returned a non-adjacent hop"
            runtime = links[0]
            if len(links) > 1:
                runtime = min([lr for lr in links if not lr.failed] or links, key=_ospf_metric)
            hop = (next_node, runtime, runtime.direction(node))
        self._hops[node][dst] = hop
        return hop
