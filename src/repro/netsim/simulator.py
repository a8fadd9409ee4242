"""The packet-level network simulator core (MaSSF's network modeling).

Ties together the forwarding plane, per-link transmission state, and the
transport endpoints (TCP/UDP), on top of either DES engine. Every packet
hop is one simulation event executed *at the receiving node*, which is
what makes the engine's per-node event accounting equal the paper's
definition of load ("event rate of the simulation kernel — essentially
one per network packet").
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Iterable, Protocol as TypingProtocol

import numpy as np

from ..obs import names as obs_names
from ..obs.registry import get_registry
from ..routing.fib import ForwardingPlane
from ..routing.ospf import ospf_link_metric
from ..topology.models import Network
from .link import LinkRuntime, LinkTable
from .packet import Packet, Protocol

__all__ = [
    "Scheduler",
    "NetworkSimulator",
    "TrafficCounters",
    "capture_fields",
    "restore_fields",
]

#: Per-hop router processing delay (lookup + queueing into the NIC).
HOP_PROCESSING_S = 5e-6
#: Delivery delay for loopback traffic (src == dst): kernel/IPC overhead.
LOOPBACK_LATENCY_S = 10e-6
#: hop-cache miss (``None`` is an answer: the pair is unroutable)
_UNRESOLVED = object()


def _ospf_metric(runtime: LinkRuntime) -> float:
    return ospf_link_metric(runtime.link.latency_s, runtime.link.bandwidth_bps)


class Scheduler(TypingProtocol):
    """What the simulator needs from an engine (:class:`ShardEngine` is one)."""

    @property
    def current_time(self) -> float:
        """Simulated time of the executing event."""
        ...

    def schedule_at(
        self, time: float, fn: Callable[..., Any], node: int = -1, args: tuple = ()
    ):
        """Schedule ``fn(*args)`` at an absolute simulated time at ``node``.

        The ``args`` slot is the closure-free dispatch path: the per-hop
        hot path passes a bound method plus an argument tuple instead of
        allocating a capturing lambda per packet hop.
        """
        ...


@dataclass
class TrafficCounters:
    """Aggregate traffic statistics of a run."""

    packets_sent: int = 0
    packets_delivered: int = 0
    packets_dropped_queue: int = 0
    packets_dropped_ttl: int = 0
    packets_unroutable: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict: ``sent``, ``delivered``, ... (the
        field names without ``packets_``; the regression fingerprint's keys)."""
        return {f.name[len("packets_"):]: getattr(self, f.name) for f in fields(self)}


# ----------------------------------------------------------------------
# Snapshots: how a state owner captures the fields it declares dynamic
# ----------------------------------------------------------------------
def capture_fields(owner: Any, names: Iterable[str]) -> dict[str, Any]:
    """Picklable, canonical copy of ``owner``'s named fields.

    What :class:`NetworkSimulator` and :class:`repro.faults.FaultInjector`
    build their capture from: each lists its dynamic fields once and
    hands the list here. Equal state gives equal bytes — a set becomes a
    sorted list, a dict is emitted in key order. A dataclass of counters
    contributes its ``vars``, an owner of its own (the simulator's
    :class:`LinkTable`) its ``capture()``.
    """
    return {name: _captured(getattr(owner, name)) for name in names}


def _captured(value: Any) -> Any:
    if is_dataclass(value):
        return dict(vars(value))
    if isinstance(value, set):
        return sorted(value)
    if isinstance(value, dict):
        return dict(sorted(value.items()))
    if isinstance(value, list):
        return list(value)
    if isinstance(value, LinkTable):
        return value.capture()
    return value


def restore_fields(owner: Any, state: dict[str, Any]) -> None:
    """Apply a :func:`capture_fields` dict onto ``owner`` (a rebuilt twin).

    Containers are refilled in place — per-event paths may hold them.
    """
    for name, saved in state.items():
        current = getattr(owner, name)
        if is_dataclass(current):
            vars(current).update(saved)
        elif isinstance(current, list):
            current[:] = saved
        elif isinstance(current, LinkTable):
            current.restore(saved)
        elif isinstance(current, (set, dict)):
            current.clear()
            current.update(saved)
        else:
            setattr(owner, name, saved)


class NetworkSimulator:
    """Hop-by-hop packet simulation over a :class:`Network`.

    Parameters
    ----------
    net, fib:
        Topology and forwarding plane.
    scheduler:
        A :class:`repro.engine.ShardEngine`: one LP for a sequential
        run, a partition for a parallel one.
    record_transmissions:
        Keep a per-hop record ``(time, from_node, to_node)`` used by the
        cost model to count cross-partition events under any mapping.
    """

    #: The dynamic fields: what :meth:`capture` / :meth:`restore` carry,
    #: listed here and nowhere else. ``link_table`` holds every link's
    #: state and captures itself (:meth:`LinkTable.capture`).
    DYNAMIC = (
        "link_table", "counters", "_node_packets", "_down_nodes", "dropped_fault",
        "_flow_ids", "tx_times", "tx_from", "tx_to",
    )
    #: Everything else ``__init__`` sets: configuration, caches a
    #: rebuilt twin re-derives, and the transport demux tables —
    #: callbacks only the replayed setup registers in every scenario
    #: that shards today (ROADMAP item 2).
    #: tests/test_state_owners.py fails on an attribute in neither tuple.
    STATIC = (
        "net", "fib", "sched", "hop_processing_s", "record_transmissions", "links",
        "_parallel_links", "_end_toward", "_hops", "_ports", "_hops_epoch", "_tcp_endpoints",
        "_udp_handlers",
    )

    def __init__(
        self,
        net: Network,
        fib: ForwardingPlane,
        scheduler: Scheduler,
        record_transmissions: bool = False,
        hop_processing_s: float = HOP_PROCESSING_S,
        queue_discipline: str = "droptail",
    ) -> None:
        self.net = net
        self.fib = fib
        self.sched = scheduler
        self.hop_processing_s = hop_processing_s
        self.link_table = LinkTable(net.links, queue_discipline)
        #: one stateless handle per link, ``links[link_id]``
        self.links = [LinkRuntime(self.link_table, i) for i in range(len(net.links))]
        # (from, to) -> the pair's links in creation order; almost always
        # one, so only the pairs joined by parallel links are kept, in
        # _parallel_links, read when such a pair is resolved.
        by_pair: dict[tuple[int, int], list[LinkRuntime]] = {}
        for lr in self.links:
            by_pair.setdefault((lr.link.u, lr.link.v), []).append(lr)
            by_pair.setdefault((lr.link.v, lr.link.u), []).append(lr)
        self._parallel_links = {pair: lrs for pair, lrs in by_pair.items() if len(lrs) > 1}
        # _end_toward[node][next node] -> the link end a hop from node to
        # next node leaves by, -1 for a pair joined by parallel links:
        # what a hop-cache miss reads. Built whole here, int -> int, so
        # the collector tracks none of these dicts.
        self._end_toward: list[dict[int, int]] = [{} for _ in range(net.num_nodes)]
        for (u, v), pair_links in by_pair.items():
            lr = pair_links[0]
            self._end_toward[u][v] = (
                2 * lr.index + lr.direction(u) if len(pair_links) == 1 else -1
            )
        # Hop cache: _hops[node][dst] -> the port the pair leaves by, or
        # None for an unroutable pair. Filled one pair at a time through
        # fib.next_hop, so the forwarding plane's own record — and with
        # it fib.digest() — holds exactly the pairs some packet asked
        # for, and dropped whole when fib.epoch moves (see _resolve_hop).
        # A port, (next node, link id, link end), is built on first use
        # into _ports[end] — the end is 2 * link id + direction, the
        # link table's index of it — and shared by every pair routed out
        # of that link end, so there are at most 2 x links of them and a
        # resolved pair allocates nothing but its dict slot.
        self._hops: list[dict[int, tuple[int, int, int] | None]] = [
            {} for _ in range(net.num_nodes)
        ]
        self._ports: list[tuple[int, int, int] | None] = [None] * (2 * len(self.links))
        self._hops_epoch = fib.epoch
        self.counters = TrafficCounters()
        # Per-node handled packet count, as a Python list: one is bumped
        # per event, and a numpy scalar add costs several times a list's.
        self._node_packets = [0] * net.num_nodes
        # Fault state (repro.faults): crashed nodes black-hole every
        # packet that reaches them. Kept outside TrafficCounters so the
        # regression fingerprint's counter dict is unchanged; empty on a
        # healthy run, so the hot path pays one truthiness check.
        self._down_nodes: set[int] = set()
        #: packets discarded by injected faults (crashed node, loss or
        #: corruption burst) — deliberately not part of TrafficCounters
        self.dropped_fault = 0
        # Flow ids handed out so far (TCP connections, UDP datagrams):
        # unique within this simulation, starting at 1 in every one.
        self._flow_ids = 0

        self.record_transmissions = record_transmissions
        self.tx_times: list[float] = []
        self.tx_from: list[int] = []
        self.tx_to: list[int] = []

        # Observability: the registry reads the counts above; nothing is
        # written on the hop (docs/observability.md).
        reg = get_registry()
        reg.read(obs_names.NETSIM_NODE_EVENTS, lambda: self.node_packets)
        reg.read(obs_names.NETSIM_LINK_BYTES, self.link_bytes)
        reg.read(obs_names.NETSIM_LINK_PACKETS, self.link_packets)
        reg.read(obs_names.NETSIM_LINK_DROPS, self.link_drops)
        for name, attr in (
            (obs_names.NETSIM_PACKETS_SENT, "packets_sent"),
            (obs_names.NETSIM_PACKETS_DELIVERED, "packets_delivered"),
            (obs_names.NETSIM_PACKETS_DROPPED_QUEUE, "packets_dropped_queue"),
            (obs_names.NETSIM_PACKETS_DROPPED_TTL, "packets_dropped_ttl"),
            (obs_names.NETSIM_PACKETS_UNROUTABLE, "packets_unroutable"),
        ):
            reg.read(name, lambda attr=attr: getattr(self.counters, attr))

        # Transport demux: (flow_id, node, role) -> endpoint. The role
        # ('snd'/'rcv') disambiguates colocated endpoints of one flow
        # (loopback transfers put both on the same node).
        self._tcp_endpoints: dict[tuple[int, int, str], Any] = {}
        self._udp_handlers: dict[tuple[int, int], Callable[[Packet], None]] = {}

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (the executing event's timestamp)."""
        return self.sched.current_time

    @property
    def node_packets(self) -> np.ndarray:
        """Per-node handled packet count (the PROF node-weight signal).

        A fresh ``int64`` array on every read; assign a whole array to
        replace the counts.
        """
        return np.asarray(self._node_packets, dtype=np.int64)

    @node_packets.setter
    def node_packets(self, counts: Any) -> None:
        self._node_packets[:] = np.asarray(counts, dtype=np.int64).tolist()

    def next_flow_id(self) -> int:
        """A flow identifier unused in this simulation (1, 2, ...)."""
        self._flow_ids += 1
        return self._flow_ids

    def capture(self) -> dict[str, Any]:
        """Picklable copy of the dynamic state (:attr:`DYNAMIC`)."""
        return capture_fields(self, self.DYNAMIC)

    def restore(self, state: dict[str, Any]) -> None:
        """Apply a :meth:`capture` onto a freshly built twin."""
        restore_fields(self, state)
        self._drop_hops()  # link states may have changed under the cache

    # ------------------------------------------------------------------
    # Transport registration (used by tcp.py / udp.py / online layer)
    # ------------------------------------------------------------------
    def register_tcp_endpoint(self, flow_id: int, node: int, endpoint: Any, role: str) -> None:
        """Register a TCP endpoint for delivery demux ('snd' or 'rcv')."""
        if role not in ("snd", "rcv"):
            raise ValueError("role must be 'snd' or 'rcv'")
        self._tcp_endpoints[(flow_id, node, role)] = endpoint

    def unregister_tcp_endpoint(self, flow_id: int, node: int, role: str) -> None:
        """Remove a TCP endpoint registration (idempotent)."""
        self._tcp_endpoints.pop((flow_id, node, role), None)

    def udp_bind(self, node: int, port: int, handler: Callable[[Packet], None]) -> None:
        """Bind a datagram handler to ``(node, port)``; rejects conflicts."""
        key = (node, port)
        if key in self._udp_handlers:
            raise ValueError(f"UDP port {port} already bound on node {node}")
        self._udp_handlers[key] = handler

    # ------------------------------------------------------------------
    # Packet movement
    # ------------------------------------------------------------------
    def inject(self, packet: Packet) -> None:
        """Enter a packet at its source node (transport send).

        Loopback packets (both endpoints on one host) never touch the
        network; they are delivered through the scheduler after a small
        IPC delay — important both for realism and to keep two local
        endpoints from recursing into each other synchronously.
        """
        now = self.sched.current_time
        packet.created_at = now
        self.counters.packets_sent += 1
        if packet.src == packet.dst:
            self.sched.schedule_at(
                now + LOOPBACK_LATENCY_S,
                self._handle_at,
                node=packet.dst,
                args=(packet.dst, packet),
            )
            return
        self._handle_at(packet.src, packet)

    def _handle_at(self, node: int, packet: Packet) -> None:
        """Process a packet at ``node``: deliver locally or forward.

        The hot path of the whole simulator: one of these runs per packet
        hop. A forwarded hop is one hop-cache lookup, one block of float
        arithmetic and one ``schedule_at``; ``current_time`` and the
        ``enabled`` flags are read once (docs/performance.md, "Per-hop
        path").
        """
        if self._down_nodes and node in self._down_nodes:
            self.dropped_fault += 1
            return
        self._node_packets[node] += 1
        sched = self.sched
        now = sched.current_time
        dst = packet.dst
        if node == dst:
            self._deliver(node, packet)
            return
        if packet.ttl <= 0:
            self.counters.packets_dropped_ttl += 1
            return
        if self.fib.epoch != self._hops_epoch:
            self._drop_hops()
        hop = self._hops[node].get(dst, _UNRESOLVED)
        if hop is _UNRESOLVED:
            hop = self._resolve_hop(node, dst)
        if hop is None:
            self.counters.packets_unroutable += 1
            return
        next_node, link_id, end = hop
        depart = now + (self.hop_processing_s if node != packet.src else 0.0)
        size = packet.size_bytes
        # LinkRuntime.transmit's accepting drop-tail case, inline on the
        # link table's columns: its expressions in its order, so every
        # time is the same float. Whatever else can happen — a fault
        # armed on the link, RED, a full queue — goes through transmit()
        # itself, which has touched nothing yet.
        accepted = False
        table = self.link_table
        if table.fast[link_id]:
            busy_until = table.busy_until
            start = busy_until[end]
            if start < depart:
                start = depart
            bandwidth_bps = table.bandwidth_bps[link_id]
            backlog_bytes = (start - depart) * bandwidth_bps / 8.0
            if backlog_bytes + size <= table.queue_bytes[link_id]:
                accepted = True
                finish = start + size * 8.0 / bandwidth_bps
                busy_until[end] = finish
                table.bytes_carried[end] += size
                table.packets_carried[end] += 1
                arrival = finish + table.latency_s[link_id]
        if not accepted:
            result = self.links[link_id].transmit(node, packet, depart)
            if not result.accepted:
                if result.faulted:
                    # Injected loss/corruption — accounted separately so the
                    # queue-drop counter (and the regression fingerprint)
                    # keeps its meaning under fault scenarios.
                    self.dropped_fault += 1
                    return
                self.counters.packets_dropped_queue += 1
                return
            start = result.start_time
            arrival = result.arrival_time
        packet.ttl -= 1
        packet.hops += 1
        if self.record_transmissions:
            self.tx_times.append(start)
            self.tx_from.append(node)
            self.tx_to.append(next_node)
        # Closure-free forwarding: bound method + argument slots on the
        # Event itself — no per-hop lambda allocation.
        sched.schedule_at(arrival, self._handle_at, next_node, (next_node, packet))

    def _resolve_hop(self, node: int, dst: int) -> tuple[int, int, int] | None:
        """Ask the forwarding plane for one ``(node, dst)`` and keep the answer.

        The answer is the shared port of the link end the packet leaves
        by, built the first time any pair needs it. Between a pair with
        parallel links that is the link SPF routed over: of those in
        service the cheapest by the OSPF metric, the first-created among
        equals (``min`` returns the first of equal minima). Only a link
        failed behind the forwarding plane's back — ``fail_link`` without
        ``fib.set_link_state`` — can leave none in service; the packet is
        then offered to the cheapest and dropped there.
        """
        next_node = self.fib.next_hop(node, dst)
        hop = None
        if next_node is not None:
            end = self._end_toward[node].get(next_node)
            if end is None:
                raise RuntimeError(
                    f"forwarding plane routed node {node} to next hop {next_node}, "
                    "which no link joins it to"
                )
            if end < 0:
                links = self._parallel_links[(node, next_node)]
                runtime = min([lr for lr in links if not lr.failed] or links, key=_ospf_metric)
                end = 2 * runtime.index + runtime.direction(node)
            hop = self._ports[end]
            if hop is None:
                hop = self._ports[end] = (next_node, end >> 1, end)
        self._hops[node][dst] = hop
        return hop

    def _drop_hops(self) -> None:
        """Forget every resolved hop (routes or link states changed).

        Ports stay: each names a link end, never goes stale, and the
        choice among parallel links is made again by every re-resolved
        pair.
        """
        for hops in self._hops:
            hops.clear()
        self._hops_epoch = self.fib.epoch

    def _deliver(self, node: int, packet: Packet) -> None:
        self.counters.packets_delivered += 1
        if packet.protocol is Protocol.TCP:
            # ACK-bearing packets (cumulative ACKs, SYN-ACK) go to the data
            # sender; data and SYN go to the receiver.
            role = "snd" if (packet.ack >= 0 or "ACK" in packet.flags) else "rcv"
            endpoint = self._tcp_endpoints.get((packet.flow_id, node, role))
            if endpoint is not None:
                endpoint.receive(packet)
        elif packet.protocol is Protocol.UDP:
            handler = self._udp_handlers.get((node, packet.port))
            if handler is not None:
                handler(packet)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail_link(self, link_id: int) -> None:
        """Bring a link down: every packet offered to it is dropped.

        Forwarding tables are *not* recomputed (as in a real network
        before the IGP reconverges) — transport-layer recovery (TCP RTO)
        is what keeps traffic alive, which is exactly what failure tests
        exercise.
        """
        self.links[link_id].failed = True
        self._drop_hops()

    def restore_link(self, link_id: int) -> None:
        """Bring a failed link back into service."""
        self.links[link_id].failed = False
        self._drop_hops()

    def set_node_down(self, node: int) -> None:
        """Crash a node: packets reaching it are silently discarded.

        In-flight packets already scheduled to arrive at the node are
        dropped on arrival (counted in :attr:`dropped_fault`), matching
        a real crash where queued frames die with the router.
        """
        self._down_nodes.add(node)

    def set_node_up(self, node: int) -> None:
        """Restart a crashed node (idempotent)."""
        self._down_nodes.discard(node)

    # ------------------------------------------------------------------
    # Statistics views
    # ------------------------------------------------------------------
    def _per_link(self, column: str) -> np.ndarray:
        ends = np.asarray(getattr(self.link_table, column), dtype=np.int64)
        return ends[0::2] + ends[1::2]

    def link_bytes(self) -> np.ndarray:
        """Total bytes carried per link (both directions)."""
        return self._per_link("bytes_carried").astype(np.float64)

    def link_packets(self) -> np.ndarray:
        """Total packets carried per link (both directions)."""
        return self._per_link("packets_carried")

    def link_drops(self) -> np.ndarray:
        """Total packets dropped per link (both directions)."""
        return self._per_link("packets_dropped")

    def link_lost(self) -> np.ndarray:
        """Packets lost to injected loss bursts per link (both directions)."""
        return self._per_link("packets_lost")

    def transmissions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Recorded per-hop ``(times, from_nodes, to_nodes)`` arrays."""
        return (
            np.asarray(self.tx_times, dtype=np.float64),
            np.asarray(self.tx_from, dtype=np.int64),
            np.asarray(self.tx_to, dtype=np.int64),
        )
