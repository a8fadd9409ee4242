"""The per-hop path, the link state and the forwarding state as they
were before they were made cheap.

``NetworkSimulator._handle_at`` and ``SimKernel.run`` / ``schedule_at``
at commit e974424, moved here verbatim as methods of subclasses (the
kernel's of the frozen one in ``tests/_kernel_oracle.py``), to
serve as the reference of ``tests/test_hop_oracle.py``: the code under
``src/`` must count, drop, route and time every packet exactly as these
do — counters equal, every float equal as a hex string.

The links those run on are ``LinkRuntime`` at commit 7f0bbf2, copied
whole as ``OracleLinkRuntime``: one dataclass per link with its
``transmit``, its field declarations, and the row capture of a
checkpoint — ``capture(owned)``, ``capture_table``, ``restore_table``
and ``select`` — the reference of ``tests/test_link_table_oracle.py``.

Nothing else of the simulator subclasses differs from what ships:
``inject``, ``_deliver``, the transports, the fault hooks and the event
queue are the shipped ones. What the old code needs and the new one
dropped is rebuilt in ``__init__``: the old links, the ``(from, to) ->
link`` dict (first-created link wins — the parallel-link bug is the old
code's, so the suite compares on networks without parallel links) and
``node_packets`` as the live ``int64`` array. One arm is gone from the
old hop path: the tracer's per-hop sample, a channel that no longer
exists; the hop is recorded through ``record_transmissions`` alone. So
is its queue high-water-mark write: the registry only reads now.

Beside them, the forwarding state of commit 6c304f0, the reference of
``tests/test_forwarding_state_oracle.py``: ``ForwardingPlane.next_hop``,
``flush_cache`` and ``digest`` over one ``(node, dest)``-keyed dict, and
``NetworkSimulator._resolve_hop`` building a fresh port tuple for every
pair it resolves.
"""

from __future__ import annotations

import hashlib
from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter
from typing import Any, Callable, Sequence

import numpy as np

from repro.engine.events import Event
from _kernel_oracle import KernelOracle
from repro.netsim.link import RedParams, TransmitResult
from repro.topology.models import Link
from repro.netsim.packet import Packet
from repro.netsim.simulator import NetworkSimulator, _ospf_metric
from repro.routing.fib import ForwardingPlane


# ----------------------------------------------------------------------
# LinkRuntime at commit 7f0bbf2
# ----------------------------------------------------------------------
# How each LinkRuntime field is declared, as dataclass-field metadata — the
# one place that says which fields are simulation state and who they travel
# with. STATIC: fixed at construction, a rebuilt twin already has it. The
# others are dynamic, and a checkpoint of the shard holds them all for every
# link not in its freshly built state; they differ in what an LP takes
# along when it moves to another shard
# (OracleLinkRuntime.capture): PER_DIRECTION state goes with the LP that transmits
# in that direction, whole-link state — the random streams, _stream — only
# with an LP that owns both, and SHARD_LOCAL state — partial counters that
# sum across shards, flags every shard's control replay sets alike — never.
_STATIC = {"state": "static"}
_PER_DIRECTION = {"state": "direction"}
_SHARD_LOCAL = {"state": "shard"}


def _pair(zero: Any, metadata: dict) -> Any:
    """A ``[direction 0, direction 1]`` field starting at ``zero``."""
    return field(default_factory=lambda: [zero, zero], metadata=metadata)


def _stream(seed_base: int) -> Any:
    """A per-link random stream, ``None`` until its first draw creates it
    seeded ``seed_base ^ link_id`` (:meth:`OracleLinkRuntime._create_stream`)."""
    return field(
        default=None, init=False, repr=False, compare=False,
        metadata={"state": "link", "seed": seed_base},
    )


@dataclass
class OracleLinkRuntime:
    """Mutable per-link transmission state (both directions).

    Direction 0 carries ``u -> v`` traffic, direction 1 ``v -> u``.
    ``discipline`` is ``'droptail'`` (default) or ``'red'``.
    """

    link: Link = field(metadata=_STATIC)
    discipline: str = field(default="droptail", metadata=_STATIC)
    red: RedParams = field(default_factory=RedParams, metadata=_STATIC)
    busy_until: list[float] = _pair(0.0, _PER_DIRECTION)
    bytes_carried: list[int] = _pair(0, _SHARD_LOCAL)
    packets_carried: list[int] = _pair(0, _SHARD_LOCAL)
    packets_dropped: list[int] = _pair(0, _SHARD_LOCAL)
    #: failure injection: a failed link drops every offered packet
    failed: bool = field(default=False, metadata=_SHARD_LOCAL)
    #: fault injection (repro.faults): probabilistic loss before transmit
    loss_prob: float = field(default=0.0, metadata=_SHARD_LOCAL)
    #: fault injection: probabilistic corruption — the packet occupies the
    #: transmitter (capacity is burned) but is discarded at the receiver
    corrupt_prob: float = field(default=0.0, metadata=_SHARD_LOCAL)
    packets_lost: list[int] = _pair(0, _SHARD_LOCAL)
    packets_corrupted: list[int] = _pair(0, _SHARD_LOCAL)
    # The frozen Link's figures, one attribute away instead of two: they
    # are read on every hop.
    bandwidth_bps: float = field(init=False, metadata=_STATIC)
    latency_s: float = field(init=False, metadata=_STATIC)
    queue_bytes: int = field(init=False, metadata=_STATIC)
    # Per-link deterministic streams keep RED runs reproducible and
    # independent of event interleaving across links. Fault draws come
    # from a second stream so a loss burst never perturbs the RED
    # sequence: a no-fault run stays bit-identical whether or not faults
    # were ever configured. Both are created by their first draw, so a
    # link that never draws — every drop-tail link — carries none.
    _rng: np.random.Generator | None = _stream(0x9E3779B9)
    _fault_rng: np.random.Generator | None = _stream(0x7F4A7C15)

    def __post_init__(self) -> None:
        if self.discipline not in ("droptail", "red"):
            raise ValueError(f"unknown queue discipline {self.discipline!r}")
        self.bandwidth_bps = self.link.bandwidth_bps
        self.latency_s = self.link.latency_s
        self.queue_bytes = self.link.queue_bytes

    # -- snapshot ------------------------------------------------------
    def capture(self, owned: tuple[bool, bool] | None = None) -> dict[str, Any]:
        """Picklable copy of the dynamic fields, by name.

        All of them by default. With ``owned = (d0, d1)`` only the slice
        that moves with an LP transmitting in the flagged directions (see
        the declarations above), the other direction's per-direction
        values as ``None``. A random stream is captured as its
        bit-generator state (``None``: not created yet).
        """
        row = _captured_row(_dynamic_values(self))
        return dict(zip(_DYNAMIC, row)) if owned is None else _select(row, owned)

    def restore(self, state: dict[str, Any]) -> None:
        """Apply a :meth:`capture` — whole, or the slice an LP brought along.

        Fields the capture left out, and per-direction entries it left
        ``None``, keep their present values.
        """
        for name, saved in state.items():
            if name in _PAIRS:
                current = getattr(self, name)
                for d, value in enumerate(saved):
                    if value is not None:
                        current[d] = value
            elif name in _STREAM_SEEDS and saved is not None:
                # A stream resumes mid-sequence; one not created here yet
                # is created as its first draw would have created it.
                stream = getattr(self, name)
                if stream is None:
                    stream = self._create_stream(name)
                stream.bit_generator.state = saved
            else:
                setattr(self, name, saved)

    @staticmethod
    def capture_table(links: Sequence[OracleLinkRuntime]) -> dict[str, Any]:
        """Every link's dynamic state as one sparse table.

        Field names once, and ``rows``: link index -> captured row (the
        field values in :data:`_DYNAMIC` order), only for a link whose
        state differs from a freshly built one's — the others are what a
        rebuilt twin already has. :meth:`restore_table` is the inverse,
        :meth:`select` cuts LP slices out of it.
        """
        rows = {}
        for index, lr in enumerate(links):
            values = _dynamic_values(lr)
            if values != _FRESH_VALUES:
                rows[index] = _captured_row(values)
        return {"fields": _DYNAMIC, "rows": rows}

    @staticmethod
    def restore_table(links: Sequence[OracleLinkRuntime], table: dict[str, Any]) -> None:
        """Apply a :meth:`capture_table` onto freshly built links: a link
        without a row keeps the state it was built with."""
        names = table["fields"]
        for index, row in table["rows"].items():
            links[index].restore(dict(zip(names, row)))

    @staticmethod
    def select(
        table: dict[str, Any], picks: Sequence[tuple[int, tuple[bool, bool]]]
    ) -> dict[int, dict[str, Any]]:
        """LP slices cut out of a :meth:`capture_table`, without capturing.

        ``picks`` lists ``(link index, owned)`` pairs; each gets what
        ``links[index].capture(owned)`` returned when the table was taken.
        """
        rows = table["rows"]
        return {index: _select(rows.get(index, _FRESH_ROW), owned) for index, owned in picks}

    def direction(self, from_node: int) -> int:
        """Direction index for traffic leaving ``from_node`` (0 or 1)."""
        if from_node == self.link.u:
            return 0
        if from_node == self.link.v:
            return 1
        raise ValueError(f"node {from_node} not on link {self.link.link_id}")

    def _create_stream(self, name: str) -> np.random.Generator:
        """Create random stream ``name`` from its declared seed base."""
        rng = np.random.default_rng(_STREAM_SEEDS[name] ^ self.link.link_id)
        setattr(self, name, rng)
        return rng

    def _red_stream(self) -> np.random.Generator:
        """The RED stream, created on first use."""
        rng = self._rng
        return rng if rng is not None else self._create_stream("_rng")

    def _fault_stream(self) -> np.random.Generator:
        """The fault stream, created on first use."""
        rng = self._fault_rng
        return rng if rng is not None else self._create_stream("_fault_rng")

    def _fault_draw(self) -> float:
        """Uniform draw from the lazily created fault stream."""
        return float(self._fault_stream().random())

    def _early_drop(self, backlog_bytes: float) -> bool:
        """Gentle-RED drop decision for the observed ``backlog_bytes``.

        Drop probability is 0 up to ``min_th``, rises linearly to
        ``max_p`` at ``max_th``, continues linearly from ``max_p`` to 1
        at ``2 * max_th`` (the gentle-RED extension), and is certain
        beyond — no discontinuous jump anywhere in the profile.
        """
        if self.discipline != "red":
            return False
        min_th = self.red.min_th_fraction * self.queue_bytes
        max_th = self.red.max_th_fraction * self.queue_bytes
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
        backlog_bytes = (start - now) * self.bandwidth_bps / 8.0
        # Admission counts the packet itself: admitting on backlog alone
        # overshoots the buffer by up to one packet and lets a packet
        # larger than the whole buffer into an empty queue.
        if (
            backlog_bytes + packet.size_bytes > self.queue_bytes
            or self._early_drop(backlog_bytes)
        ):
            self.packets_dropped[d] += 1
            return TransmitResult(accepted=False, backlog_bytes=backlog_bytes)
        tx_time = packet.size_bytes * 8.0 / self.bandwidth_bps
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
                arrival_time=finish + self.latency_s,
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

    @property
    def total_bytes(self) -> int:
        """Bytes carried, both directions."""
        return self.bytes_carried[0] + self.bytes_carried[1]

    @property
    def total_packets(self) -> int:
        """Packets carried, both directions."""
        return self.packets_carried[0] + self.packets_carried[1]

    @property
    def total_drops(self) -> int:
        """Packets dropped, both directions."""
        return self.packets_dropped[0] + self.packets_dropped[1]

    @property
    def total_lost(self) -> int:
        """Packets lost to an injected loss burst, both directions."""
        return self.packets_lost[0] + self.packets_lost[1]

    @property
    def total_corrupted(self) -> int:
        """Packets corrupted by an injected fault, both directions."""
        return self.packets_corrupted[0] + self.packets_corrupted[1]

    def utilization(self, duration_s: float) -> float:
        """Mean utilization of the busier direction over ``duration_s``."""
        if duration_s <= 0:
            return 0.0
        byte_max = max(self.bytes_carried)
        return min(1.0, byte_max * 8.0 / (self.link.bandwidth_bps * duration_s))


# The snapshot layout, derived once from the declarations above.
#: Every dynamic field, and those an LP takes along — from the metadata.
_DYNAMIC = tuple(f.name for f in fields(OracleLinkRuntime) if f.metadata != _STATIC)
_MIGRATES = tuple(
    f.name for f in fields(OracleLinkRuntime) if f.metadata not in (_STATIC, _SHARD_LOCAL)
)
#: the random streams and their seed bases
_STREAM_SEEDS = {f.name: f.metadata["seed"] for f in fields(OracleLinkRuntime) if "seed" in f.metadata}
#: the dynamic fields' values on a freshly built link, in _DYNAMIC order
_FRESH_VALUES = tuple(
    f.default if f.default is not MISSING else f.default_factory()
    for f in fields(OracleLinkRuntime)
    if f.name in _DYNAMIC
)
#: the [direction 0, direction 1] fields
_PAIRS = frozenset(n for n, v in zip(_DYNAMIC, _FRESH_VALUES) if type(v) is list)
#: every dynamic field's value in one C-level call
_dynamic_values = attrgetter(*_DYNAMIC)
_PAIR_AT = tuple(i for i, name in enumerate(_DYNAMIC) if name in _PAIRS)
_STREAM_AT = tuple(i for i, name in enumerate(_DYNAMIC) if name in _STREAM_SEEDS)
#: (name, row position) of what an LP takes along: per direction, whole-link
_MOVES_PER_DIRECTION = tuple((n, _DYNAMIC.index(n)) for n in _MIGRATES if n in _PAIRS)
_MOVES_WHOLE = tuple((n, _DYNAMIC.index(n)) for n in _MIGRATES if n not in _PAIRS)


def _captured_row(values: tuple) -> tuple:
    """A link's captured row from its :data:`_dynamic_values`: pairs
    copied, a stream as its bit-generator state (``None`` if uncreated)."""
    row = list(values)
    for i in _PAIR_AT:
        row[i] = row[i][:]
    for i in _STREAM_AT:
        if row[i] is not None:
            row[i] = row[i].bit_generator.state
    return tuple(row)


def _select(row: tuple, owned: tuple[bool, bool]) -> dict[str, Any]:
    """The slice of a captured row an LP transmitting in the ``owned``
    directions takes along: its directions of the per-direction fields
    (the other as ``None``), the whole-link ones only if it owns both."""
    d0, d1 = owned
    state = {}
    for name, i in _MOVES_PER_DIRECTION:
        pair = row[i]
        state[name] = [pair[0] if d0 else None, pair[1] if d1 else None]
    if d0 and d1:
        for name, i in _MOVES_WHOLE:
            state[name] = row[i]
    return state


_FRESH_ROW = _captured_row(_FRESH_VALUES)


#: a link's fields per direction, in the order :func:`per_link` lists them
PER_DIRECTION = (
    "bytes_carried", "packets_carried", "packets_dropped", "packets_lost",
    "packets_corrupted", "busy_until",
)


def per_link(links: Sequence) -> list[list]:
    """Every link's state, floats as hex: its :data:`PER_DIRECTION` pairs,
    its fault flags, and its RED and fault streams' bit-generator states
    (``None``: not created) — read from old links' fields, or from the
    link table's columns behind a simulator's ``links`` handles."""
    if isinstance(links[0], OracleLinkRuntime):
        rows = [
            [getattr(lr, name) for name in PER_DIRECTION]
            + [[lr.failed, lr.loss_prob, lr.corrupt_prob], [lr._rng, lr._fault_rng]]
            for lr in links
        ]
    else:
        table = links[0].table
        rows = [
            [getattr(table, name)[2 * i:2 * i + 2] for name in PER_DIRECTION]
            + [[getattr(table, name)[i] for name in table.LINK_COLUMNS],
               [table.streams.get(2 * i + kind) for kind in (0, 1)]]
            for i in range(len(links))
        ]
    return [[[_exact(v) for v in field] for field in row] for row in rows]


def _exact(value: Any) -> Any:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.random.Generator):
        return value.bit_generator.state
    return value


class OracleSimulator(NetworkSimulator):
    """``NetworkSimulator`` with the old ``_handle_at`` over old links.

    Its counts are the ones the registry reads (``node_packets`` and the
    per-link sums), kept by the old code; nothing is written on the hop,
    as it ships.
    """

    #: a plain attribute again, as it was: the live array
    node_packets = None

    def __init__(self, net, fib, scheduler, **kwargs: Any) -> None:
        # Before the registry first reads it, in the base constructor.
        self.node_packets = np.zeros(net.num_nodes, dtype=np.int64)
        super().__init__(net, fib, scheduler, **kwargs)
        self.links = [
            OracleLinkRuntime(lr.link, discipline=lr.table.discipline) for lr in self.links
        ]
        self._runtime_by_pair: dict[tuple[int, int], OracleLinkRuntime] = {}
        for lr in self.links:
            self._runtime_by_pair.setdefault((lr.link.u, lr.link.v), lr)
            self._runtime_by_pair.setdefault((lr.link.v, lr.link.u), lr)

    def _per_link(self, column: str) -> np.ndarray:
        """Per-link sums off the old links (the link table's while the
        base constructor still holds those)."""
        if not isinstance(self.links[0], OracleLinkRuntime):
            return super()._per_link(column)
        return np.array([sum(getattr(lr, column)) for lr in self.links], dtype=np.int64)

    def _handle_at(self, node: int, packet: Packet) -> None:
        """Process a packet at ``node``: deliver locally or forward."""
        if self._down_nodes and node in self._down_nodes:
            self.dropped_fault += 1
            return
        self.node_packets[node] += 1
        if node == packet.dst:
            self._deliver(node, packet)
            return
        if packet.ttl <= 0:
            self.counters.packets_dropped_ttl += 1
            return
        next_node = self.fib.next_hop(node, packet.dst)
        if next_node is None:
            self.counters.packets_unroutable += 1
            return
        runtime = self._runtime_by_pair.get((node, next_node))
        assert runtime is not None, "forwarding plane returned a non-adjacent hop"
        depart = self.now + (self.hop_processing_s if node != packet.src else 0.0)
        result = runtime.transmit(node, packet, depart)
        if not result.accepted:
            if result.faulted:
                # Injected loss/corruption — accounted separately so the
                # queue-drop counter (and the regression fingerprint)
                # keeps its meaning under fault scenarios.
                self.dropped_fault += 1
                return
            self.counters.packets_dropped_queue += 1
            return
        packet.ttl -= 1
        packet.hops += 1
        if self.record_transmissions:
            self.tx_times.append(result.start_time)
            self.tx_from.append(node)
            self.tx_to.append(next_node)
        # Closure-free forwarding: bound method + argument slots on the
        # Event itself — no per-hop lambda allocation (the hot path of
        # the whole simulator; see docs/performance.md).
        self.sched.schedule_at(
            result.arrival_time,
            self._handle_at,
            node=next_node,
            args=(next_node, packet),
        )


class OracleKernel(KernelOracle):
    """``SimKernel`` (``tests/_kernel_oracle.py``) with the old
    ``schedule_at`` and ``run``."""

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
    """``NetworkSimulator`` resolving each pair to a tuple of its own.

    The ``(from, to) -> links`` table it looks every pair up in, the
    simulator's at commit 6c304f0, is rebuilt here from ``net.links``: the
    simulator now keeps only the pairs joined by parallel links.
    """

    def __init__(self, net, fib, scheduler, **kwargs: Any) -> None:
        super().__init__(net, fib, scheduler, **kwargs)
        self._links_by_pair: dict[tuple[int, int], list] = {}
        for link, runtime in zip(net.links, self.links):
            self._links_by_pair.setdefault((link.u, link.v), []).append(runtime)
            self._links_by_pair.setdefault((link.v, link.u), []).append(runtime)

    def _resolve_hop(self, node: int, dst: int) -> tuple[int, int, int] | None:
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
            hop = (next_node, runtime.index, 2 * runtime.index + runtime.direction(node))
        self._hops[node][dst] = hop
        return hop
