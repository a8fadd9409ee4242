"""Link transmission model: store-and-forward with drop-tail or RED queues.

Each direction of a duplex link is a FIFO transmitter: a packet begins
transmission when the transmitter frees up, occupies it for
``size * 8 / bandwidth`` seconds, then propagates for the link latency.
The queue is modeled by bounding the backlog ahead of a packet — the
bytes already waiting when it arrives:

- **drop-tail** (default): drop when the packet would not fit — the
  backlog *plus the packet itself* exceeds ``queue_bytes``, so the
  buffer never overshoots its configured size;
- **RED** (Random Early Detection, gentle variant): additionally drop
  probabilistically once the backlog passes ``min_th`` (5 % of the
  buffer), rising linearly to ``max_p`` at ``max_th = 50 %``, then —
  per gentle RED — continuing linearly from ``max_p`` at ``max_th`` to
  certain drop at ``2 * max_th``, desynchronizing TCP flows before the
  buffer overflows.

This O(1) backlog model is standard for packet-level simulators at scale
and preserves the behaviors TCP cares about: queueing delay and loss
under congestion.

Every link's dynamic state lives in one :class:`LinkTable` per simulator,
one list per field; a :class:`LinkRuntime` is a stateless handle on one
link's entries, and its ``transmit`` is the whole model. The per-hop path
(``NetworkSimulator._handle_at``) computes the case that is nearly every
hop — a ``fast`` link accepting the packet — on the columns itself, with
the expressions of ``transmit`` in their order so that every time is the
same float (docs/performance.md, "Per-hop path").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Sequence

import numpy as np

from ..topology.models import Link
from .packet import Packet

__all__ = ["LinkRuntime", "LinkTable", "TransmitResult", "RedParams"]


@dataclass(frozen=True)
class RedParams:
    """RED thresholds as fractions of the buffer, plus the max drop prob."""

    min_th_fraction: float = 0.05
    max_th_fraction: float = 0.5
    max_p: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_th_fraction < self.max_th_fraction <= 1.0:
            raise ValueError("need 0 <= min_th < max_th <= 1")
        if not 0.0 < self.max_p <= 1.0:
            raise ValueError("max_p must be in (0, 1]")


class TransmitResult(NamedTuple):
    """Outcome of offering a packet to a link direction.

    A ``NamedTuple`` rather than a frozen dataclass: one is created per
    packet hop, and tuple construction is several times cheaper than a
    frozen dataclass's ``object.__setattr__`` per field (see
    docs/performance.md).
    """

    accepted: bool
    start_time: float = 0.0
    arrival_time: float = 0.0
    #: bytes already queued ahead of this packet when it was offered
    #: (the depth drop-tail admission and the RED decision act on)
    backlog_bytes: float = 0.0
    #: rejected by an injected fault (loss/corruption burst), not by the
    #: queue — the simulator keeps fault drops out of the traffic counters
    faulted: bool = False


#: The two random streams of a link, as the ``kind`` of its stream key
#: ``2 * index + kind``: RED drops, and fault draws — a second stream, so
#: a loss burst never perturbs the RED sequence and a no-fault run stays
#: bit-identical whether or not faults were ever configured.
RED, FAULT = 0, 1
#: each kind's seed base: a stream is seeded ``base ^ link_id``
_SEEDS = (0x9E3779B9, 0x7F4A7C15)


class LinkTable:
    """Every link's dynamic state, one list (a column) per field.

    :attr:`END_COLUMNS` have one entry per link end ``e = 2 * index + d``
    (direction ``d`` 0 carries ``u -> v`` traffic, 1 ``v -> u``),
    :attr:`LINK_COLUMNS` one per link. The random streams live in
    ``streams``, stream key -> generator, which only a stream's first
    draw fills (:meth:`stream`), so a link that never draws — every
    drop-tail link — has none.

    A checkpoint is :meth:`capture`: a copy of each column. What moves
    with an LP is :meth:`capture_lp`: the busy horizons of the link ends
    it transmits from, and the streams of the links it owns both ends of
    — drawn by its events only. The counters are partial sums that merge
    by addition across shards, and the fault columns are set alike by
    every shard's control replay, so neither ever migrates.
    """

    #: per link end: the busy horizon, then the partial counters
    END_COLUMNS = (
        "busy_until", "bytes_carried", "packets_carried", "packets_dropped",
        "packets_lost", "packets_corrupted",
    )
    #: per link, fault injection: a failed link drops every offered packet;
    #: a loss burst drops with ``loss_prob`` before transmit; a corrupted
    #: packet occupies the transmitter but is discarded at the receiver
    LINK_COLUMNS = ("failed", "loss_prob", "corrupt_prob")
    COLUMNS = END_COLUMNS + LINK_COLUMNS
    #: what :meth:`capture` / :meth:`restore` carry, declared here only
    DYNAMIC = COLUMNS + ("streams",)
    #: fixed at construction — or, ``fast``, derived from the columns
    STATIC = ("links", "discipline", "red", "bandwidth_bps", "latency_s", "queue_bytes", "fast")

    def __init__(
        self, links: Sequence[Link], discipline: str = "droptail", red: RedParams | None = None
    ) -> None:
        if discipline not in ("droptail", "red"):
            raise ValueError(f"unknown queue discipline {discipline!r}")
        self.links = list(links)
        self.discipline = discipline
        self.red = red if red is not None else RedParams()
        n = len(self.links)
        # The frozen Links' figures, read on every hop.
        self.bandwidth_bps = [l.bandwidth_bps for l in self.links]
        self.latency_s = [l.latency_s for l in self.links]
        self.queue_bytes = [l.queue_bytes for l in self.links]
        self.busy_until = [0.0] * (2 * n)
        for name in self.END_COLUMNS[1:]:
            setattr(self, name, [0] * (2 * n))
        self.failed = [False] * n
        self.loss_prob = [0.0] * n
        self.corrupt_prob = [0.0] * n
        #: per link: the fused hop applies — drop-tail with no fault armed
        self.fast = [discipline == "droptail"] * n
        self.streams: dict[int, np.random.Generator] = {}

    def set(self, column: str, index: int, value: Any) -> None:
        """Set link ``index``'s entry of a :attr:`LINK_COLUMNS` column — the
        one way to write them: it re-derives the link's ``fast`` flag."""
        getattr(self, column)[index] = value
        self.fast[index] = self._fast(index)

    def _fast(self, i: int) -> bool:
        return not (
            self.failed[i] or self.loss_prob[i] > 0.0 or self.corrupt_prob[i] > 0.0
            or self.discipline != "droptail"
        )

    def stream(self, index: int, kind: int) -> np.random.Generator:
        """Link ``index``'s ``RED`` or ``FAULT`` stream, created by its first
        use seeded ``_SEEDS[kind] ^ link_id``."""
        key = 2 * index + kind
        rng = self.streams.get(key)
        if rng is None:
            rng = self.streams[key] = np.random.default_rng(
                _SEEDS[kind] ^ self.links[index].link_id
            )
        return rng

    # -- snapshot ------------------------------------------------------
    def capture(self) -> dict[str, Any]:
        """Picklable copy of the dynamic state: each column copied, each
        created stream as its bit-generator state, in key order."""
        state = {name: getattr(self, name)[:] for name in self.COLUMNS}
        state["streams"] = {k: g.bit_generator.state for k, g in sorted(self.streams.items())}
        return state

    def restore(self, state: dict[str, Any]) -> None:
        """Apply a :meth:`capture` onto a freshly built twin, refilling the
        columns in place (the per-hop path holds them)."""
        for name in self.COLUMNS:
            getattr(self, name)[:] = state[name]
        self.streams.clear()
        self._resume(state["streams"])
        self.fast[:] = [self._fast(i) for i in range(len(self.links))]

    def capture_lp(self, ends: Sequence[int], keys: frozenset[int]) -> dict[str, Any]:
        """What moves with an LP, selected from the live columns.

        ``ends`` are the link ends the LP transmits from, ``keys`` the
        stream keys of the links it owns both ends of; a stream not yet
        created is left out. Each entry is what :meth:`capture` holds.
        """
        busy = self.busy_until
        streams = {
            k: g.bit_generator.state for k, g in sorted(self.streams.items()) if k in keys
        }
        return {"busy_until": [busy[e] for e in ends], "streams": streams}

    def restore_lp(self, ends: Sequence[int], keys: frozenset[int], state: dict[str, Any]) -> None:
        """Apply a :meth:`capture_lp` of the same ``ends`` and ``keys`` on
        the adopting shard: a stream the slice lacks is uncreated here too,
        and the rest of the table keeps its present values."""
        busy = self.busy_until
        for e, value in zip(ends, state["busy_until"]):
            busy[e] = value
        for key in keys.difference(state["streams"]):
            self.streams.pop(key, None)
        self._resume(state["streams"])

    def _resume(self, states: dict[int, Any]) -> None:
        # A stream resumes mid-sequence; one not created here yet is
        # created as its first draw would have created it.
        for key, saved in states.items():
            self.stream(key // 2, key % 2).bit_generator.state = saved


def _column(name: str, doc: str) -> property:
    """A handle's read / write view of one :attr:`LinkTable.LINK_COLUMNS` entry."""

    def get(self: LinkRuntime) -> Any:
        return getattr(self.table, name)[self.index]

    def put(self: LinkRuntime, value: Any) -> None:
        self.table.set(name, self.index, value)

    get.__doc__ = doc
    return property(get, put)


def _total(column: str, doc: str) -> property:
    """A handle's sum of one :attr:`LinkTable.END_COLUMNS` column over its two ends."""

    def get(self: LinkRuntime) -> int:
        values = getattr(self.table, column)
        return values[2 * self.index] + values[2 * self.index + 1]

    get.__doc__ = doc
    return property(get)


class LinkRuntime:
    """Link ``index`` of a :class:`LinkTable`: a stateless handle.

    Direction 0 carries ``u -> v`` traffic, direction 1 ``v -> u``.
    """

    __slots__ = ("table", "index", "link")

    def __init__(self, table: LinkTable, index: int) -> None:
        self.table = table
        self.index = index
        self.link = table.links[index]

    failed = _column("failed", "Failure injection: the link drops every offered packet.")
    loss_prob = _column("loss_prob", "Fault injection: probabilistic loss before transmit.")
    corrupt_prob = _column(
        "corrupt_prob", "Fault injection: probabilistic corruption at the receiver."
    )

    def direction(self, from_node: int) -> int:
        """Direction index for traffic leaving ``from_node`` (0 or 1)."""
        if from_node == self.link.u:
            return 0
        if from_node == self.link.v:
            return 1
        raise ValueError(f"node {from_node} not on link {self.link.link_id}")

    def _fault_draw(self) -> float:
        """Uniform draw from the lazily created fault stream."""
        return float(self.table.stream(self.index, FAULT).random())

    def _early_drop(self, backlog_bytes: float) -> bool:
        """Gentle-RED drop decision for the observed ``backlog_bytes``.

        Drop probability is 0 up to ``min_th``, rises linearly to
        ``max_p`` at ``max_th``, continues linearly from ``max_p`` to 1
        at ``2 * max_th`` (the gentle-RED extension), and is certain
        beyond — no discontinuous jump anywhere in the profile.
        """
        table = self.table
        if table.discipline != "red":
            return False
        red = table.red
        queue_bytes = table.queue_bytes[self.index]
        min_th = red.min_th_fraction * queue_bytes
        max_th = red.max_th_fraction * queue_bytes
        if backlog_bytes <= min_th:
            return False
        if backlog_bytes < max_th:
            p = red.max_p * (backlog_bytes - min_th) / (max_th - min_th)
        elif backlog_bytes < 2.0 * max_th:
            p = red.max_p + (1.0 - red.max_p) * (backlog_bytes - max_th) / max_th
        else:
            return True
        return bool(table.stream(self.index, RED).random() < p)

    def transmit(self, from_node: int, packet: Packet, now: float) -> TransmitResult:
        """Offer ``packet`` for transmission; returns timing or a drop.

        ``arrival_time`` is when the last bit reaches the far endpoint
        (transmission completion + propagation latency).
        """
        t, i = self.table, self.index
        e = 2 * i + self.direction(from_node)
        if t.failed[i]:
            t.packets_dropped[e] += 1
            return TransmitResult(accepted=False)
        if t.loss_prob[i] > 0.0 and self._fault_draw() < t.loss_prob[i]:
            t.packets_lost[e] += 1
            return TransmitResult(accepted=False, faulted=True)
        start = max(now, t.busy_until[e])
        backlog_bytes = (start - now) * t.bandwidth_bps[i] / 8.0
        # Admission counts the packet itself: admitting on backlog alone
        # overshoots the buffer by up to one packet and lets a packet
        # larger than the whole buffer into an empty queue.
        if (
            backlog_bytes + packet.size_bytes > t.queue_bytes[i]
            or self._early_drop(backlog_bytes)
        ):
            t.packets_dropped[e] += 1
            return TransmitResult(accepted=False, backlog_bytes=backlog_bytes)
        tx_time = packet.size_bytes * 8.0 / t.bandwidth_bps[i]
        finish = start + tx_time
        t.busy_until[e] = finish
        if t.corrupt_prob[i] > 0.0 and self._fault_draw() < t.corrupt_prob[i]:
            # A corrupted packet still occupies the transmitter for its
            # full serialization time (capacity is burned) but never
            # reaches the far endpoint — the receiver's checksum fails.
            t.packets_corrupted[e] += 1
            arrival_time = finish + t.latency_s[i]
            return TransmitResult(False, start, arrival_time, backlog_bytes, faulted=True)
        t.bytes_carried[e] += packet.size_bytes
        t.packets_carried[e] += 1
        return TransmitResult(True, start, finish + t.latency_s[i], backlog_bytes)

    total_bytes = _total("bytes_carried", "Bytes carried, both directions.")
    total_packets = _total("packets_carried", "Packets carried, both directions.")
    total_drops = _total("packets_dropped", "Packets dropped, both directions.")
    total_lost = _total("packets_lost", "Packets lost to an injected loss burst, both directions.")
    total_corrupted = _total(
        "packets_corrupted", "Packets corrupted by an injected fault, both directions."
    )

