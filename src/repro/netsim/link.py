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

:meth:`LinkRuntime.transmit` is the whole model. The simulator's per-hop
path (``NetworkSimulator._handle_at``) computes the one case that is
nearly every hop — a drop-tail link with no fault armed that accepts the
packet — itself, with the expressions of ``transmit`` in the order they
have there so that every time is the same float, and hands everything
else (a failed link, a loss or corruption burst, RED, a full queue) to
``transmit`` (docs/performance.md, "Per-hop path").
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter
from typing import Any, NamedTuple, Sequence

import numpy as np

from ..topology.models import Link
from .packet import Packet

__all__ = ["LinkRuntime", "TransmitResult", "RedParams"]


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
    #: (the queue-depth signal observability turns into high-water marks)
    backlog_bytes: float = 0.0
    #: rejected by an injected fault (loss/corruption burst), not by the
    #: queue — the simulator keeps fault drops out of the traffic counters
    faulted: bool = False


# How each LinkRuntime field is declared, as dataclass-field metadata — the
# one place that says which fields are simulation state and who they travel
# with. STATIC: fixed at construction, a rebuilt twin already has it. The
# others are dynamic, and a checkpoint of the shard holds them all for every
# link not in its freshly built state; they differ in what an LP takes
# along when it moves to another shard
# (LinkRuntime.capture): PER_DIRECTION state goes with the LP that transmits
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
    seeded ``seed_base ^ link_id`` (:meth:`LinkRuntime._create_stream`)."""
    return field(
        default=None, init=False, repr=False, compare=False,
        metadata={"state": "link", "seed": seed_base},
    )


@dataclass
class LinkRuntime:
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
    def capture_table(links: Sequence[LinkRuntime]) -> dict[str, Any]:
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
    def restore_table(links: Sequence[LinkRuntime], table: dict[str, Any]) -> None:
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
_DYNAMIC = tuple(f.name for f in fields(LinkRuntime) if f.metadata != _STATIC)
_MIGRATES = tuple(
    f.name for f in fields(LinkRuntime) if f.metadata not in (_STATIC, _SHARD_LOCAL)
)
#: the random streams and their seed bases
_STREAM_SEEDS = {f.name: f.metadata["seed"] for f in fields(LinkRuntime) if "seed" in f.metadata}
#: the dynamic fields' values on a freshly built link, in _DYNAMIC order
_FRESH_VALUES = tuple(
    f.default if f.default is not MISSING else f.default_factory()
    for f in fields(LinkRuntime)
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
