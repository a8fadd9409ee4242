"""Bounded structured trace: causal records behind one guard branch.

Where the registry (:mod:`repro.obs.registry`) reads totals off their
owners, the tracer keeps *individual records*:
one record per cross-LP message edge, per BGP convergence span, per
fault injection or recovery transition (:mod:`repro.faults`), per worker
window measured by the multi-process backend, per migration and per
recovery action. That is the raw material for the causal handoffs of
straggler attribution (:mod:`repro.obs.blame`) and the Chrome
trace-event export (:mod:`repro.obs.trace_export`). Per-window counts
are not traced: every engine records them as
:class:`~repro.engine.windows.WindowStats` rows, traced or not. Nor are
per-event or per-hop samples: an engine built with ``record_trace=True``
and a simulator built with ``record_transmissions=True`` keep those
whole, for the what-if scoring of candidate mappings.

The tracer's design contract:

1. **Cheap when disabled.** Instrumented code resolves the process-global
   :class:`TraceBuffer` once at construction (:func:`get_tracer`); every
   hot-path record afterwards is one attribute load plus one boolean
   guard. Every public record method is guarded, and all mutation funnels
   through the single private :meth:`TraceBuffer._append` —
   ``tests/test_obs_overhead.py`` monkeypatches it to raise and proves a
   disabled run appends nothing.
2. **Bounded.** Each channel is a ring of at most ``capacity`` records;
   appending to a full channel evicts the oldest record and increments
   :attr:`TraceBuffer.dropped_records`. Analyses over an overflowed trace
   operate on the retained suffix (and say so via ``dropped_records``).
3. **Deterministic where it can be.** Edge and fault records carry
   *simulated* quantities only. Span records (BGP convergence) are
   wall-clock and use the sanctioned ``perf_counter`` site (this module
   lives in ``repro/obs``, the one package simlint SIM102 exempts).
"""

from __future__ import annotations

import sys
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "EdgeRecord",
    "SpanRecord",
    "FaultRecord",
    "MeasuredWindowRecord",
    "RebalanceRecord",
    "RecoveryRecord",
    "TraceBuffer",
    "get_tracer",
    "traced_run",
    "DEFAULT_TRACE_CAPACITY",
]

#: Default per-channel ring capacity. Sized so the laptop-scale demo
#: scenarios fit without eviction while a runaway trace stays bounded
#: (six channels of records, a few tens of MB worst case).
DEFAULT_TRACE_CAPACITY = 262_144


@dataclass(frozen=True)
class EdgeRecord:
    """One cross-LP message: who sent what to whom, and when."""

    src_lp: int
    dst_lp: int
    #: simulated time the sender created the event
    send_time: float
    #: simulated time the event executes on the destination LP
    deliver_time: float


@dataclass(frozen=True)
class FaultRecord:
    """One fault injection or recovery transition (``repro.faults``).

    ``phase`` is ``'inject'`` for transitions into a degraded state
    (link down, loss burst start, BGP withdrawal) and ``'recover'`` for
    transitions back (link up, session re-establishment, retry
    attempts). ``target`` identifies what the transition applies to —
    a link id, a node id, an LP index, or an AS pair — and ``detail``
    carries kind-specific parameters (loss probability, retry attempt
    number, convergence iteration count).
    """

    #: simulated time the transition was applied
    time: float
    #: dotted transition kind, e.g. ``'link.down'`` or ``'bgp.reestablished'``
    kind: str
    #: ``'inject'`` or ``'recover'``
    phase: str
    target: tuple[int, ...] = ()
    detail: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Strings interned, also when unpickled (__reduce__), for the
        # reason FaultEvent gives: checkpoints carry the fault trace.
        object.__setattr__(self, "kind", sys.intern(self.kind))
        object.__setattr__(self, "phase", sys.intern(self.phase))
        object.__setattr__(
            self, "detail", {sys.intern(k): v for k, v in self.detail.items()}
        )

    def __reduce__(self):
        return (
            FaultRecord, (self.time, self.kind, self.phase, self.target, self.detail)
        )


@dataclass(frozen=True)
class MeasuredWindowRecord:
    """One barrier window as one *worker process* actually spent it.

    Where :class:`~repro.engine.windows.WindowStats` carries the event
    counts the cost model prices, this record carries measured
    wall-clock: the worker's window decomposed into executing events,
    serializing outbound mail, blocking on the barrier round-trip,
    decoding inbound mail, and — on a checkpoint window — cutting the
    checkpoint.
    Recorded per shard per window by the multi-process backend
    (:mod:`repro.engine.parallel`); merged across workers by
    :meth:`TraceBuffer.merge_from`. Wall-clock values are *not* part of
    a run's deterministic fingerprint.
    """

    window_index: int
    #: worker/shard that measured this window
    shard_id: int
    #: wall-clock executing the window's owned-LP events
    execute_s: float
    #: wall-clock blocked waiting for the controller's mail round-trip
    barrier_wait_s: float
    #: wall-clock serializing outbound cross-shard mail
    mail_encode_s: float
    #: wall-clock decoding + enqueueing inbound cross-shard mail
    mail_decode_s: float
    #: events the shard executed in this window
    events: int
    #: serialized outbound mail bytes this window
    mail_bytes: int = 0
    #: wall-clock capturing, encoding and digesting the checkpoint cut
    #: after this window (0.0: no cut)
    checkpoint_s: float = 0.0

    @property
    def busy_s(self) -> float:
        """Measured non-waiting wall-clock: ``total_s - barrier_wait_s``."""
        return (
            self.execute_s + self.mail_encode_s + self.mail_decode_s + self.checkpoint_s
        )

    @property
    def total_s(self) -> float:
        """The worker's full measured wall-clock for this window."""
        return self.busy_s + self.barrier_wait_s


@dataclass(frozen=True)
class RebalanceRecord:
    """One accepted mid-run LP migration decision (``partition.rebalance``).

    Recorded on the controller at the barrier where the migration takes
    effect, so the trace doubles as the audit log of every placement
    change: which LP moved, off which blamed shard, at what blame
    concentration, and what the what-if model predicted the move would
    save over the trailing history window.
    """

    #: barrier window index after which the LP executes on ``dst_shard``
    window_index: int
    lp: int
    src_shard: int
    dst_shard: int
    #: trailing blame share of ``src_shard`` when the trigger fired
    concentration: float
    #: what-if predicted wall saved over the trailing history, seconds
    predicted_gain_s: float
    #: serialized migration payload size (0 until the plan is executed)
    state_bytes: int = 0


@dataclass(frozen=True)
class RecoveryRecord:
    """One fault-tolerance action of the mp backend (``engine.recovery``).

    Recorded on the controller, where checkpoints are committed and
    worker deaths declared, so the trace survives the worker it
    describes. ``kind`` is one of ``'checkpoint'`` (a consistent cut
    committed across all shards), ``'detect'`` (a worker declared
    crashed or hung), ``'respawn'`` (a replacement incarnation
    launched), ``'replay'`` (logged windows re-executed), or
    ``'adopt'`` (a dead shard's LPs folded onto a survivor). ``detail``
    carries kind-specific context — digests, exit codes, replay extents.
    """

    #: barrier window index the action is anchored to
    window_index: int
    #: shard the action applies to (the checkpointed/dead/adopting shard)
    shard_id: int
    kind: str
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SpanRecord:
    """A named wall-clock span (BGP convergence runs and the like)."""

    kind: str
    start_s: float
    end_s: float
    meta: dict = field(default_factory=dict)


class TraceBuffer:
    """Ring-buffered structured trace channels behind one enable flag.

    Parameters
    ----------
    capacity:
        Maximum records retained per channel; the oldest record of a full
        channel is evicted on append (counted in :attr:`dropped_records`).
    enabled:
        Initial state; the process-global tracer starts disabled so
        untraced runs pay only the guard branch per hook point.
    """

    #: Every channel, once: ``(attribute, merge order)``. Each is a deque
    #: of records; :meth:`merge_from` lays the folded records out sorted
    #: by the merge order.
    CHANNELS = (
        # EdgeRecord per cross-LP message
        ("edges", lambda e: (e.send_time, e.src_lp, e.dst_lp, e.deliver_time)),
        # SpanRecord per wall-clock span (BGP convergence)
        ("spans", lambda s: (s.start_s, s.end_s, s.kind)),
        # FaultRecord per fault transition (repro.faults); every worker
        # replays the control-plane schedule, so merging de-duplicates
        ("faults", lambda f: (f.time, f.kind, f.phase)),
        # MeasuredWindowRecord per worker per window (repro.engine.parallel)
        ("measured", lambda m: (m.window_index, m.shard_id)),
        # RebalanceRecord per accepted LP migration (repro.partition.rebalance)
        ("rebalance", lambda r: (r.window_index, r.lp)),
        # RecoveryRecord per fault-tolerance action (repro.engine.recovery)
        ("recovery", lambda r: (r.window_index, r.shard_id, r.kind)),
    )

    def __init__(
        self, capacity: int = DEFAULT_TRACE_CAPACITY, enabled: bool = False
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.enabled = enabled
        for name, _ in self.CHANNELS:
            setattr(self, name, deque())
        self.dropped_records = 0

    # ------------------------------------------------------------------
    # State control (mirrors the registry)
    # ------------------------------------------------------------------
    def enable(self) -> None:
        """Turn tracing on (record methods start appending)."""
        self.enabled = True

    def disable(self) -> None:
        """Turn tracing off (record methods become no-ops)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every record and zero the drop counter."""
        for name, _ in self.CHANNELS:
            getattr(self, name).clear()
        self.dropped_records = 0

    def __len__(self) -> int:
        return sum(len(getattr(self, name)) for name, _ in self.CHANNELS)

    def merge_from(self, other: "TraceBuffer") -> None:
        """Fold ``other``'s records into this buffer, channel by channel.

        Fault records every worker replayed are kept once. Every channel
        ends sorted by its merge order; drop counts add. The merged
        buffer shares no channel with ``other``, and its capacity grows
        to hold every record.
        """
        merged = {}
        for name, order in self.CHANNELS:
            records = [*getattr(self, name), *getattr(other, name)]
            if name == "faults":
                records = _unique_faults(records)
            merged[name] = sorted(records, key=order)
        for name, records in merged.items():
            setattr(self, name, deque(records))
            self.capacity = max(self.capacity, len(records))
        self.dropped_records += other.dropped_records

    # ------------------------------------------------------------------
    # Record methods (guarded public layer; all writes funnel to _append)
    # ------------------------------------------------------------------
    def edge(self, src_lp: int, dst_lp: int, send_time: float, deliver_time: float) -> None:
        """Record one cross-LP message edge (engine mailbox hook)."""
        if self.enabled:
            self._append(
                self.edges,
                EdgeRecord(int(src_lp), int(dst_lp), float(send_time), float(deliver_time)),
            )

    def fault(
        self,
        t: float,
        kind: str,
        phase: str,
        target: tuple[int, ...] = (),
        **detail,
    ) -> None:
        """Record one fault injection or recovery transition."""
        if self.enabled:
            self._append(
                self.faults, FaultRecord(float(t), kind, phase, tuple(target), detail)
            )

    def measured_window(
        self,
        window_index: int,
        shard_id: int,
        execute_s: float,
        barrier_wait_s: float,
        mail_encode_s: float,
        mail_decode_s: float,
        events: int,
        mail_bytes: int = 0,
        checkpoint_s: float = 0.0,
    ) -> None:
        """Record one worker's measured window decomposition (mp backend)."""
        if self.enabled:
            self._append(
                self.measured,
                MeasuredWindowRecord(
                    int(window_index), int(shard_id), float(execute_s),
                    float(barrier_wait_s), float(mail_encode_s),
                    float(mail_decode_s), int(events), int(mail_bytes),
                    float(checkpoint_s),
                ),
            )

    def migration(
        self,
        window_index: int,
        lp: int,
        src_shard: int,
        dst_shard: int,
        concentration: float,
        predicted_gain_s: float,
        state_bytes: int = 0,
    ) -> None:
        """Record one accepted LP migration (controller barrier hook)."""
        if self.enabled:
            self._append(
                self.rebalance,
                RebalanceRecord(
                    int(window_index), int(lp), int(src_shard), int(dst_shard),
                    float(concentration), float(predicted_gain_s),
                    int(state_bytes),
                ),
            )

    def recovery_step(
        self, window_index: int, shard_id: int, kind: str, **detail
    ) -> None:
        """Record one fault-tolerance action (controller recovery hook)."""
        if self.enabled:
            self._append(
                self.recovery,
                RecoveryRecord(int(window_index), int(shard_id), kind, detail),
            )

    def span_begin(self) -> float:
        """Open a wall-clock span; returns a token (``-1.0`` when disabled)."""
        if self.enabled:
            return time.perf_counter()
        return -1.0

    def span_end(self, token: float, kind: str, **meta) -> None:
        """Close the span opened by :meth:`span_begin` under ``kind``."""
        if token >= 0.0 and self.enabled:
            self._append(self.spans, SpanRecord(kind, token, time.perf_counter(), meta))

    def _append(self, channel: deque, record) -> None:
        if len(channel) >= self.capacity:
            channel.popleft()
            self.dropped_records += 1
        channel.append(record)


def _unique_faults(records: list[FaultRecord]) -> list[FaultRecord]:
    """The first of every set of identical fault records, in input order."""
    unique: dict[tuple, FaultRecord] = {}
    for f in records:
        key = (f.time, f.kind, f.phase, f.target, repr(sorted(f.detail.items())))
        unique.setdefault(key, f)
    return list(unique.values())


#: The process-global tracer every instrumented component binds to.
_GLOBAL = TraceBuffer()


def get_tracer() -> TraceBuffer:
    """The process-global :class:`TraceBuffer` (disabled by default)."""
    return _GLOBAL


@contextmanager
def traced_run(
    tracer: TraceBuffer | None = None,
    capacity: int | None = None,
) -> Iterator[TraceBuffer]:
    """Reset and enable a tracer for the duration of a run.

    The canonical scoping for one traced simulation::

        with traced_run() as tr:
            engine.run(until=duration)
        report = blame.analyze(engine.window_stats, tr, cluster)

    The previous enabled state (and capacity, if overridden) is restored
    on exit, so nesting inside an already-traced region keeps tracing on.
    """
    tr = tracer if tracer is not None else _GLOBAL
    was_enabled = tr.enabled
    old_capacity = tr.capacity
    if capacity is not None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        tr.capacity = int(capacity)
    tr.reset()
    tr.enable()
    try:
        yield tr
    finally:
        tr.enabled = was_enabled
        tr.capacity = old_capacity
