"""TCP Reno bulk transfer over the packet simulator.

MaSSF ships "basic implementations of these protocols which maintain
their behavior characteristics"; in that spirit this is a compact but
behaviorally faithful Reno: 3-way-handshake-derived RTT seeding, slow
start, congestion avoidance, fast retransmit/fast recovery on three
duplicate ACKs, and Jacobson/Karn RTO with exponential backoff. Data
flows one way per transfer (``src -> dst``); request/response protocols
compose two transfers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .packet import (
    Packet,
    Protocol,
    TCP_HEADER_BYTES,
    TCP_MSS_BYTES,
)
from .simulator import NetworkSimulator

__all__ = ["TcpSender", "TcpReceiver", "start_transfer", "TcpStats"]

INITIAL_CWND = 2.0
INITIAL_SSTHRESH = 64.0
MIN_RTO_S = 0.2
MAX_RTO_S = 60.0
DUPACK_THRESHOLD = 3


@dataclass
class TcpStats:
    """Per-connection statistics (inspected by tests and benchmarks)."""

    segments_sent: int = 0
    retransmits: int = 0
    timeouts: int = 0
    fast_retransmits: int = 0
    completed_at: float = -1.0


class TcpReceiver:
    """Receiving endpoint: cumulative ACKs with out-of-order buffering.

    ``on_complete`` fires (once) when the last in-order segment arrives —
    *at the receiver*, which matters under the parallel engine: whatever
    the application does in response (send the HTTP reply, start the next
    workflow task) then executes on the receiver's logical process.
    """

    def __init__(
        self,
        sim: NetworkSimulator,
        flow_id: int,
        src: int,
        dst: int,
        total_segments: int,
        on_complete: Callable[[float], None] | None = None,
        delayed_ack: bool = False,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self.src = src  # data sender
        self.dst = dst  # this endpoint
        self.total_segments = total_segments
        self.on_complete = on_complete
        #: RFC 1122 delayed ACKs: acknowledge every second in-order
        #: segment (but immediately on reordering or at the end) — about
        #: half the ACK events, at the cost of slower cwnd growth.
        self.delayed_ack = delayed_ack
        self.cumulative = 0  # next expected segment
        self._out_of_order: set[int] = set()
        self._completed = False
        self._unacked_in_order = 0
        self.acks_sent = 0

    def receive(self, packet: Packet) -> None:
        """Handle an arriving SYN or data segment; emit the matching ACK."""
        if "SYN" in packet.flags:
            self._send_ack(flags=frozenset({"SYN", "ACK"}))
            return
        seq = packet.seq
        in_order = seq == self.cumulative
        if in_order:
            self.cumulative += 1
            while self.cumulative in self._out_of_order:
                self._out_of_order.discard(self.cumulative)
                self.cumulative += 1
        elif seq > self.cumulative:
            self._out_of_order.add(seq)
        finished = self.cumulative >= self.total_segments
        if self.delayed_ack and in_order and not finished:
            self._unacked_in_order += 1
            if self._unacked_in_order >= 2:
                self._unacked_in_order = 0
                self._send_ack()
        else:
            self._unacked_in_order = 0
            self._send_ack()
        if not self._completed and finished and self.on_complete is not None:
            self._completed = True
            self.on_complete(self.sim.now)

    def _send_ack(self, flags: frozenset[str] = frozenset({"ACK"})) -> None:
        self.acks_sent += 1
        self.sim.inject(
            Packet(
                src=self.dst,
                dst=self.src,
                size_bytes=TCP_HEADER_BYTES,
                protocol=Protocol.TCP,
                flow_id=self.flow_id,
                ack=self.cumulative,
                flags=flags,
            )
        )


class TcpSender:
    """Sending endpoint implementing Reno congestion control."""

    def __init__(
        self,
        sim: NetworkSimulator,
        flow_id: int,
        src: int,
        dst: int,
        payload_bytes: int,
        on_complete: Callable[[float], None] | None = None,
    ) -> None:
        self.sim = sim
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.total_segments = max(1, math.ceil(payload_bytes / TCP_MSS_BYTES))
        self.payload_bytes = payload_bytes
        self.on_complete = on_complete
        self.stats = TcpStats()

        self.cwnd = INITIAL_CWND
        self.ssthresh = INITIAL_SSTHRESH
        self.next_seq = 0
        self.highest_ack = 0  # next segment the receiver expects
        self.dupacks = 0
        self.in_recovery = False
        self.recover_point = 0

        self.srtt: float | None = None
        self.rttvar = 0.0
        self.rto = 1.0
        self._rto_event = None
        self._send_times: dict[int, float] = {}
        self._established = False
        self._done = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Send SYN; data begins on SYN-ACK."""
        self._send_times[-1] = self.sim.now
        self.sim.inject(
            Packet(
                src=self.src,
                dst=self.dst,
                size_bytes=TCP_HEADER_BYTES,
                protocol=Protocol.TCP,
                flow_id=self.flow_id,
                flags=frozenset({"SYN"}),
            )
        )
        self._arm_rto()

    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Handle an arriving SYN-ACK or cumulative ACK."""
        if self._done:
            return
        if "SYN" in packet.flags:  # SYN-ACK
            if not self._established:
                self._established = True
                self._measure_rtt(self.sim.now - self._send_times.pop(-1))
                self._fill_window()
            return
        self._on_ack(packet.ack)

    def _on_ack(self, ack: int) -> None:
        if ack > self.highest_ack:
            newly_acked = ack - self.highest_ack
            self.highest_ack = ack
            self.dupacks = 0
            # Karn: only time segments transmitted once.
            t = self._send_times.pop(ack - 1, None)
            if t is not None:
                self._measure_rtt(self.sim.now - t)
            # Sorted sweep: which keys are dropped is order-independent,
            # but a canonical order keeps the mutation LP-shardable
            # (simlint SIM202).
            for s in sorted(self._send_times):
                if 0 <= s < ack:
                    self._send_times.pop(s, None)
            if self.in_recovery:
                if ack >= self.recover_point:
                    self.in_recovery = False
                    self.cwnd = self.ssthresh
                else:
                    # Partial ACK: retransmit the next hole (NewReno-ish
                    # behavior keeps Reno from stalling on multiple drops).
                    self._retransmit(self.highest_ack)
                    self.cwnd = max(self.cwnd - newly_acked + 1, 1.0)
            elif self.cwnd < self.ssthresh:
                self.cwnd += newly_acked  # slow start
            else:
                self.cwnd += newly_acked / self.cwnd  # congestion avoidance
            if self.highest_ack >= self.total_segments:
                self._complete()
                return
            self._arm_rto()
            self._fill_window()
        else:
            self.dupacks += 1
            if self.in_recovery:
                self.cwnd += 1.0  # window inflation
                self._fill_window()
            elif self.dupacks == DUPACK_THRESHOLD:
                self._enter_fast_recovery()

    # ------------------------------------------------------------------
    def _enter_fast_recovery(self) -> None:
        flight = max(self.next_seq - self.highest_ack, 1)
        self.ssthresh = max(flight / 2.0, 2.0)
        self.cwnd = self.ssthresh + DUPACK_THRESHOLD
        self.in_recovery = True
        self.recover_point = self.next_seq
        self.stats.fast_retransmits += 1
        self._retransmit(self.highest_ack)
        self._arm_rto()

    def _on_rto(self) -> None:
        if self._done:
            return
        self.stats.timeouts += 1
        self.ssthresh = max((self.next_seq - self.highest_ack) / 2.0, 2.0)
        self.cwnd = 1.0
        self.dupacks = 0
        self.in_recovery = False
        self.rto = min(self.rto * 2.0, MAX_RTO_S)
        self._send_times.clear()
        if not self._established:
            self.start()
            return
        self._retransmit(self.highest_ack)
        # Go-back-N from snd.una: everything past the retransmitted segment
        # counts as unsent again, so the window repairs a whole lost burst
        # at one segment per ACK instead of one segment per (exponentially
        # backed-off) timeout. Duplicate arrivals are harmless — the
        # receiver re-ACKs its cumulative point.
        self.next_seq = self.highest_ack + 1
        self._arm_rto()

    # ------------------------------------------------------------------
    def _fill_window(self) -> None:
        window = int(self.cwnd)
        while (
            self.next_seq < self.total_segments
            and self.next_seq - self.highest_ack < window
        ):
            self._send_segment(self.next_seq)
            self.next_seq += 1

    def _segment_bytes(self, seq: int) -> int:
        if seq == self.total_segments - 1:
            tail = self.payload_bytes - (self.total_segments - 1) * TCP_MSS_BYTES
            return max(1, tail) + TCP_HEADER_BYTES
        return TCP_MSS_BYTES + TCP_HEADER_BYTES

    def _send_segment(self, seq: int) -> None:
        self.stats.segments_sent += 1
        self._send_times.setdefault(seq, self.sim.now)
        self.sim.inject(
            Packet(
                src=self.src,
                dst=self.dst,
                size_bytes=self._segment_bytes(seq),
                protocol=Protocol.TCP,
                flow_id=self.flow_id,
                seq=seq,
            )
        )

    def _retransmit(self, seq: int) -> None:
        if seq >= self.total_segments:
            return
        self.stats.retransmits += 1
        self._send_times.pop(seq, None)  # Karn: don't time retransmits
        self.sim.inject(
            Packet(
                src=self.src,
                dst=self.dst,
                size_bytes=self._segment_bytes(seq),
                protocol=Protocol.TCP,
                flow_id=self.flow_id,
                seq=seq,
            )
        )

    # ------------------------------------------------------------------
    def _measure_rtt(self, sample: float) -> None:
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(max(self.srtt + 4.0 * self.rttvar, MIN_RTO_S), MAX_RTO_S)

    def _arm_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
        self._rto_event = self.sim.sched.schedule_at(
            self.sim.now + self.rto, self._on_rto, node=self.src
        )

    def _complete(self) -> None:
        self._done = True
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None
        self.stats.completed_at = self.sim.now
        self.sim.unregister_tcp_endpoint(self.flow_id, self.src, "snd")
        self.sim.unregister_tcp_endpoint(self.flow_id, self.dst, "rcv")
        if self.on_complete is not None:
            self.on_complete(self.sim.now)


def start_transfer(
    sim: NetworkSimulator,
    src: int,
    dst: int,
    payload_bytes: int,
    on_complete: Callable[[float], None] | None = None,
    on_received: Callable[[float], None] | None = None,
    delayed_ack: bool = False,
) -> TcpSender:
    """Open a TCP connection and transfer ``payload_bytes`` from ``src`` to
    ``dst``.

    ``on_complete(t)`` fires at the *sender* when the last byte is acked;
    ``on_received(t)`` fires at the *receiver* when the last byte arrives.
    Under the conservative parallel engine, use ``on_received`` for
    anything the destination does in response (it executes on the
    destination's LP).
    """
    flow_id = sim.next_flow_id()
    sender = TcpSender(sim, flow_id, src, dst, payload_bytes, on_complete)
    receiver = TcpReceiver(
        sim,
        flow_id,
        src,
        dst,
        sender.total_segments,
        on_complete=on_received,
        delayed_ack=delayed_ack,
    )
    sim.register_tcp_endpoint(flow_id, src, sender, "snd")
    sim.register_tcp_endpoint(flow_id, dst, receiver, "rcv")
    sender.start()
    return sender
