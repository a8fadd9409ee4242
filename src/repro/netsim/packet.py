"""Packets and protocol identifiers for the packet-level simulator."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["Protocol", "Packet", "TCP_MSS_BYTES", "TCP_HEADER_BYTES"]

#: TCP maximum segment size used for bulk transfers (Ethernet MTU - headers).
TCP_MSS_BYTES = 1460
#: Combined IP+TCP header overhead per segment.
TCP_HEADER_BYTES = 40


class Protocol(enum.Enum):
    TCP = "tcp"
    UDP = "udp"


@dataclass
class Packet:
    """A simulated packet.

    ``size_bytes`` includes headers (it is what occupies link capacity).
    ``seq``/``ack`` are in *segments* for TCP; ``flags`` carries control
    markers ('SYN', 'ACK', 'FIN'). ``hops`` counts router traversals for
    TTL enforcement and path-length statistics.
    """

    src: int
    dst: int
    size_bytes: int
    protocol: Protocol
    flow_id: int
    seq: int = 0
    ack: int = -1
    port: int = 0
    flags: frozenset[str] = field(default_factory=frozenset)
    created_at: float = 0.0
    hops: int = 0
    ttl: int = 64

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "+".join(sorted(self.flags)) or ("DATA" if self.ack < 0 else "ACK")
        return (
            f"Packet({kind} flow={self.flow_id} {self.src}->{self.dst} "
            f"seq={self.seq} ack={self.ack} {self.size_bytes}B)"
        )
