"""UDP datagram service over the packet simulator.

Fire-and-forget datagrams with MTU fragmentation; used by the CBR
background traffic generator and by applications that don't need
reliability.
"""

from __future__ import annotations

import math

from .packet import Packet, Protocol

__all__ = ["send_datagram", "UDP_MTU_BYTES", "UDP_HEADER_BYTES"]

UDP_MTU_BYTES = 1472
UDP_HEADER_BYTES = 28


def send_datagram(
    sim,
    src: int,
    dst: int,
    payload_bytes: int,
    port: int = 0,
) -> int:
    """Send ``payload_bytes`` from ``src`` to ``dst`` as UDP fragments.

    Returns the number of packets injected. Delivery invokes the handler
    bound with :meth:`NetworkSimulator.udp_bind` on ``(dst, port)`` once
    per fragment (fragments may be lost independently — UDP semantics).
    """
    if payload_bytes <= 0:
        raise ValueError("payload must be positive")
    flow_id = sim.next_flow_id()
    fragments = max(1, math.ceil(payload_bytes / UDP_MTU_BYTES))
    remaining = payload_bytes
    for i in range(fragments):
        chunk = min(UDP_MTU_BYTES, remaining)
        remaining -= chunk
        sim.inject(
            Packet(
                src=src,
                dst=dst,
                size_bytes=chunk + UDP_HEADER_BYTES,
                protocol=Protocol.UDP,
                flow_id=flow_id,
                seq=i,
                port=port,
            )
        )
    return fragments
