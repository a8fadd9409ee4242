"""Packet-level network simulation (links, IP forwarding, TCP/UDP, apps)."""

from .link import LinkRuntime, LinkTable, RedParams, TransmitResult
from .packet import (
    Packet,
    Protocol,
    TCP_HEADER_BYTES,
    TCP_MSS_BYTES,
)
from .simulator import HOP_PROCESSING_S, LOOPBACK_LATENCY_S, NetworkSimulator, TrafficCounters
from .tcp import TcpReceiver, TcpSender, TcpStats, start_transfer
from .udp import UDP_HEADER_BYTES, UDP_MTU_BYTES, send_datagram

__all__ = [
    "Packet",
    "Protocol",
    "TCP_MSS_BYTES",
    "TCP_HEADER_BYTES",
    "LinkRuntime",
    "LinkTable",
    "TransmitResult",
    "RedParams",
    "NetworkSimulator",
    "TrafficCounters",
    "HOP_PROCESSING_S",
    "LOOPBACK_LATENCY_S",
    "TcpSender",
    "TcpReceiver",
    "TcpStats",
    "start_transfer",
    "send_datagram",
    "UDP_MTU_BYTES",
    "UDP_HEADER_BYTES",
]
