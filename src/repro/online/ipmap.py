"""Virtual/Real IP mapping service.

MicroGrid virtualizes transparently: applications address each other with
*virtual* IPs; the mapping server translates between the real endpoints of
live processes and nodes of the simulated network. Here the "real"
endpoints are the synthetic application processes, and virtual IPs are
dotted-quad strings deterministically derived from node ids.
"""

from __future__ import annotations

__all__ = ["VirtualIpMapper"]


class VirtualIpMapper:
    """Bidirectional virtual-IP <-> simulated-node mapping.

    Virtual addresses live in 10.0.0.0/8; node ``n`` maps to
    ``10.(n>>16).(n>>8 & 255).(n & 255)``, supporting ~16.7M nodes.
    Real endpoints (opaque strings like ``"host7:45001"``) are registered
    against a node, one endpoint per node.
    """

    def __init__(self) -> None:
        self._real_to_node: dict[str, int] = {}
        self._node_to_real: dict[int, str] = {}

    @staticmethod
    def virtual_ip(node: int) -> str:
        if not 0 <= node < (1 << 24):
            raise ValueError("node id out of the 10.0.0.0/8 virtual range")
        return f"10.{(node >> 16) & 255}.{(node >> 8) & 255}.{node & 255}"

    @staticmethod
    def node_of(virtual_ip: str) -> int:
        parts = virtual_ip.split(".")
        if len(parts) != 4 or parts[0] != "10":
            raise ValueError(f"not a virtual address: {virtual_ip!r}")
        a, b, c = (int(x) for x in parts[1:])
        for octet in (a, b, c):
            if not 0 <= octet <= 255:
                raise ValueError(f"invalid address: {virtual_ip!r}")
        return (a << 16) | (b << 8) | c

    # ------------------------------------------------------------------
    def register(self, real_endpoint: str, node: int) -> str:
        """Bind a real endpoint to a simulated node; returns the virtual IP."""
        if real_endpoint in self._real_to_node:
            raise ValueError(f"{real_endpoint!r} already registered")
        existing = self._node_to_real.get(node)
        if existing is not None:
            raise ValueError(f"node {node} already bound to {existing!r}")
        self._real_to_node[real_endpoint] = node
        self._node_to_real[node] = real_endpoint
        return self.virtual_ip(node)

    def __len__(self) -> int:
        return len(self._real_to_node)
