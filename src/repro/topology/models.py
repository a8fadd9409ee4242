"""Virtual network data model: routers, hosts, links, AS domains.

A :class:`Network` is the object every other subsystem consumes: routing
builds forwarding tables over it, the simulator instantiates queues per
link, and the load balancer converts it into a
:class:`repro.partition.WeightedGraph`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..partition.graph import WeightedGraph

__all__ = ["NodeKind", "ASTier", "Node", "Link", "ASDomain", "Network"]


class NodeKind(enum.Enum):
    ROUTER = "router"
    HOST = "host"


class ASTier(enum.Enum):
    """AS classification from the paper's step 2 (Section 5.1.2)."""

    CORE = "core"
    REGIONAL = "regional"
    STUB = "stub"


@dataclass(frozen=True)
class Node:
    """A simulated network entity (router or end host).

    ``position`` is (x, y) in miles on the geographic plane; ``as_id`` is
    the autonomous system the node belongs to (0 for single-AS networks).
    """

    node_id: int
    kind: NodeKind
    as_id: int
    position: tuple[float, float]

    @property
    def is_router(self) -> bool:
        """True for router nodes."""
        return self.kind is NodeKind.ROUTER


@dataclass(frozen=True)
class Link:
    """A bidirectional link with bandwidth, propagation latency, and queue.

    ``latency_s`` is the propagation delay in seconds (from geographic
    distance); ``bandwidth_bps`` the capacity of each direction.
    """

    link_id: int
    u: int
    v: int
    bandwidth_bps: float
    latency_s: float
    queue_bytes: int = 64 * 1024

    def other(self, node_id: int) -> int:
        """The opposite endpoint of the link."""
        if node_id == self.u:
            return self.v
        if node_id == self.v:
            return self.u
        raise ValueError(f"node {node_id} is not an endpoint of link {self.link_id}")


@dataclass
class ASDomain:
    """An autonomous system: members, tier, and business relationships."""

    as_id: int
    tier: ASTier
    routers: list[int] = field(default_factory=list)
    hosts: list[int] = field(default_factory=list)
    providers: set[int] = field(default_factory=set)
    customers: set[int] = field(default_factory=set)
    peers: set[int] = field(default_factory=set)
    #: border router per neighbor AS: {neighbor_as: (local_router, remote_router)}
    border_links: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    #: default-route egress for stub ASes: (border_router, provider_as);
    #: multi-homed stubs also get a backup (paper step 6d).
    default_routes: list[tuple[int, int]] = field(default_factory=list)

    @property
    def neighbor_ases(self) -> set[int]:
        """All neighboring AS ids, whatever the relationship."""
        return self.providers | self.customers | self.peers

    def relationship_to(self, other_as: int) -> str:
        """'provider', 'customer', or 'peer' — how *other_as* relates to us.

        Returns what the neighbor *is to this AS*: if ``other_as`` is in
        ``self.providers`` the answer is ``'provider'``.
        """
        if other_as in self.providers:
            return "provider"
        if other_as in self.customers:
            return "customer"
        if other_as in self.peers:
            return "peer"
        raise KeyError(f"AS {other_as} is not a neighbor of AS {self.as_id}")


class Network:
    """A complete virtual network (the simulator input).

    Construction is incremental (``add_node`` / ``add_link``); afterwards
    the object behaves as an immutable adjacency-indexed structure.
    """

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self.links: list[Link] = []
        self.as_domains: dict[int, ASDomain] = {}
        self._adj: dict[int, list[int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        kind: NodeKind,
        as_id: int = 0,
        position: tuple[float, float] = (0.0, 0.0),
    ) -> int:
        """Append a node; returns its dense id."""
        node_id = len(self.nodes)
        self.nodes.append(Node(node_id, kind, as_id, (float(position[0]), float(position[1]))))
        self._adj[node_id] = []
        return node_id

    def add_link(
        self,
        u: int,
        v: int,
        bandwidth_bps: float,
        latency_s: float,
        queue_bytes: int = 64 * 1024,
    ) -> int:
        """Connect two nodes; returns the link id. Validates endpoints and parameters."""
        if u == v:
            raise ValueError("self links are not allowed")
        for node in (u, v):
            if not 0 <= node < len(self.nodes):
                raise ValueError(f"unknown node {node}")
        if latency_s <= 0:
            raise ValueError("latency must be positive")
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        link_id = len(self.links)
        self.links.append(Link(link_id, u, v, float(bandwidth_bps), float(latency_s), queue_bytes))
        self._adj[u].append(link_id)
        self._adj[v].append(link_id)
        return link_id

    def add_as(self, as_id: int, tier: ASTier) -> ASDomain:
        """Register an AS domain (unique per id)."""
        if as_id in self.as_domains:
            raise ValueError(f"AS {as_id} already exists")
        dom = ASDomain(as_id=as_id, tier=tier)
        self.as_domains[as_id] = dom
        return dom

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total node count (routers + hosts)."""
        return len(self.nodes)

    @property
    def num_links(self) -> int:
        """Total link count."""
        return len(self.links)

    @property
    def num_routers(self) -> int:
        """Number of router nodes."""
        return sum(1 for n in self.nodes if n.kind is NodeKind.ROUTER)

    @property
    def num_hosts(self) -> int:
        """Number of host nodes."""
        return sum(1 for n in self.nodes if n.kind is NodeKind.HOST)

    def router_ids(self) -> list[int]:
        """Ids of all router nodes."""
        return [n.node_id for n in self.nodes if n.kind is NodeKind.ROUTER]

    def host_ids(self) -> list[int]:
        """Ids of all host nodes."""
        return [n.node_id for n in self.nodes if n.kind is NodeKind.HOST]

    def neighbors(self, node_id: int) -> Iterator[tuple[int, Link]]:
        """Yield ``(neighbor_id, link)`` for each incident link."""
        for link_id in self._adj[node_id]:
            link = self.links[link_id]
            yield link.other(node_id), link

    def link_between(self, u: int, v: int) -> Link | None:
        """The link joining two nodes, if adjacent."""
        for link_id in self._adj[u]:
            link = self.links[link_id]
            if link.other(u) == v:
                return link
        return None

    def degree(self, node_id: int) -> int:
        """Number of links incident to a node."""
        return len(self._adj[node_id])

    def is_connected(self) -> bool:
        """True when every node is reachable from node 0 (or empty)."""
        if not self.nodes:
            return True
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y, _ in self.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(self.nodes)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_graph(
        self,
        vertex_weight: Sequence[float] | np.ndarray | None = None,
        edge_weight: Sequence[float] | np.ndarray | None = None,
    ) -> WeightedGraph:
        """Convert to the partitioner's :class:`WeightedGraph`.

        Vertex ``i`` of the graph is node ``i`` of the network; undirected
        edge order matches ``self.links``. Default vertex weight is 1 and
        edge weight is 1 — the load balance approaches
        (:mod:`repro.core.weights`) substitute their own.
        """
        us = np.fromiter((l.u for l in self.links), dtype=np.int64, count=len(self.links))
        vs = np.fromiter((l.v for l in self.links), dtype=np.int64, count=len(self.links))
        lat = np.fromiter((l.latency_s for l in self.links), dtype=np.float64, count=len(self.links))
        return WeightedGraph(self.num_nodes, us, vs, edge_weight, lat, vertex_weight)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Network(routers={self.num_routers}, hosts={self.num_hosts}, "
            f"links={self.num_links}, ases={len(self.as_domains)})"
        )
