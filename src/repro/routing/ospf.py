"""OSPF-style intra-AS shortest path routing.

MaSSF routes inside an AS (and the whole network in the single-AS
experiments) with shortest path first. Each domain keeps its member
graph once, as a CSR matrix of link metrics (latency plus a tiny
bandwidth tie-break so fat pipes win among equal-latency paths), and
computes reverse shortest-path trees lazily, a block of
:data:`SPF_BLOCK` destinations per SPF call — large networks only ever
need trees toward actual traffic destinations and border routers. A
tree is a next-hop *array* indexed by member row.

Tie-break rule (part of a run's identity, see
``tests/test_routing_ospf.py``): with ``D`` the distance to the
destination, the next hop of ``u`` is the neighbour ``v`` with
``D[v] + metric(v, u) == D[u]`` that is smallest under ``(D[v], v)``,
parallel links counting at their minimum metric. That is the order in
which a binary-heap Dijkstra keyed ``(dist, node)`` and relaxing on
strict ``<`` finalises parents. Distances come from
``scipy.sparse.csgraph.dijkstra``, which accumulates the same float64
sums destination-outwards, so the rule is evaluated on identical floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import dijkstra

from ..topology.models import Network

__all__ = ["OspfRouting", "SPF_BLOCK", "ospf_link_metric"]

#: Member rows per SPF call: the first ask for a destination builds the
#: trees of every member in its block of this many rows.
SPF_BLOCK = 64


def ospf_link_metric(latency_s: float, bandwidth_bps: float) -> float:
    """Link metric: propagation latency with a capacity tie-break.

    The dominant term is latency (shortest-delay paths, as in the paper's
    "shortest path routing"); the ``1/bandwidth`` epsilon prefers higher
    capacity among equal-latency alternatives and makes trees unique in
    practice.
    """
    return latency_s + 1e-3 / bandwidth_bps


@dataclass(frozen=True, slots=True)
class _DomainGraph:
    """A domain's in-service member graph, flattened for SPF.

    Rows are members in node-id order, so comparing columns compares
    node ids. Down links, down nodes and non-members are already gone.
    A *leaf* is a member with one neighbour that itself has more: it
    keeps its edge towards that neighbour but loses the edge back, so a
    search never enters a leaf it did not start from — every host of a
    flat network drops out of every search but its own.
    """

    #: directed metrics, column-sorted within each row
    matrix: csr_array
    #: row of each stored entry (``matrix.indices`` is its column)
    entry_row: np.ndarray
    #: rows with at least one entry, and where each one's entries start
    filled_rows: np.ndarray
    filled_start: np.ndarray
    #: index into ``filled_rows`` of each stored entry's row
    entry_filled: np.ndarray
    #: node id of each row
    node_of_row: np.ndarray
    #: rows of the leaves, and the metric of each one's only edge
    leaf_rows: np.ndarray
    leaf_metric: np.ndarray
    #: per row, the row it attaches to as a leaf (-1: not a leaf)
    attach_of_row: np.ndarray
    #: ``(row, row)`` with the smaller first -> minimum metric over the
    #: pair's in-service parallel links
    pair_metric: dict[tuple[int, int], float]


class OspfRouting:
    """Shortest-path next-hop provider for one routing domain.

    Parameters
    ----------
    net:
        The full network.
    members:
        Node ids belonging to this OSPF domain (routers and hosts of one
        AS). Paths never leave the member set.
    """

    def __init__(self, net: Network, members: list[int]) -> None:
        self.net = net
        self.members = list(members)
        # node id -> row of the domain's arrays, in node-id order
        self._row = {node: i for i, node in enumerate(sorted(self.members))}
        # destination -> next-hop node id per row (-1: none)
        self._trees: dict[int, np.ndarray] = {}
        # Built by the first tree after construction or a state change.
        self._graph: _DomainGraph | None = None
        # Fault state (repro.faults): links/nodes currently out of service.
        self._down_links: set[int] = set()
        self._down_nodes: set[int] = set()
        #: topology-state changes that invalidated the cached trees
        self.invalidations = 0
        #: reverse SPTs built since construction (re-convergence signal),
        #: every tree of every block counted
        self.trees_built = 0

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._row

    def _build_graph(self) -> _DomainGraph:
        row = self._row
        down_links = self._down_links
        down_nodes = self._down_nodes
        pair_metric: dict[tuple[int, int], float] = {}
        for u, a in row.items():
            if u in down_nodes:
                continue
            for v, link in self.net.neighbors(u):
                b = row.get(v)
                # Each link is seen from both ends; take it from the lower.
                if b is None or b < a or v in down_nodes or link.link_id in down_links:
                    continue
                metric = ospf_link_metric(link.latency_s, link.bandwidth_bps)
                if metric < pair_metric.get((a, b), np.inf):
                    pair_metric[(a, b)] = metric
        n = len(row)
        ends = np.array(list(pair_metric), dtype=np.int64).reshape(-1, 2)
        metrics = np.array(list(pair_metric.values()), dtype=np.float64)
        src = np.concatenate([ends[:, 0], ends[:, 1]])
        dst = np.concatenate([ends[:, 1], ends[:, 0]])
        metrics = np.concatenate([metrics, metrics])
        degree = np.bincount(src, minlength=n)
        only_neighbour = np.zeros(n, dtype=np.int64)
        only_neighbour[src] = dst  # meaningful where degree == 1
        is_leaf = (degree == 1) & (degree[only_neighbour] > 1)
        keep = np.flatnonzero(~is_leaf[dst])
        keep = keep[np.lexsort((dst[keep], src[keep]))]
        src, dst, metrics = src[keep], dst[keep], metrics[keep]
        leaf_entry = is_leaf[src]
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        filled_rows = np.flatnonzero(indptr[1:] > indptr[:-1])
        entry_filled = np.repeat(np.arange(len(filled_rows)), np.diff(indptr)[filled_rows])
        return _DomainGraph(
            matrix=csr_array((metrics, dst.astype(np.int32), indptr), shape=(n, n)),
            entry_row=src,
            filled_rows=filled_rows,
            filled_start=indptr[filled_rows],
            entry_filled=entry_filled,
            node_of_row=np.array(list(row), dtype=np.int32),
            leaf_rows=src[leaf_entry],
            leaf_metric=metrics[leaf_entry],
            attach_of_row=np.where(is_leaf, only_neighbour, -1),
            pair_metric=pair_metric,
        )

    def _build_block(self, dest: int) -> None:
        """Reverse SPTs toward every member of ``dest``'s block.

        A block is :data:`SPF_BLOCK` consecutive member rows; one
        ``dijkstra`` call gives the distances from each of them (links
        are symmetric, so distances *from* a destination are the
        distances to it), and one pick over every stored entry of every
        tree applies the module docstring's tie-break rule.
        """
        graph = self._graph
        if graph is None:
            graph = self._graph = self._build_graph()
        n = len(graph.node_of_row)
        first = self._row[dest] // SPF_BLOCK * SPF_BLOCK
        roots = np.arange(first, min(first + SPF_BLOCK, n))
        dist = dijkstra(graph.matrix, directed=True, indices=roots)
        # No search enters a leaf; its distance is one hop past its
        # attachment, which makes its only entry tight like any other.
        leaves = graph.leaf_rows
        dist[:, leaves] = dist[:, graph.attach_of_row[leaves]] + graph.leaf_metric
        dist[np.arange(len(roots)), roots] = 0.0  # a leaf root was just overwritten
        # A (dist, node) heap finalises rows in that order, and a row's
        # parent is the first-finalised column its entry is tight with:
        # the smallest distance among the tight columns, then the
        # smallest column (node id) among those.
        cols = graph.matrix.indices
        dist_col = dist[:, cols]
        dist_row = dist[:, graph.entry_row]
        tight = (dist_col + graph.matrix.data == dist_row) & (dist_row < np.inf)
        nearest = np.minimum.reduceat(
            np.where(tight, dist_col, np.inf), graph.filled_start, axis=1
        )
        first_tight = tight & (dist_col == nearest[:, graph.entry_filled])
        parent = np.minimum.reduceat(
            np.where(first_tight, cols, n), graph.filled_start, axis=1
        )
        node_or_none = np.append(graph.node_of_row, np.int32(-1))
        trees = np.full((len(roots), n), -1, dtype=np.int32)
        trees[:, graph.filled_rows] = node_or_none[parent]
        # A leaf destination is its attachment's parent over the one
        # edge the matrix does not store in that direction.
        attach = graph.attach_of_row[roots]
        leaf_root = np.flatnonzero(attach >= 0)
        trees[leaf_root, attach[leaf_root]] = graph.node_of_row[roots[leaf_root]]
        for dest_node, tree in zip(graph.node_of_row[roots].tolist(), trees):
            self._trees[dest_node] = tree
        self.trees_built += len(roots)

    def next_hop(self, node: int, dest: int) -> int | None:
        """Next node on the shortest path from ``node`` to ``dest``.

        Returns ``None`` when ``dest`` is unreachable within the domain
        (a non-member included: no tree is built for it) or
        ``node == dest``.
        """
        if node == dest:
            return None
        tree = self._trees.get(dest)
        if tree is None:
            if dest not in self._row:
                return None
            self._build_block(dest)
            tree = self._trees[dest]
        row = self._row.get(node)
        if row is None:
            return None
        hop = tree.item(row)
        return hop if hop >= 0 else None

    def distance(self, node: int, dest: int) -> float:
        """Shortest-path metric distance (inf if unreachable).

        Summed hop by hop from ``node``, each hop at the metric SPF used
        for it (the cheapest in-service link of the pair).
        """
        if node == dest:
            return 0.0
        total = 0.0
        current = node
        guard = len(self.members) + 1
        while current != dest and guard > 0:
            guard -= 1
            nxt = self.next_hop(current, dest)
            if nxt is None:
                return float("inf")
            a, b = self._row[current], self._row[nxt]
            assert self._graph is not None  # next_hop built the tree
            total += self._graph.pair_metric[(a, b) if a < b else (b, a)]
            current = nxt
        return total if current == dest else float("inf")

    def path(self, node: int, dest: int) -> list[int] | None:
        """Full node path ``[node, ..., dest]`` (None if unreachable)."""
        path = [node]
        current = node
        guard = len(self.members) + 1
        while current != dest:
            guard -= 1
            if guard < 0:
                return None
            nxt = self.next_hop(current, dest)
            if nxt is None:
                return None
            path.append(nxt)
            current = nxt
        return path

    def cached_destinations(self) -> list[int]:
        """Destinations whose reverse SPTs have been built (cache view):
        whole blocks, in the order they were built."""
        return list(self._trees)

    # ------------------------------------------------------------------
    # Topology-state changes (repro.faults recovery path)
    # ------------------------------------------------------------------
    def set_link_state(self, link_id: int, up: bool) -> None:
        """Mark a link in or out of service; recompute routes lazily.

        An out-of-service link is excluded from the member graph — the
        OSPF analogue of flooding an LSA and re-running SPF. Graph and
        cached trees are dropped so the next ``next_hop`` query
        recomputes against the current topology state.
        """
        changed = (link_id in self._down_links) if up else (link_id not in self._down_links)
        if up:
            self._down_links.discard(link_id)
        else:
            self._down_links.add(link_id)
        if changed:
            self._invalidate()

    def set_node_state(self, node_id: int, up: bool) -> None:
        """Mark a router/host in or out of service (crash/restart)."""
        changed = (node_id in self._down_nodes) if up else (node_id not in self._down_nodes)
        if up:
            self._down_nodes.discard(node_id)
        else:
            self._down_nodes.add(node_id)
        if changed:
            self._invalidate()

    def _invalidate(self) -> None:
        self._trees.clear()
        self._graph = None
        self.invalidations += 1
