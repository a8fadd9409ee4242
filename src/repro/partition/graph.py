"""Compressed sparse row weighted graph used by the partitioner.

This is the substrate under every load-balance approach in the paper:
the virtual network is converted into a :class:`WeightedGraph` whose vertex
weights estimate simulation load and whose edge weights encode the cost of
cutting a link (derived from link latency and/or profiled traffic), and the
graph is then handed to a METIS-like multilevel partitioner
(:mod:`repro.partition.kway`).

The structure is deliberately close to the METIS CSR input format
(``xadj`` / ``adjncy`` / ``adjwgt`` / ``vwgt``) with one extension: every
edge also carries its *link latency* ``adjlat`` so that partition
post-processing can compute the achieved Minimum Link Latency (MLL) across
partitions, the quantity the paper's hierarchical approach optimizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["WeightedGraph", "GraphContraction"]


def _as_f64(a: Sequence[float] | np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64))


def _as_i64(a: Sequence[int] | np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(a, dtype=np.int64))


def sum_by_index(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """``out = np.zeros(size); np.add.at(out, index, weights)``, only faster.

    ``np.bincount`` also adds in input order, so every float comes out
    the same; for an empty input it returns integers, hence the cast.
    """
    return np.bincount(index, weights=weights, minlength=size).astype(np.float64, copy=False)


def _merged_csr(
    n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray, lat: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merge parallel edges and list each edge from both ends, in CSR order.

    Returns ``(rows, adjncy, adjwgt, adjlat)``. Parallel edges merge into
    one (weights summed, minimum latency kept). The entries are sorted by
    ``(row, neighbour < row, neighbour)``: a row lists its higher
    neighbours, then its lower ones, each ascending.
    :meth:`WeightedGraph._induced` reproduces that order with one argsort.
    """
    m = u.shape[0]
    # Merge parallel edges: canonicalize (min, max), group.
    if m:
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        key = lo * n + hi
        order = np.argsort(key, kind="stable")
        key_s = key[order]
        uniq_mask = np.empty(m, dtype=bool)
        uniq_mask[0] = True
        np.not_equal(key_s[1:], key_s[:-1], out=uniq_mask[1:])
        group = np.cumsum(uniq_mask) - 1
        n_uniq = int(group[-1]) + 1
        w_m = sum_by_index(group, w[order], n_uniq)
        lat_m = np.minimum.reduceat(lat[order], np.flatnonzero(uniq_mask))
        lo_m = lo[order][uniq_mask]
        hi_m = hi[order][uniq_mask]
    else:
        lo_m = hi_m = np.empty(0, dtype=np.int64)
        w_m = lat_m = np.empty(0)

    # Build symmetric CSR.
    src = np.concatenate([lo_m, hi_m])
    dst = np.concatenate([hi_m, lo_m])
    ew = np.concatenate([w_m, w_m])
    el = np.concatenate([lat_m, lat_m])
    order = np.argsort(src, kind="stable")
    return src[order], dst[order], ew[order], el[order]


class Components:
    """Connected components of ``n`` vertices, grown edge by edge (union-find).

    Every root is its component's smallest vertex: a union hangs the
    larger root under the smaller, and path halving only shortens paths.
    Ranking the roots therefore numbers the components in the order of
    their smallest members, the order :func:`component_labels` promises,
    whatever order the edges came in. ``count`` is the number of
    components so far.
    """

    __slots__ = ("_parent", "count")

    def __init__(self, n: int) -> None:
        self._parent = list(range(n))
        self.count = n

    def union(self, u: np.ndarray, v: np.ndarray) -> None:
        """Join the endpoints of every edge ``u[i]-v[i]``."""
        parent = self._parent
        merged = 0
        for a, b in zip(u.tolist(), v.tolist()):
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a != b:
                if a < b:
                    parent[b] = a
                else:
                    parent[a] = b
                merged += 1
        self.count -= merged

    def labels(self) -> np.ndarray:
        """``labels[x]`` is the rank of ``x``'s root among the roots."""
        parent = np.array(self._parent, dtype=np.int64)
        while True:  # pointer jumping: each pass halves every path
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        is_root = parent == np.arange(parent.shape[0])
        return (np.cumsum(is_root, dtype=np.int64) - 1)[parent]


def component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Connected components of ``n`` vertices under the edges ``u[i]-v[i]``.

    Component ids ascend with each component's smallest vertex. Coarse
    vertex numbering, hence every partition of a collapsed graph, depends
    on that order, so it is imposed here (see :class:`Components`), not
    inherited from a search.
    """
    components = Components(n)
    components.union(u, v)
    return components.labels()


@dataclass(frozen=True)
class GraphContraction:
    """Result of contracting a :class:`WeightedGraph`.

    Attributes
    ----------
    coarse:
        The contracted graph. Vertex ``c`` aggregates every fine vertex
        ``v`` with ``labels[v] == c``; its weight is the sum of the fine
        weights. Parallel fine edges between two clusters are merged by
        *summing* their edge weights and keeping the *minimum* latency
        (the smallest latency of any physical link between the clusters
        bounds the achievable MLL if the boundary is cut there).
    labels:
        ``labels[v]`` is the coarse vertex containing fine vertex ``v``.
    """

    coarse: "WeightedGraph"
    labels: np.ndarray

    def project(self, coarse_part: np.ndarray) -> np.ndarray:
        """Lift a partition vector of the coarse graph back to fine vertices."""
        coarse_part = _as_i64(coarse_part)
        if coarse_part.shape[0] != self.coarse.num_vertices:
            raise ValueError(
                f"partition has {coarse_part.shape[0]} entries, coarse graph "
                f"has {self.coarse.num_vertices} vertices"
            )
        return coarse_part[self.labels]


class WeightedGraph:
    """Undirected weighted graph in CSR form.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n``. Vertices are ``0..n-1``.
    edges_u, edges_v:
        Endpoint arrays of the ``m`` undirected edges. Self loops are
        rejected; parallel edges are merged (weights summed, minimum
        latency kept).
    edge_weight:
        Partitioning edge weight (finite, non-negative). Defaults to 1.0.
    edge_latency:
        Physical link latency in **seconds** (positive, not NaN). Defaults
        to ``inf`` meaning "latency unknown / not a constraint".
    vertex_weight:
        Load estimate per vertex (finite, non-negative). Defaults to 1.0.

    Notes
    -----
    The adjacency is stored both ways, so ``xadj``/``adjncy`` have ``2m``
    entries. All arrays are immutable by convention; mutating them breaks
    cached invariants: the CSR row index is kept from the build
    (``_rows``), and the once-per-edge arrays of :meth:`edge_list` and the
    list views the partitioner kernels loop over are derived on first use
    and kept (``_edges``, ``_lists``). None of the three is pickled.
    """

    __slots__ = ("xadj", "adjncy", "adjwgt", "adjlat", "vwgt", "_total_vwgt")
    __slots__ += ("_edges", "_rows", "_lists")  # derived, never pickled

    def __init__(
        self,
        num_vertices: int,
        edges_u: Sequence[int] | np.ndarray,
        edges_v: Sequence[int] | np.ndarray,
        edge_weight: Sequence[float] | np.ndarray | None = None,
        edge_latency: Sequence[float] | np.ndarray | None = None,
        vertex_weight: Sequence[float] | np.ndarray | None = None,
    ) -> None:
        n = int(num_vertices)
        if n < 0:
            raise ValueError("num_vertices must be non-negative")
        u = _as_i64(edges_u)
        v = _as_i64(edges_v)
        if u.shape != v.shape:
            raise ValueError("edges_u and edges_v must have equal length")
        m = u.shape[0]
        if m and (u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n):
            raise ValueError("edge endpoint out of range")
        if np.any(u == v):
            raise ValueError("self loops are not allowed")

        w = _as_f64(edge_weight) if edge_weight is not None else np.ones(m)
        lat = _as_f64(edge_latency) if edge_latency is not None else np.full(m, np.inf)
        if w.shape[0] != m or lat.shape[0] != m:
            raise ValueError("edge attribute length mismatch")
        if not np.isfinite(w).all():
            raise ValueError("edge weights must be finite")
        if m and w.min() < 0:
            raise ValueError("edge weights must be non-negative")
        # +inf is a legal latency ("unknown"); NaN fails the comparison.
        if not (lat > 0).all():
            raise ValueError("edge latencies must be positive")

        vw = _as_f64(vertex_weight) if vertex_weight is not None else np.ones(n)
        if vw.shape[0] != n:
            raise ValueError("vertex_weight length mismatch")
        if not np.isfinite(vw).all():
            raise ValueError("vertex weights must be finite")
        if n and vw.min() < 0:
            raise ValueError("vertex weights must be non-negative")
        self._set_csr(*_merged_csr(n, u, v, w, lat), vw)

    @classmethod
    def _from_csr(
        cls,
        rows: np.ndarray,
        adjncy: np.ndarray,
        adjwgt: np.ndarray,
        adjlat: np.ndarray,
        vwgt: np.ndarray,
    ) -> "WeightedGraph":
        """A graph of merged CSR entries in :func:`_merged_csr`'s order.

        Nothing is checked: the two builders that call this
        (:meth:`_induced`, :meth:`contract`) take their entries from a
        graph that was checked when it was built.
        """
        graph = cls.__new__(cls)
        graph._set_csr(rows, adjncy, adjwgt, adjlat, vwgt)
        return graph

    def _set_csr(
        self,
        rows: np.ndarray,
        adjncy: np.ndarray,
        adjwgt: np.ndarray,
        adjlat: np.ndarray,
        vwgt: np.ndarray,
    ) -> None:
        """Store CSR entries; the row index is kept as :meth:`csr_rows`."""
        n = vwgt.shape[0]
        xadj = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=xadj[1:])
        self.xadj = xadj
        self.adjncy = adjncy
        self.adjwgt = adjwgt
        self.adjlat = adjlat
        self.vwgt = vwgt
        self._total_vwgt = float(vwgt.sum())
        self._rows = rows

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return self.vwgt.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self.adjncy.shape[0] // 2

    @property
    def total_vertex_weight(self) -> float:
        """Sum of all vertex weights."""
        return self._total_vwgt

    def degree(self, v: int) -> int:
        """Number of edges incident to ``v``."""
        return int(self.xadj[v + 1] - self.xadj[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor vertex ids of ``v`` (a CSR view; do not mutate)."""
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Edge weights aligned with :meth:`neighbors` (a CSR view)."""
        return self.adjwgt[self.xadj[v] : self.xadj[v + 1]]

    def __getstate__(self) -> tuple[None, dict]:
        """Pickle the six defining slots; what is derived from them is rebuilt."""
        return None, {name: getattr(self, name) for name in self.__slots__[:6]}

    def csr_rows(self) -> np.ndarray:
        """Row (source vertex) of every ``adjncy`` entry; do not mutate."""
        try:
            return self._rows
        except AttributeError:
            n = self.num_vertices
            self._rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.xadj))
            return self._rows

    def csr_lists(self) -> tuple[list[int], list[int], list[float], list[float]]:
        """``(xadj, adjncy, adjwgt, vwgt)`` as Python lists, for scalar loops."""
        try:
            return self._lists
        except AttributeError:
            arrays = (self.xadj, self.adjncy, self.adjwgt, self.vwgt)
            self._lists = tuple(a.tolist() for a in arrays)
            return self._lists

    def edge_list(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(u, v, weight, latency)`` with each undirected edge once."""
        try:
            return self._edges
        except AttributeError:
            src = self.csr_rows()
            keep = src < self.adjncy
            self._edges = src[keep], self.adjncy[keep], self.adjwgt[keep], self.adjlat[keep]
            return self._edges

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.num_vertices))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WeightedGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"total_vwgt={self._total_vwgt:g})"
        )

    # ------------------------------------------------------------------
    # Partition-related quantities
    # ------------------------------------------------------------------
    def _check_partition(self, part: np.ndarray) -> np.ndarray:
        part = _as_i64(part)
        if part.shape[0] != self.num_vertices:
            raise ValueError(
                f"partition has {part.shape[0]} entries for "
                f"{self.num_vertices} vertices"
            )
        return part

    def validate_partition(self, part: Sequence[int] | np.ndarray, num_parts: int) -> None:
        """Validate an assignment vector against this graph.

        Delegates to :func:`repro.analysis.validate_partition` (coverage,
        range, occupancy, and weight-accounting checks) and raises
        :class:`repro.analysis.PartitionValidationError` on violation.
        Partitioners call this at their construction boundary so a bad
        assignment fails loudly instead of skewing metrics.
        """
        from ..analysis.partition_check import validate_partition

        validate_partition(self, part, num_parts)

    def edge_cut(self, part: Sequence[int] | np.ndarray) -> float:
        """Total weight of edges whose endpoints land in different parts."""
        part = self._check_partition(part)
        u, v, w, _ = self.edge_list()
        return float(w[part[u] != part[v]].sum())

    def cut_edges(
        self, part: Sequence[int] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The ``(u, v, weight, latency)`` arrays of edges crossing the cut."""
        part = self._check_partition(part)
        u, v, w, lat = self.edge_list()
        mask = part[u] != part[v]
        return u[mask], v[mask], w[mask], lat[mask]

    def min_cut_latency(self, part: Sequence[int] | np.ndarray) -> float:
        """Achieved MLL: the minimum latency over edges crossing the cut.

        Returns ``inf`` when no edge is cut (single partition or
        disconnected parts), matching the paper's definition that the
        lookahead of a conservative engine is bounded by the smallest
        cross-partition link latency.
        """
        return self.cut_summary(part)[1]

    def cut_summary(self, part: Sequence[int] | np.ndarray) -> tuple[float, float]:
        """``(edge_cut, min_cut_latency)`` from one pass over the cut edges."""
        _, _, w, lat = self.cut_edges(part)
        return float(w.sum()), float(lat.min()) if lat.size else float("inf")

    def partition_weights(
        self, part: Sequence[int] | np.ndarray, num_parts: int | None = None
    ) -> np.ndarray:
        """Sum of vertex weights per partition."""
        part = self._check_partition(part)
        k = int(num_parts) if num_parts is not None else (int(part.max()) + 1 if part.size else 0)
        out = sum_by_index(part, self.vwgt, k)
        if out.shape[0] != k:
            raise IndexError(f"part id {out.shape[0] - 1} out of range for {k} parts")
        return out

    def balance(self, part: Sequence[int] | np.ndarray, num_parts: int | None = None) -> float:
        """Imbalance ratio ``max_part_weight / ideal_part_weight`` (>= 1)."""
        weights = self.partition_weights(part, num_parts)
        if weights.size == 0 or self._total_vwgt == 0:
            return 1.0
        ideal = self._total_vwgt / weights.size
        return float(weights.max() / ideal) if ideal > 0 else 1.0

    # ------------------------------------------------------------------
    # Structure operations
    # ------------------------------------------------------------------
    def connected_components(self) -> np.ndarray:
        """Label vertices by connected component, 0-based and dense.

        Component ids ascend with each component's smallest vertex (the
        component of vertex 0 is 0, the next unlabelled vertex starts
        1, ...). :meth:`collapse_below_latency` hands these labels to
        :meth:`contract`, so coarse vertex numbering follows from it.
        """
        u, v, _, _ = self.edge_list()
        return component_labels(self.num_vertices, u, v)

    def is_connected(self) -> bool:
        """True when every vertex is reachable from vertex 0 (or empty)."""
        if self.num_vertices == 0:
            return True
        return bool(self.connected_components().max() == 0)

    def _induced(self, vertices: np.ndarray) -> "WeightedGraph":
        """The subgraph over ``vertices`` (int64 ids, any order, no repeats).

        Subgraph vertex ``i`` is ``vertices[i]``. The CSR entries between
        kept vertices are renumbered and sorted into the order
        :func:`_merged_csr` gives; they are merged and checked already, so
        this is the graph the constructor would build from them.
        """
        k = vertices.shape[0]
        ids = np.arange(k, dtype=np.int64)
        newid = np.full(self.num_vertices, -1, dtype=np.int64)
        newid[vertices] = ids
        if not np.array_equal(newid[vertices], ids):
            raise ValueError("a vertex id is repeated")
        rows, nbrs = newid[self.csr_rows()], newid[self.adjncy]
        keep = np.flatnonzero((rows >= 0) & (nbrs >= 0))
        rows, nbrs = rows[keep], nbrs[keep]
        # Keys are unique (a merged graph has one entry per ordered pair).
        order = np.argsort((2 * rows + (nbrs < rows)) * k + nbrs, kind="stable")
        keep = keep[order]
        return WeightedGraph._from_csr(
            rows[order], nbrs[order], self.adjwgt[keep], self.adjlat[keep], self.vwgt[vertices]
        )

    def contract(self, labels: Sequence[int] | np.ndarray) -> GraphContraction:
        """Contract vertices sharing a label into single coarse vertices.

        ``labels`` must be dense ``0..k-1``. Intra-cluster edges vanish;
        inter-cluster parallel edges merge (weights summed, min latency).
        This single primitive serves both multilevel coarsening (labels
        from a matching) and the paper's hierarchical collapse (labels
        from connected components of the sub-threshold-latency subgraph).
        """
        labels = _as_i64(labels)
        if labels.shape[0] != self.num_vertices:
            raise ValueError("labels length mismatch")
        k = int(labels.max()) + 1 if labels.size else 0
        if labels.size and (labels.min() < 0 or not np.bincount(labels).all()):
            raise ValueError("labels must be dense 0..k-1")

        cvwgt = sum_by_index(labels, self.vwgt, k)

        u, v, w, lat = self.edge_list()
        cu, cv = labels[u], labels[v]
        keep = cu != cv
        # The constructor's merge without its checks: the labels are checked
        # above, and the edges and weights come from this checked graph.
        coarse = WeightedGraph._from_csr(
            *_merged_csr(k, cu[keep], cv[keep], w[keep], lat[keep]), cvwgt
        )
        return GraphContraction(coarse=coarse, labels=labels)
