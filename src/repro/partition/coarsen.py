"""Graph coarsening via heavy-edge matching (the METIS HEM scheme).

Multilevel partitioning repeatedly contracts a maximal matching of the
graph, preferring heavy edges so that large edge weights are hidden inside
coarse vertices and cannot be cut. Coarsening stops when the graph is small
enough for the initial partitioner or stops shrinking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import GraphContraction, WeightedGraph

__all__ = ["heavy_edge_matching", "coarsen_once", "coarsen", "CoarseningLevel"]


def heavy_edge_matching(
    graph: WeightedGraph,
    rng: np.random.Generator,
    max_vertex_weight: float | None = None,
) -> np.ndarray:
    """Compute a maximal matching preferring heavy edges.

    Vertices are visited in random order; an unmatched vertex is matched
    with its unmatched neighbor of maximum edge weight (ties broken by
    smaller resulting vertex weight). Returns dense cluster labels
    ``0..k-1`` where matched pairs share a label.

    Parameters
    ----------
    max_vertex_weight:
        If given, a match is skipped when the merged vertex weight would
        exceed this cap — this keeps coarse vertices partitionable.
    """
    n = graph.num_vertices
    match = [-1] * n
    xadj, adjncy, adjwgt, vwgt = graph.csr_lists()

    for v in rng.permutation(n).tolist():
        if match[v] >= 0:
            continue
        best = -1
        best_w = -1.0
        best_vw = np.inf
        for idx in range(xadj[v], xadj[v + 1]):
            u = adjncy[idx]
            if match[u] >= 0:
                continue
            if max_vertex_weight is not None and vwgt[v] + vwgt[u] > max_vertex_weight:
                continue
            w = adjwgt[idx]
            if w > best_w or (w == best_w and vwgt[u] < best_vw):
                best, best_w, best_vw = u, w, vwgt[u]
        if best >= 0:
            match[v] = best
            match[best] = v
        else:
            match[v] = v  # matched with itself

    # Densify labels: the representative of a pair is min(v, match[v]),
    # and representatives are numbered in ascending order.
    vertices = np.arange(n, dtype=np.int64)
    rep = np.minimum(vertices, np.array(match, dtype=np.int64))
    return (np.cumsum(rep == vertices) - 1)[rep]


def coarsen_once(
    graph: WeightedGraph,
    rng: np.random.Generator,
    max_vertex_weight: float | None = None,
) -> GraphContraction:
    """One level of heavy-edge-matching contraction."""
    labels = heavy_edge_matching(graph, rng, max_vertex_weight)
    return graph.contract(labels)


@dataclass(frozen=True)
class CoarseningLevel:
    """One level of the multilevel hierarchy (finer graph + contraction)."""

    fine: WeightedGraph
    contraction: GraphContraction


def coarsen(
    graph: WeightedGraph,
    target_vertices: int,
    rng: np.random.Generator,
    shrink_threshold: float = 0.95,
    balance_cap_factor: float = 4.0,
    num_parts: int = 2,
) -> tuple[WeightedGraph, list[CoarseningLevel]]:
    """Coarsen until ``target_vertices`` or the graph stops shrinking.

    Returns the coarsest graph and the list of levels (finest first) needed
    to project a coarse partition back up.

    ``balance_cap_factor`` caps coarse vertex weights at
    ``factor * total / (target_vertices)`` so no coarse vertex
    becomes so heavy that a balanced ``num_parts``-way partition is
    impossible.
    """
    if target_vertices < max(2, num_parts):
        raise ValueError("target_vertices must be >= max(2, num_parts)")
    levels: list[CoarseningLevel] = []
    current = graph
    total = graph.total_vertex_weight
    cap = balance_cap_factor * total / max(target_vertices, 1) if total > 0 else None

    while current.num_vertices > target_vertices:
        contraction = coarsen_once(current, rng, max_vertex_weight=cap)
        coarse = contraction.coarse
        if coarse.num_vertices >= shrink_threshold * current.num_vertices:
            break  # matching saturated (e.g. star graphs); stop early
        levels.append(CoarseningLevel(fine=current, contraction=contraction))
        current = coarse
    return current, levels
