"""Initial bisection of the coarsest graph.

METIS uses greedy graph growing (GGGP): grow a region from a random seed,
repeatedly absorbing the boundary vertex with the best cut gain, until the
region holds the target share of total vertex weight. Several trials are
run and the best (feasible, lowest-cut) bisection is kept.
"""

from __future__ import annotations

import heapq

import numpy as np

from .graph import WeightedGraph

__all__ = ["best_bisection"]


def _initial_gains(graph: WeightedGraph) -> list[float]:
    """Gain of every vertex while the region is empty: minus its edge weight.

    ``np.add.reduce`` on the row is what ``ndarray.sum`` runs; a
    sequential or ``reduceat`` sum rounds differently on long rows.
    """
    xadj = graph.csr_lists()[0]
    adjwgt, row_sum = graph.adjwgt, np.add.reduce
    return [-float(row_sum(adjwgt[xadj[v] : xadj[v + 1]])) for v in range(graph.num_vertices)]


def _grow(
    graph: WeightedGraph, seed: int, target_fraction: float, initial_gains: list[float]
) -> np.ndarray:
    """Grow partition 0 from ``seed`` until it holds ``target_fraction`` weight.

    Returns a 0/1 partition vector. The growth front is a max-gain heap
    where the gain of moving ``v`` into the region is
    ``(edge weight to region) - (edge weight to outside)``; absorbing
    high-gain vertices keeps the running cut small. ``initial_gains``
    is not modified.
    """
    n = graph.num_vertices
    target = target_fraction * graph.total_vertex_weight
    xadj, adjncy, adjwgt, vwgt = graph.csr_lists()
    heappush, heappop = heapq.heappush, heapq.heappop

    # gain[v] tracked lazily: heap entries may be stale, validated on pop.
    gain = initial_gains.copy()
    in_region = [False] * n
    stamp = [0] * n
    heap: list[tuple[float, int, int]] = []
    region_weight = 0.0
    v = seed
    while True:
        in_region[v] = True
        region_weight += vwgt[v]
        for idx in range(xadj[v], xadj[v + 1]):
            u = adjncy[idx]
            if not in_region[u]:
                gain[u] += 2.0 * adjwgt[idx]
                stamp[u] += 1
                heappush(heap, (-gain[u], stamp[u], u))
        if region_weight >= target:
            break
        # Next: the best frontier vertex whose heap entry is still current.
        while heap:
            _, st, v = heappop(heap)
            if not in_region[v] and st == stamp[v]:
                break
        else:
            break  # frontier dried up
        # Stop before overshooting badly past the target.
        vw = vwgt[v]
        if region_weight + vw > target and region_weight > 0.5 * target:
            overshoot = region_weight + vw - target
            undershoot = target - region_weight
            if overshoot > undershoot:
                break

    # The frontier may dry up in a disconnected graph: top up with the
    # lightest remaining vertices until the balance target is met.
    region = np.array(in_region)
    if region_weight < target:
        remaining = np.flatnonzero(~region)
        order = remaining[np.argsort(graph.vwgt[remaining], kind="stable")]
        for v in order.tolist():
            if region_weight >= target:
                break
            region[v] = True
            region_weight += vwgt[v]
    return np.where(region, 0, 1).astype(np.int64)


def best_bisection(
    graph: WeightedGraph,
    rng: np.random.Generator,
    target_fraction: float = 0.5,
    trials: int = 4,
    imbalance_tolerance: float = 1.10,
) -> np.ndarray:
    """Run several greedy-growing trials; keep the best feasible bisection.

    Feasible means neither side exceeds ``tolerance *`` its target weight;
    among feasible candidates the minimum cut wins, with balance as the
    tie-break. If no trial is feasible the least-imbalanced one is kept.
    """
    n = graph.num_vertices
    if n <= 1:
        return np.zeros(n, dtype=np.int64)
    if not 0.0 < target_fraction < 1.0:
        raise ValueError("target_fraction must be in (0, 1)")
    total = graph.total_vertex_weight
    targets = np.array([target_fraction * total, (1 - target_fraction) * total])

    best: np.ndarray | None = None
    best_key: tuple[int, float, float] | None = None
    initial_gains = _initial_gains(graph)
    for _ in range(max(1, trials)):
        part = _grow(graph, int(rng.integers(n)), target_fraction, initial_gains)
        weights = graph.partition_weights(part, 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(targets > 0, weights / targets, 1.0)
        imbalance = float(np.nanmax(ratio)) if np.isfinite(ratio).any() else 1.0
        cut = graph.edge_cut(part)
        feasible = 0 if imbalance <= imbalance_tolerance else 1
        key = (feasible, cut if feasible == 0 else imbalance, imbalance)
        if best_key is None or key < best_key:
            best, best_key = part, key
    assert best is not None
    return best
