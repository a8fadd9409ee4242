"""Initial bisection of the coarsest graph.

METIS uses greedy graph growing (GGGP): grow a region from a random seed,
repeatedly absorbing the boundary vertex with the best cut gain, until the
region holds the target share of total vertex weight. Several trials are
run and the best (feasible, lowest-cut) bisection is kept.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .graph import WeightedGraph

__all__ = ["best_bisection"]


def _initial_gains(graph: WeightedGraph) -> list[float]:
    """Gain of every vertex while the region is empty: minus its edge weight.

    Each row is summed by ``np.add.reduce``, which is what ``ndarray.sum``
    runs; a sequential or ``reduceat`` sum rounds differently on long
    rows. Rows of one length are gathered into a 2-D array and reduced
    along its contiguous last axis in one call, which runs the same
    pairwise sum on each row.
    """
    starts = graph.csr_lists()[0]
    rows_of_length: dict[int, list[int]] = {}
    for v in range(graph.num_vertices):
        rows_of_length.setdefault(starts[v + 1] - starts[v], []).append(v)
    xadj, adjwgt = graph.xadj, graph.adjwgt
    sums = np.zeros(graph.num_vertices)
    for length, rows in sorted(rows_of_length.items()):
        sums[rows] = np.add.reduce(adjwgt[xadj[rows][:, None] + np.arange(length)], axis=1)
    return (-sums).tolist()


def _grow(
    graph: WeightedGraph, seed: int, target_fraction: float, initial_gains: list[float]
) -> list[bool]:
    """Grow partition 0 from ``seed`` until it holds ``target_fraction`` weight.

    Returns, per vertex, whether it is in partition 0. The growth front
    is a max-gain heap where the gain of moving ``v`` into the region is
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
    if region_weight < target:
        remaining = np.flatnonzero(~np.array(in_region))
        order = remaining[np.argsort(graph.vwgt[remaining], kind="stable")]
        for v in order.tolist():
            if region_weight >= target:
                break
            in_region[v] = True
            region_weight += vwgt[v]
    return in_region


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
    targets = (target_fraction * total, (1 - target_fraction) * total)

    best: list[bool] | None = None
    best_key: tuple[int, float, float] | None = None
    initial_gains = _initial_gains(graph)
    vwgt = graph.csr_lists()[3]
    grown: set[int] = set()
    for _ in range(max(1, trials)):
        seed = int(rng.integers(n))
        if seed in grown:
            continue  # the same region again: its key ties, and ties lose
        grown.add(seed)
        region = _grow(graph, seed, target_fraction, initial_gains)
        # The side weights as partition_weights adds them: in vertex order.
        weights = [0.0, 0.0]
        for inside, vw in zip(region, vwgt):
            weights[0 if inside else 1] += vw
        ratio = [w / t if t > 0 else 1.0 for w, t in zip(weights, targets)]
        # np.nanmax of the ratios, or 1.0 when neither is finite.
        imbalance = max(r for r in ratio if r == r) if any(map(math.isfinite, ratio)) else 1.0
        if imbalance <= imbalance_tolerance:  # feasible: the cut decides
            key = (0, graph.edge_cut(_as_part(region)), imbalance)
        else:
            key = (1, imbalance, imbalance)
        if best_key is None or key < best_key:
            best, best_key = region, key
    assert best is not None
    return _as_part(best)


def _as_part(region: list[bool]) -> np.ndarray:
    """The 0/1 partition vector of a grown region (side 0 inside)."""
    return np.logical_not(region).astype(np.int64)
