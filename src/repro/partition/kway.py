"""Multilevel k-way graph partitioning (recursive bisection driver).

This is the from-scratch stand-in for METIS used throughout the
reproduction: coarsen with heavy-edge matching, bisect the coarsest graph
with greedy graph growing, then uncoarsen with boundary-FM refinement;
k-way partitions come from recursive bisection with proportional weight
targets, so any ``k`` (not just powers of two) is balanced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coarsen import coarsen
from .graph import WeightedGraph
from .initial import best_bisection
from .refine import balance_partition, fm_refine, kway_refine

__all__ = ["PartitionResult", "multilevel_bisect", "partition_kway", "extract_subgraph"]


@dataclass(frozen=True)
class PartitionResult:
    """A k-way partition plus the quality numbers the paper reports."""

    assignment: np.ndarray
    num_parts: int
    edge_cut: float
    balance: float
    min_cut_latency: float

    @classmethod
    def from_assignment(
        cls, graph: WeightedGraph, assignment: np.ndarray, num_parts: int
    ) -> "PartitionResult":
        edge_cut, min_cut_latency = graph.cut_summary(assignment)
        return cls(
            assignment=np.asarray(assignment, dtype=np.int64),
            num_parts=int(num_parts),
            edge_cut=edge_cut,
            balance=graph.balance(assignment, num_parts),
            min_cut_latency=min_cut_latency,
        )


def extract_subgraph(
    graph: WeightedGraph, vertices: np.ndarray
) -> tuple[WeightedGraph, np.ndarray]:
    """Induced subgraph over ``vertices``; returns it plus the old ids.

    The second return value maps subgraph vertex ``i`` back to
    ``vertices[i]`` in the parent graph (any order, no repeats). The
    parent's CSR is sliced (:meth:`WeightedGraph._induced`), not rebuilt.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    return graph._induced(vertices), vertices


def multilevel_bisect(
    graph: WeightedGraph,
    rng: np.random.Generator,
    target_fraction: float = 0.5,
    imbalance_tolerance: float = 1.05,
    coarsen_to: int = 64,
    initial_trials: int = 4,
) -> np.ndarray:
    """Multilevel 2-way partition with an uneven weight target.

    ``target_fraction`` is the desired weight share of side 0.
    """
    n = graph.num_vertices
    if n <= 1:
        return np.zeros(n, dtype=np.int64)

    coarsest, levels = coarsen(graph, max(coarsen_to, 8), rng)
    part = best_bisection(
        coarsest,
        rng,
        target_fraction,
        trials=initial_trials,
        imbalance_tolerance=max(imbalance_tolerance, 1.10),
    )
    part = fm_refine(
        coarsest,
        part,
        (target_fraction, 1 - target_fraction),
        imbalance_tolerance=imbalance_tolerance,
    )

    for level in reversed(levels):
        part = level.contraction.project(part)
        fine = level.fine
        # Repair balance broken by projection before gain-driven refinement.
        weights = fine.partition_weights(part, 2)
        targets = np.array([target_fraction, 1 - target_fraction]) * fine.total_vertex_weight
        if np.any(weights > imbalance_tolerance * np.maximum(targets, 1e-300)):
            part = balance_partition(
                fine, part, (target_fraction, 1 - target_fraction), imbalance_tolerance
            )
        part = fm_refine(
            fine,
            part,
            (target_fraction, 1 - target_fraction),
            imbalance_tolerance=imbalance_tolerance,
        )
    return part


def partition_kway(
    graph: WeightedGraph,
    num_parts: int,
    seed: int | np.random.Generator = 0,
    imbalance_tolerance: float = 1.05,
    coarsen_to: int = 64,
    initial_trials: int = 4,
    kway_refinement: bool = True,
) -> PartitionResult:
    """Partition ``graph`` into ``num_parts`` balanced pieces.

    Recursive bisection: ``k`` parts are split as ``ceil(k/2)`` versus
    ``floor(k/2)`` with a weight target proportional to the split, which
    keeps non-power-of-two part counts balanced. Tolerance is applied per
    bisection, so the final k-way imbalance can slightly exceed it; a
    final direct k-way boundary pass (``kway_refinement``) then moves
    vertices between adjacent parts where the recursive cuts left gains.

    Returns a :class:`PartitionResult`; ``assignment[v]`` is in
    ``0..num_parts-1``.
    """
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = graph.num_vertices
    assignment = np.zeros(n, dtype=np.int64)
    if num_parts == 1 or n == 0:
        return PartitionResult.from_assignment(graph, assignment, num_parts)

    # Work queue of (subgraph vertex ids in parent, part-id offset, k).
    stack: list[tuple[np.ndarray, int, int]] = [
        (np.arange(n, dtype=np.int64), 0, int(num_parts))
    ]
    while stack:
        vertices, offset, k = stack.pop()
        if k == 1 or vertices.size == 0:
            assignment[vertices] = offset
            continue
        k0 = (k + 1) // 2
        k1 = k - k0
        sub, back = extract_subgraph(graph, vertices)
        part = multilevel_bisect(
            sub,
            rng,
            target_fraction=k0 / k,
            imbalance_tolerance=imbalance_tolerance,
            coarsen_to=max(coarsen_to, 4 * k),
            initial_trials=initial_trials,
        )
        side0 = back[part == 0]
        side1 = back[part == 1]
        # Degenerate split (all vertices one side): force a weight split so
        # recursion terminates even on pathological graphs.
        if side0.size == 0 or side1.size == 0:
            order = vertices[np.argsort(-graph.vwgt[vertices], kind="stable")]
            running = np.cumsum(graph.vwgt[order])
            target = (k0 / k) * running[-1]
            split = int(np.searchsorted(running, target)) + 1
            split = min(max(split, 1), order.size - 1) if order.size > 1 else 0
            side0, side1 = order[:split], order[split:]
        # A side must keep at least as many vertices as the parts it will
        # host, or a part comes out empty (PART403) — the weight target
        # can starve a side when one vertex dominates the total weight.
        # Move the lightest vertices across to cover the deficit.
        if vertices.size >= k:
            if side0.size < k0:
                move = side1[np.argsort(graph.vwgt[side1], kind="stable")]
                move = move[: k0 - side0.size]
                side0 = np.concatenate([side0, move])
                side1 = side1[~np.isin(side1, move)]
            elif side1.size < k1:
                move = side0[np.argsort(graph.vwgt[side0], kind="stable")]
                move = move[: k1 - side1.size]
                side1 = np.concatenate([side1, move])
                side0 = side0[~np.isin(side0, move)]
        stack.append((side0, offset, k0))
        stack.append((side1, offset + k0, k1))

    if kway_refinement and num_parts >= 2:
        assignment = kway_refine(
            graph, assignment, num_parts, imbalance_tolerance=imbalance_tolerance
        )
    return PartitionResult.from_assignment(graph, assignment, num_parts)
