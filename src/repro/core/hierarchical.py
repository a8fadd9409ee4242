"""Hierarchical partitioning: the paper's HTOP/HPROF algorithm (§3.4.3).

::

    Input: graph G, partition N, and synchronization cost C
    Output: the best partition P of graph G
    Hierarchical Partition:
        Set the initial Threshold of MLL (Tmll)
        Loop through all reasonable Tmll:
            Get the dumped graph Gd(Tmll)
            Partition the Gd(Tmll) using an existing partitioner
            Evaluate the partition result Pd(Tmll)
        Pick the best partition Pd(Tmll)
        Get the best partition P of original G

"Dumping" collapses every edge with latency below ``Tmll`` (merging its
endpoints), so any partition of the dumped graph achieves ``MLL >= Tmll``
by construction. The sweep starts just above the synchronization cost
("we require a Tmll larger than the synchronization cost, otherwise all
time will be spent on synchronization") and steps by 0.1 ms as in the
paper; every candidate is scored with ``E = Es * Ec`` and the argmax is
projected back to the original graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..partition.graph import WeightedGraph, component_labels
from ..partition.kway import partition_kway
from .evaluate import PartitionEvaluation, evaluate_partition

__all__ = ["SweepRecord", "HierarchicalResult", "hierarchical_partition", "DEFAULT_TMLL_STEP_S"]

#: Sweep granularity from the paper's experiments (0.1 ms).
DEFAULT_TMLL_STEP_S = 0.1e-3


@dataclass(frozen=True)
class SweepRecord:
    """One candidate threshold of the sweep."""

    tmll_s: float
    coarse_vertices: int
    evaluation: PartitionEvaluation


@dataclass(frozen=True)
class HierarchicalResult:
    """Outcome of the hierarchical partition."""

    assignment: np.ndarray
    num_parts: int
    tmll_s: float
    evaluation: PartitionEvaluation
    sweep: list[SweepRecord] = field(default_factory=list)

    @property
    def achieved_mll_s(self) -> float:
        """The best partition's achieved MLL in seconds."""
        return self.evaluation.mll_s


def hierarchical_partition(
    graph: WeightedGraph,
    num_parts: int,
    sync_cost_s: float,
    seed: int = 0,
    tmll_step_s: float = DEFAULT_TMLL_STEP_S,
    tmll_max_s: float | None = None,
    min_coarse_factor: float = 2.0,
    partitioner: Callable[..., "object"] = partition_kway,
    imbalance_tolerance: float = 1.05,
) -> HierarchicalResult:
    """Sweep collapse thresholds; return the best-scoring partition.

    Parameters
    ----------
    graph:
        Weighted network graph (vertex weights = load estimates; edge
        latencies set by the topology).
    sync_cost_s:
        Barrier cost ``C_N`` of the target engine count (from
        :class:`repro.cluster.SyncCostModel`).
    tmll_max_s:
        Sweep upper bound; defaults to the largest finite link latency
        (beyond it the graph would collapse to islands of the latency
        classes anyway). The sweep also stops early when the dumped graph
        has fewer than ``min_coarse_factor * num_parts`` vertices — no
        parallelism left to distribute.
    partitioner:
        Any callable with :func:`repro.partition.partition_kway`'s
        signature, letting tests substitute baselines.

    Notes
    -----
    The first candidate threshold is the smallest multiple of
    ``tmll_step_s`` strictly above ``sync_cost_s``; a flat partition of
    the original graph is always evaluated too (threshold 0), so the
    hierarchical scheme can never do worse than its flat counterpart
    under the E metric.

    Later thresholds are accumulated by repeated ``tmll += tmll_step_s``,
    not computed as multiples: starting from 0.1 ms, nine additions of
    ``1e-4`` give ``0.0010000000000000002``, so an edge of exactly 1 ms is
    already collapsed at the "1.0 ms" candidate. Computing multiples would
    move ``tmll_s`` of recorded results (``benchmarks/e2e/expected.json``),
    so it is left to the change that re-records them (ROADMAP, sweep
    stage (b)). A candidate is partitioned only at steps where the dumped
    graph differs from the previous step's; see docs/performance.md,
    "Mapping: the ``Tmll`` sweep".
    """
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    if tmll_step_s <= 0:
        raise ValueError("tmll_step_s must be positive")
    if sync_cost_s < 0:
        raise ValueError("sync_cost_s must be non-negative")

    edge_u, edge_v, _, latencies = graph.edge_list()
    finite = latencies[np.isfinite(latencies)]
    if tmll_max_s is None:
        tmll_max_s = float(finite.max()) if finite.size else 0.0

    sweep: list[SweepRecord] = []
    best_assignment: np.ndarray | None = None
    best_eval: PartitionEvaluation | None = None
    best_tmll = 0.0

    def consider(tmll: float, assignment: np.ndarray, coarse_vertices: int) -> None:
        nonlocal best_assignment, best_eval, best_tmll
        evaluation = evaluate_partition(graph, assignment, num_parts, sync_cost_s)
        sweep.append(
            SweepRecord(tmll_s=tmll, coarse_vertices=coarse_vertices, evaluation=evaluation)
        )
        if best_eval is None or evaluation.efficiency > best_eval.efficiency:
            best_assignment, best_eval, best_tmll = assignment, evaluation, tmll

    # Threshold 0: the flat partition baseline.
    flat = partitioner(
        graph, num_parts, seed=seed, imbalance_tolerance=imbalance_tolerance
    )
    consider(0.0, flat.assignment, graph.num_vertices)

    # "Loop through all reasonable Tmll."
    start = (int(np.floor(sync_cost_s / tmll_step_s)) + 1) * tmll_step_s
    tmll = start
    # The dumped graph changes only where the set of sub-threshold edges
    # grows, and then only if the new edges join two clusters: the other
    # steps pass without collapsing anything.
    prev_below = prev_coarse_vertices = -1
    while tmll <= tmll_max_s + 1e-12:
        dumped = latencies < tmll
        below = int(np.count_nonzero(dumped))
        if below != prev_below:
            prev_below = below
            labels = component_labels(graph.num_vertices, edge_u[dumped], edge_v[dumped])
            coarse_vertices = int(labels.max()) + 1 if labels.size else 0
            if coarse_vertices < min_coarse_factor * num_parts:
                break  # not enough parallelism left
            if coarse_vertices != prev_coarse_vertices:
                prev_coarse_vertices = coarse_vertices
                contraction = graph.contract(labels)
                result = partitioner(
                    contraction.coarse,
                    num_parts,
                    seed=seed,
                    imbalance_tolerance=imbalance_tolerance,
                )
                consider(tmll, contraction.project(result.assignment), coarse_vertices)
        tmll += tmll_step_s

    assert best_assignment is not None and best_eval is not None
    graph.validate_partition(best_assignment, num_parts)
    return HierarchicalResult(
        assignment=best_assignment,
        num_parts=num_parts,
        tmll_s=best_tmll,
        evaluation=best_eval,
        sweep=sweep,
    )
