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

A candidate whose balance cap cannot beat the best ``E`` so far is
recorded without being partitioned; its record partitions it when first
read (see :func:`hierarchical_partition`, Notes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from ..partition.graph import Components, WeightedGraph, component_labels, sum_by_index
from ..partition.kway import partition_kway
from .evaluate import PartitionEvaluation, evaluate_partition

__all__ = ["SweepRecord", "HierarchicalResult", "hierarchical_partition", "DEFAULT_TMLL_STEP_S"]

#: Sweep granularity from the paper's experiments (0.1 ms).
DEFAULT_TMLL_STEP_S = 0.1e-3


#: Relative slack on a candidate's balance cap: the cap divides the total
#: weight by ``num_parts`` where ``Ec`` takes the mean of the part weights,
#: and the two roundings may differ.
CAP_MARGIN = 1e-9


class SweepRecord:
    """One candidate threshold of the sweep.

    Built with its ``evaluation``, or with ``deferred``, which computes it:
    a candidate the sweep did not partition partitions when its
    ``evaluation`` is first read, and keeps the result.
    """

    __slots__ = ("tmll_s", "coarse_vertices", "_evaluation", "_deferred")

    def __init__(
        self,
        tmll_s: float,
        coarse_vertices: int,
        evaluation: PartitionEvaluation | None = None,
        deferred: Callable[[], PartitionEvaluation] | None = None,
    ) -> None:
        if (evaluation is None) == (deferred is None):
            raise TypeError("give either an evaluation or a deferred one")
        self.tmll_s = tmll_s
        self.coarse_vertices = coarse_vertices
        self._evaluation = evaluation
        self._deferred = deferred

    @property
    def evaluation(self) -> PartitionEvaluation:
        """The candidate's scores, computed on the first read if deferred."""
        if self._evaluation is None:
            assert self._deferred is not None
            self._evaluation, self._deferred = self._deferred(), None
        return self._evaluation


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
    seed:
        Integer seed, handed unchanged to every partitioner call; a
        ``np.random.Generator`` is refused (``TypeError``).
    partitioner:
        Any callable with :func:`repro.partition.partition_kway`'s
        signature, letting tests substitute baselines. It must be
        deterministic for an integer seed: it may also be called after the
        sweep returns, when a capped record is first read.

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
    so it is left to the change that re-records them (ROADMAP item
    6(ii)). A candidate is partitioned only at steps where the dumped
    graph differs from the previous step's; see docs/performance.md,
    "Mapping: the ``Tmll`` sweep".

    The dumped graph only gains edges as ``Tmll`` rises, so its clusters
    grow in one :class:`~repro.partition.graph.Components` over the edges
    sorted by latency: each step unions only the edges that newly fall
    below ``Tmll``, and the clusters are labelled only at steps where
    their count falls. See docs/performance.md, "Fourth pass: components
    in one pass".

    A candidate's ``E = Es * Ec`` is at most its balance cap, ``C_avg``
    over the weight of its heaviest collapsed cluster, since the part
    holding that cluster weighs at least as much and ``Es <= 1``. A
    candidate whose cap, times ``1 + CAP_MARGIN``, does not exceed the best
    ``E`` so far cannot be chosen, so it is recorded without being
    partitioned: its record dumps the graph again and partitions it, with
    the same partitioner and seed, when its ``evaluation`` is first read.
    Clusters only merge as ``Tmll`` grows, so caps never rise and the
    capped records are the sweep's tail; reading the sweep in order hands
    the partitioner the same graphs in the same order as partitioning every
    candidate would. See docs/performance.md, "Third pass: stop at the
    cap".
    """
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    if tmll_step_s <= 0:
        raise ValueError("tmll_step_s must be positive")
    if sync_cost_s < 0:
        raise ValueError("sync_cost_s must be non-negative")
    if not isinstance(seed, (int, np.integer)):
        # A shared generator would make each candidate's partition depend
        # on which candidates were partitioned, and read, before it.
        raise TypeError(f"seed must be an integer, not {type(seed).__name__}")

    edge_u, edge_v, _, latencies = graph.edge_list()
    # Sorted once: the edges below a threshold are a prefix of this order.
    order = np.argsort(latencies, kind="stable")
    edge_u, edge_v, latencies = edge_u[order], edge_v[order], latencies[order]
    finite = latencies[np.isfinite(latencies)]
    if tmll_max_s is None:
        tmll_max_s = float(finite[-1]) if finite.size else 0.0
    mean_part_weight = float(graph.vwgt.sum()) / num_parts

    sweep: list[SweepRecord] = []
    best_assignment: np.ndarray | None = None
    best_eval: PartitionEvaluation | None = None
    best_tmll = 0.0

    def partition(target: WeightedGraph) -> np.ndarray:
        return partitioner(
            target, num_parts, seed=seed, imbalance_tolerance=imbalance_tolerance
        ).assignment

    def partition_collapsed(labels: np.ndarray) -> np.ndarray:
        contraction = graph.contract(labels)
        return contraction.project(partition(contraction.coarse))

    def evaluate_below(below: int) -> PartitionEvaluation:
        """A capped candidate, dumped and partitioned again on first read."""
        labels = component_labels(graph.num_vertices, edge_u[:below], edge_v[:below])
        return evaluate_partition(graph, partition_collapsed(labels), num_parts, sync_cost_s)

    def consider(tmll: float, assignment: np.ndarray, coarse_vertices: int) -> None:
        nonlocal best_assignment, best_eval, best_tmll
        evaluation = evaluate_partition(graph, assignment, num_parts, sync_cost_s)
        sweep.append(
            SweepRecord(tmll_s=tmll, coarse_vertices=coarse_vertices, evaluation=evaluation)
        )
        if best_eval is None or evaluation.efficiency > best_eval.efficiency:
            best_assignment, best_eval, best_tmll = assignment, evaluation, tmll

    # Threshold 0: the flat partition baseline.
    consider(0.0, partition(graph), graph.num_vertices)

    # "Loop through all reasonable Tmll."
    start = (int(np.floor(sync_cost_s / tmll_step_s)) + 1) * tmll_step_s
    tmll = start
    # The dumped graph changes only where the set of sub-threshold edges
    # grows, and then only if the new edges join two clusters: the other
    # steps pass without collapsing anything. The clusters grow in one
    # union-find, each edge joined once, and are labelled only when their
    # count falls.
    clusters = Components(graph.num_vertices)
    prev_below = 0
    prev_coarse_vertices = -1
    while tmll <= tmll_max_s + 1e-12:
        below = int(np.searchsorted(latencies, tmll))  # edges with latency < tmll
        if below != prev_below:
            clusters.union(edge_u[prev_below:below], edge_v[prev_below:below])
            prev_below = below
        coarse_vertices = clusters.count
        if coarse_vertices < min_coarse_factor * num_parts:
            break  # not enough parallelism left
        if coarse_vertices != prev_coarse_vertices:
            prev_coarse_vertices = coarse_vertices
            labels = clusters.labels()
            # Ec <= C_avg / w(heaviest cluster): the part holding that
            # cluster weighs at least as much, and Es <= 1.
            heaviest = sum_by_index(labels, graph.vwgt, coarse_vertices).max()
            cap = mean_part_weight / heaviest if heaviest > 0 else np.inf
            assert best_eval is not None
            if cap * (1 + CAP_MARGIN) > best_eval.efficiency:
                consider(tmll, partition_collapsed(labels), coarse_vertices)
            else:
                sweep.append(
                    SweepRecord(tmll, coarse_vertices, deferred=partial(evaluate_below, below))
                )
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
