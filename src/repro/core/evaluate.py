"""Partition evaluation: the efficiency metric ``E = Es * Ec``.

Section 3.4.3: candidate partitions are scored *without running the
simulation* by combining

- ``Es = (MLL - C_N) / MLL`` — synchronization efficiency given the
  partition's achieved MLL and the cluster's barrier cost for N engines,
- ``Ec = C_average / C_max`` — computational load balance over the
  estimated per-engine loads (vertex-weight sums).

Maximizing either alone fails: Es wants few giant clusters (large MLL,
no parallelism), Ec wants free rein to balance (tiny MLL). Their product
is the paper's tradeoff knob.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..partition.graph import WeightedGraph

__all__ = ["PartitionEvaluation", "evaluate_partition", "sync_efficiency", "balance_efficiency"]


def sync_efficiency(mll_s: float, sync_cost_s: float) -> float:
    """``Es = (MLL - C_N)/MLL``, clamped to [0, 1].

    ``MLL == inf`` (nothing cut) is perfect decoupling -> 1. MLL at or
    below the barrier cost means all time is synchronization -> 0.
    """
    if mll_s <= 0:
        raise ValueError("MLL must be positive")
    if np.isinf(mll_s):
        return 1.0
    return max(0.0, (mll_s - sync_cost_s) / mll_s)


def balance_efficiency(part_weights: np.ndarray) -> float:
    """``Ec = C_average / C_max`` over estimated per-engine loads."""
    w = np.asarray(part_weights, dtype=np.float64)
    if w.size == 0:
        raise ValueError("need at least one partition")
    cmax = w.max()
    if cmax <= 0:
        return 1.0
    return float(w.mean() / cmax)


@dataclass(frozen=True)
class PartitionEvaluation:
    """Scores of one candidate partition."""

    mll_s: float
    es: float
    ec: float
    efficiency: float
    #: normalized std-dev of estimated per-engine load (paper's imbalance)
    predicted_imbalance: float
    part_weights: np.ndarray
    edge_cut: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"E={self.efficiency:.3f} (Es={self.es:.3f}, Ec={self.ec:.3f}), "
            f"MLL={self.mll_s * 1e3:.3f}ms, imbalance={self.predicted_imbalance:.3f}"
        )


def evaluate_partition(
    graph: WeightedGraph,
    assignment: np.ndarray,
    num_parts: int,
    sync_cost_s: float,
) -> PartitionEvaluation:
    """Score a partition of the weighted network graph.

    ``graph.vwgt`` must hold the load estimates (TOP bandwidth or PROF
    event counts) — Ec and the predicted imbalance derive from them;
    the achieved MLL comes from the cut edges' latencies.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    weights = graph.partition_weights(assignment, num_parts)
    edge_cut, mll = graph.cut_summary(assignment)
    es = sync_efficiency(mll, sync_cost_s)
    ec = balance_efficiency(weights)
    mean = weights.mean()
    imbalance = float(weights.std() / mean) if mean > 0 else 0.0
    return PartitionEvaluation(
        mll_s=mll,
        es=es,
        ec=ec,
        efficiency=es * ec,
        predicted_imbalance=imbalance,
        part_weights=weights,
        edge_cut=edge_cut,
    )
