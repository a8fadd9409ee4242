"""METIS-like multilevel graph partitioning substrate.

The paper partitions the virtual network graph with METIS; this package
is a from-scratch reimplementation of that contract: balanced vertex
weights, minimized edge cut, fast enough to sweep thousands of candidate
thresholds (Section 3.4.3 of the paper).

Public API
----------
:class:`WeightedGraph`
    CSR weighted graph with per-edge link latency.
:func:`partition_kway`
    Multilevel k-way partitioner (heavy-edge matching, greedy growing,
    boundary FM, recursive bisection).
Baselines
    :func:`random_partition`, :func:`round_robin_partition`,
    :func:`bfs_block_partition`, :func:`greedy_k_cluster`,
    :func:`spectral_partition_kway`.
"""

from .baselines import (
    bfs_block_partition,
    greedy_k_cluster,
    random_partition,
    round_robin_partition,
)
from .geographic import coordinate_bisection
from .coarsen import CoarseningLevel, coarsen, coarsen_once, heavy_edge_matching
from .graph import GraphContraction, WeightedGraph
from .initial import best_bisection
from .kway import PartitionResult, extract_subgraph, multilevel_bisect, partition_kway
from .rebalance import (
    MigrationDecision,
    RebalanceConfig,
    Rebalancer,
    slowdown_spans,
    span_multipliers,
)
from .refine import balance_partition, fm_refine, kway_refine
from .spectral import spectral_bisect, spectral_partition_kway

__all__ = [
    "WeightedGraph",
    "GraphContraction",
    "PartitionResult",
    "partition_kway",
    "multilevel_bisect",
    "extract_subgraph",
    "coarsen",
    "coarsen_once",
    "heavy_edge_matching",
    "CoarseningLevel",
    "best_bisection",
    "fm_refine",
    "balance_partition",
    "kway_refine",
    "random_partition",
    "round_robin_partition",
    "bfs_block_partition",
    "greedy_k_cluster",
    "coordinate_bisection",
    "spectral_bisect",
    "spectral_partition_kway",
    "RebalanceConfig",
    "MigrationDecision",
    "Rebalancer",
    "slowdown_spans",
    "span_multipliers",
]
