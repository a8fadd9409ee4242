"""Ablation 2: the multilevel partitioner vs simpler baselines.

The hierarchical scheme assumes a partitioner with METIS's contract
(balanced weights, small cut, fast). This ablation compares our
multilevel k-way against random, round-robin, BFS blocks, ModelNet's
greedy k-cluster, and spectral bisection on the experiment network graph,
and times the multilevel partitioner (the paper's feasibility argument:
"METIS can partition a graph with 10,000 vertexes in about 10 seconds").
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import Approach, build_weighted_graph
from repro.experiments import build_network, default_scale
from repro.partition import (
    bfs_block_partition,
    coordinate_bisection,
    greedy_k_cluster,
    partition_kway,
    random_partition,
    round_robin_partition,
    spectral_partition_kway,
)

BASELINES = {
    "random": lambda g, k, pos: random_partition(g, k, seed=0),
    "round-robin": lambda g, k, pos: round_robin_partition(g, k),
    "bfs-blocks": lambda g, k, pos: bfs_block_partition(g, k, seed=0),
    "greedy-k-cluster": lambda g, k, pos: greedy_k_cluster(g, k, seed=0),
    "geographic": lambda g, k, pos: coordinate_bisection(g, pos, k),
    "spectral": lambda g, k, pos: spectral_partition_kway(g, k, seed=0),
    "multilevel": lambda g, k, pos: partition_kway(g, k, seed=0),
}


def test_ablation_partitioner_quality(benchmark):
    scale = default_scale()
    net = build_network("single-as", scale, seed=0)
    graph = build_weighted_graph(net, Approach.TOP)
    positions = np.array([n.position for n in net.nodes])
    k = scale.num_engines

    rows = {}
    for name, fn in BASELINES.items():
        t0 = time.perf_counter()
        res = fn(graph, k, positions)
        rows[name] = (res.edge_cut, res.balance, time.perf_counter() - t0)

    benchmark(partition_kway, graph, k, 0)

    print("\nAblation 2: partitioner comparison "
          f"(n={graph.num_vertices}, m={graph.num_edges}, k={k})")
    print(f"{'partitioner':<18}{'edge cut':>14}{'balance':>10}{'time (s)':>10}")
    for name, (cut, bal, dt) in rows.items():
        print(f"{name:<18}{cut:>14.1f}{bal:>10.3f}{dt:>10.3f}")

    ml_cut, ml_bal, _ = rows["multilevel"]
    assert ml_cut < rows["random"][0], "multilevel beats random on cut"
    assert ml_cut < rows["round-robin"][0]
    assert ml_bal < 1.6, "multilevel stays balanced"
    # The best cut among all candidates belongs to multilevel or spectral
    # (the two that optimize the cut objective).
    best = min(cut for cut, _, _ in rows.values())
    assert ml_cut <= best * 1.5
