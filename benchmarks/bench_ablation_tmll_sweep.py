"""Ablation 1: the Tmll sweep — the mechanism behind HPROF (§3.4.3).

Regenerates the E(Tmll) = Es(Tmll) * Ec(Tmll) curve on the single-AS
network and verifies the paper's two design arguments:

1. the argmax of E beats the flat partition (threshold 0), and
2. maximizing Es or Ec *alone* picks a worse partition than maximizing
   their product ("Maximizing Es and Ec separately does not work").
"""

from __future__ import annotations

import numpy as np

from repro.core import Approach, build_weighted_graph, hierarchical_partition
from repro.core.mapping import run_profiling_simulation
from repro.experiments import build_network, default_scale, install_workload
from repro.experiments.runner import cluster_for_scale
from repro.routing.fib import ForwardingPlane


def test_ablation_tmll_sweep(benchmark):
    scale = default_scale()
    net = build_network("single-as", scale, seed=0)
    fib = ForwardingPlane(net)

    def setup(sim, agent):
        install_workload(
            sim, agent, net, "scalapack", scale, 0, duration_s=scale.profile_duration_s
        )

    profile = run_profiling_simulation(net, fib, setup, scale.profile_duration_s)
    graph = build_weighted_graph(net, Approach.HPROF, profile)
    cluster = cluster_for_scale(scale)
    sync = cluster.sync_cost_s(scale.num_engines)

    result = benchmark.pedantic(
        hierarchical_partition,
        args=(graph, scale.num_engines),
        kwargs={"sync_cost_s": sync, "seed": 0},
        rounds=1,
        iterations=1,
    )

    print("\nAblation 1: E(Tmll) sweep (single-AS, HPROF weights)")
    print(f"{'Tmll (ms)':>10}{'coarse n':>10}{'Es':>8}{'Ec':>8}{'E':>8}{'MLL (ms)':>10}")
    for rec in result.sweep:
        e = rec.evaluation
        print(
            f"{rec.tmll_s * 1e3:>10.2f}{rec.coarse_vertices:>10}"
            f"{e.es:>8.3f}{e.ec:>8.3f}{e.efficiency:>8.3f}{e.mll_s * 1e3:>10.3f}"
        )
    print(f"chosen Tmll: {result.tmll_s * 1e3:.2f} ms -> E={result.evaluation.efficiency:.3f}")

    # (1) the argmax beats the flat baseline
    flat = result.sweep[0]
    assert flat.tmll_s == 0.0
    assert result.evaluation.efficiency >= flat.evaluation.efficiency

    # (2) product beats single-factor maximization
    by_es = max(result.sweep, key=lambda r: r.evaluation.es)
    by_ec = max(result.sweep, key=lambda r: r.evaluation.ec)
    assert result.evaluation.efficiency >= by_es.evaluation.efficiency - 1e-12
    assert result.evaluation.efficiency >= by_ec.evaluation.efficiency - 1e-12
    # The sweep must actually explore a range of thresholds.
    assert len(result.sweep) >= 3
    # Es grows with the threshold while Ec degrades toward the tail —
    # the tradeoff the product balances.
    es_vals = [r.evaluation.es for r in result.sweep if r.tmll_s > 0]
    assert es_vals[-1] >= es_vals[0]
