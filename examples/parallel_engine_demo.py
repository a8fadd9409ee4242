#!/usr/bin/env python
"""Run a workload on the conservative *parallel* engine, end to end.

The figure pipeline models parallel execution from a sequential trace;
this example runs the real thing: per-LP event queues, cross-LP
mailboxes, and barrier windows of one achieved-MLL, with live traffic
admitted at barriers through the Agent. It then compares the wall-clock
the cost model predicts from the engine's *measured* window counters
against the trace-based prediction the figure pipeline would have made.

Run:  python examples/parallel_engine_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.core import Approach, MappingPipeline
from repro.experiments import ExperimentScale, build_network
from repro.experiments.parallel import predict_from_windows, run_parallel_workload
from repro.experiments.runner import cluster_for_scale
from repro.metrics import load_imbalance

SCALE = ExperimentScale(
    name="demo",
    flat_routers=150,
    flat_hosts=60,
    num_ases=6,
    routers_per_as=12,
    multi_hosts=40,
    http_clients=30,
    http_servers=8,
    http_mean_gap_s=0.4,
    num_engines=6,
    app_processes=4,
    scalapack_iterations=3,
    duration_s=14.0,
    profile_duration_s=3.0,
    event_cost_s=75e-6,
    remote_event_cost_s=190e-6,
)


def main() -> None:
    net, fib = build_network("single-as", SCALE, seed=3)
    cluster = cluster_for_scale(SCALE)
    pipeline = MappingPipeline(net, SCALE.num_engines, cluster, seed=0)
    mapping = pipeline.run(Approach.HTOP)
    print(f"network: {net}")
    print(f"HTOP mapping: {SCALE.num_engines} LPs, "
          f"achieved MLL {mapping.achieved_mll_ms:.3f} ms")

    engine, sim, handles = run_parallel_workload(
        net, fib, "scalapack", SCALE, mapping, duration_s=SCALE.duration_s, seed=3
    )

    print(f"\nparallel run: {engine.events_executed} events over "
          f"{len(engine.window_stats)} synchronization windows")
    print(f"lookahead violations: {engine.lookahead_violations} (strict mode)")
    per_lp = sum(ws.events_per_lp for ws in engine.window_stats)
    print(f"events per LP: {per_lp.tolist()}")
    print(f"cross-LP sends: {sum(ws.remote_sends_per_lp.sum() for ws in engine.window_stats)}")
    print(f"measured load imbalance: {load_imbalance(per_lp.astype(float)):.3f}")
    print(f"HTTP responses completed: {handles.http.stats.responses_completed}; "
          f"app finished: {handles.apps_finished}")

    pred = predict_from_windows(engine.window_stats, engine.num_lps, cluster)
    print(f"\ncost model on measured windows: T = {pred.total_s:.2f}s "
          f"(compute {pred.compute_s:.2f}s + sync {pred.sync_s:.2f}s, "
          f"{pred.sync_fraction * 100:.0f}% synchronization)")

    # The busiest few windows, for a feel of the max-per-window rule.
    busiest = sorted(
        engine.window_stats, key=lambda ws: ws.events_per_lp.max(), reverse=True
    )[:5]
    print("\nbusiest windows (start time: events per LP):")
    for ws in busiest:
        print(f"  t={ws.start * 1e3:8.1f} ms: {ws.events_per_lp.tolist()}")


if __name__ == "__main__":
    main()
