#!/usr/bin/env python
"""Quickstart: map a virtual network onto simulation engines with HPROF.

Generates a small single-AS network, profiles a web workload, runs the
hierarchical profile-based load balance (the paper's HPROF), and prints
the partition quality against the flat topology-based baseline.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import Approach, MappingPipeline, generate_flat_network
from repro.core import run_profiling_simulation
from repro.netsim.app import HttpTraffic
from repro.routing import ForwardingPlane
from repro.topology import pick_clients_and_servers


def main() -> None:
    # 1. A virtual network: 300 routers + 100 hosts on a continental plane.
    net = generate_flat_network(num_routers=300, num_hosts=100, seed=42)
    fib = ForwardingPlane(net)
    print(f"network: {net}")

    # 2. Profile a short run of background web traffic (the PROF bootstrap).
    rng = np.random.default_rng(0)
    clients, servers = pick_clients_and_servers(net, 60, 15, rng)

    def setup(sim, agent):
        HttpTraffic(sim, clients, servers, seed=1, mean_gap_s=0.5, stop_at=5.0).start()

    profile = run_profiling_simulation(net, fib, setup, duration_s=5.0)
    print(f"profiled {profile.total_events:.0f} events over {profile.duration_s:.0f}s")

    # 3. Map the network onto 12 simulation engines.
    pipeline = MappingPipeline(net, num_engines=12)
    print(f"cluster sync cost C(12) = {pipeline.sync_cost_s * 1e3:.3f} ms\n")

    for approach in (Approach.TOP, Approach.TOP2, Approach.HPROF):
        mapping = pipeline.run(approach, profile if approach.uses_profile else None)
        ev = mapping.evaluation
        print(
            f"{approach.value:<6} MLL={mapping.achieved_mll_ms:7.3f} ms  "
            f"Es={ev.es:.3f}  Ec={ev.ec:.3f}  E={ev.efficiency:.3f}  "
            f"predicted imbalance={ev.predicted_imbalance:.3f}"
        )

    print(
        "\nHPROF collapses sub-threshold-latency links before partitioning and "
        "sweeps the threshold,\nso it reaches a large MLL (cheap synchronization) "
        "without giving up load balance."
    )


if __name__ == "__main__":
    main()
