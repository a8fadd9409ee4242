"""Figure 3: load variation over the lifetime of the simulation.

The paper's Figure 3 motivates profile-based balance: per-engine event
rates vary greatly over time and across engines. We regenerate the
series from the recorded single-AS run bucketed under the HPROF mapping
and verify the variation is real (the coefficient of variation across
time and engines is substantial).
"""

from __future__ import annotations

import numpy as np

from repro.core import Approach
from repro.experiments import build_network, default_scale, run_workload_simulation
from repro.profilers import node_rate_series
from repro.routing.fib import ForwardingPlane


def test_fig03_load_variation(benchmark, single_as_scalapack):
    result = single_as_scalapack
    mapping = result.row(Approach.HPROF).mapping

    # Re-run a short version of the workload to get a fresh trace (the
    # cached experiment does not retain its trace arrays).
    scale = default_scale()
    net = build_network("single-as", scale, seed=0)
    fib = ForwardingPlane(net)
    duration = min(scale.duration_s, 8.0)
    kernel, sim, _ = run_workload_simulation(net, fib, "scalapack", scale, duration, 0)
    times, nodes = kernel.trace()

    bin_s = duration / 16
    starts, rates = benchmark(
        node_rate_series,
        times,
        nodes,
        mapping.assignment,
        result.num_engines,
        bin_s,
        duration,
    )

    print("\nFigure 3: per-engine event rate over time (events/s)")
    print(f"{'t (s)':>7}" + "".join(f"lp{j:<2}{'':>4}" for j in range(min(6, rates.shape[1]))))
    for t, row in zip(starts, rates):
        cells = "".join(f"{v:>8.0f}" for v in row[:6])
        print(f"{t:>7.2f}{cells}")

    assert rates.shape == (16, result.num_engines)
    assert rates.sum() > 0
    # Load varies over time (aggregate CV visibly non-zero; the warm-up
    # ramp alone guarantees the first bins differ from steady state)...
    per_bin = rates.sum(axis=1)
    assert per_bin.std() / per_bin.mean() > 0.05
    assert per_bin.max() > 1.15 * per_bin.mean()
    # ...and much more across engines within a bin — the skew that load
    # balance has to fight (Figure 3's point).
    busiest = int(np.argmax(per_bin))
    row = rates[busiest]
    assert row.max() > 1.3 * row.mean()
