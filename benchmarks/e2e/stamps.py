"""The UDP scenario builder of the ``mp-*`` workloads: the repo's own,
plus a note of when each barrier window ended.

``ParallelConservativeEngine.run_scenario`` is one call that returns
minutes of host noise later; from outside it cannot be cut into steps.
The one thing the backend does let a caller put inside a worker is the
scenario builder (``ScenarioSpec.builder``), so this one wraps the
shard engine's public ``run_window`` in a stopwatch: two clock readings
per window, no event added, nothing simulated changed. The readings
come back with the shard's collected results. If a later engine stops
calling ``run_window`` once per window the stamps no longer match the
windows and the harness falls back to timing the call as a whole.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.engine.parallel import ScenarioSpec, ShardScenario
from repro.experiments.shard import build_udp_scenario

BUILDER = "stamps:build_udp_stamped"
WALL_KEY = "window_end_wall_s"
CPU_KEY = "window_end_cpu_s"


def stamped(spec: ScenarioSpec) -> ScenarioSpec:
    """The same scenario, built by :func:`build_udp_stamped`."""
    return replace(spec, builder=BUILDER)


def build_udp_stamped(engine, params: dict) -> ShardScenario:
    scenario = build_udp_scenario(engine, params)
    run_window = getattr(engine, "run_window", None)
    if run_window is None or scenario.collect is None:
        return scenario  # the single-process reference engine has no windows
    wall_s: list[float] = []
    cpu_s: list[float] = []

    def run_window_stamped(window_index: int, window_end: float) -> int:
        executed = run_window(window_index, window_end)
        wall_s.append(time.perf_counter())
        cpu_s.append(time.process_time())
        return executed

    def collect_with_stamps():
        collected = scenario.collect()
        collected[WALL_KEY] = wall_s
        collected[CPU_KEY] = cpu_s
        return collected

    engine.run_window = run_window_stamped
    return replace(scenario, collect=collect_with_stamps)
