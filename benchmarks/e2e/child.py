"""One repetition of one workload, in a fresh interpreter.

``run.py`` launches this file once per repetition so that nothing
process-wide (``WrapSocket`` listeners, flow-id counters, the obs
registry, peak RSS) leaks from one repetition into the next. The last
line of standard output is one JSON document; ``run.py`` reads it.

A repetition sets the workload up once and then passes over it again and
again for ``--seconds``: identical work, identical outputs (checked),
cut into the same steps. What it reports is the floor — every step at
its fastest reading, summed — because on a shared host interference
only ever adds time, and it comes in bursts much shorter than a pass
(``tracing.floor_of_passes``).

A traced repetition (``--trace``) is never used for end-to-end numbers:
one warm-up pass, then one pass under ``cProfile`` (single-process
workloads) or with the repo's own obs registry and tracer turned on from
outside (``mp-*``), then the pipe and codec probes.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import sys
import time

RESULT_MARK = "E2E-CHILD-RESULT "
#: fewest passes a floor is taken over
MIN_PASSES = 3
#: the step that holds a pass's time between its stages
GLUE = "glue"

#: modules whose traced self time is published as ``<module>.self_s``;
#: every other module's self time is summed into ``other.self_s``
SELF_TIME_MODULES = (
    "routing.fib", "routing.ospf",
    "netsim.simulator", "netsim.link", "netsim.tcp", "netsim.app", "online",
    "engine.kernel", "engine.calqueue", "engine.events", "engine.costmodel",
    "core.hierarchical", "core.evaluate", "core.weights",
    "partition.coarsen", "partition.initial", "partition.refine",
    "partition.kway", "partition.graph",
)
CALL_COUNTS = {
    "routing.fib.next_hop_calls": ("routing.fib", "next_hop"),
    "netsim.link.transmit_calls": ("netsim.link", "transmit"),
}


def profile_layers(profile: cProfile.Profile) -> dict[str, float]:
    """Self seconds per published module, and exact call counts."""
    import repro
    from tracing import OTHER, attribute_profile

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    self_s, calls = attribute_profile(pstats.Stats(profile).stats, package_dir)
    layers = {f"{m}.self_s": self_s.pop(m, 0.0) for m in SELF_TIME_MODULES}
    layers[f"{OTHER}.self_s"] = sum(self_s.values())
    for name, (module, function) in CALL_COUNTS.items():
        layers[name] = calls.get(module, {}).get(function, 0)
    return layers


def one_pass(run, state: dict, profile: cProfile.Profile | None = None) -> dict:
    """Run the workload once: its steps (with the time between stages as a
    last ``glue`` step), its wall, its spans and what it returned."""
    from tracing import Recorder, cpu_seconds

    rec = Recorder()
    gc.collect()
    cpu0 = cpu_seconds()
    if profile is not None:
        profile.enable()
    try:
        with rec.span("run", stage=False):
            outcome = run(state, rec)
    finally:
        if profile is not None:
            profile.disable()
    cpu_s = cpu_seconds() - cpu0
    wall_s = rec.spans[0]["end_s"] - rec.spans[0]["start_s"]
    glue = (GLUE, wall_s - sum(s[1] for s in rec.steps), cpu_s - sum(s[2] for s in rec.steps))
    return {"steps": rec.steps + [glue], "wall_s": wall_s, "spans": rec.spans, "outcome": outcome}


def measure(run, state: dict, seconds: float) -> dict:
    """Repeat the pass for ``seconds`` (at least ``MIN_PASSES`` times) and
    take the floor step by step."""
    from tracing import floor_of_passes

    passes = [one_pass(run, state)]
    spent_s = passes[0]["wall_s"]
    # stop where one more pass would overshoot by more than it falls short now
    while len(passes) < MIN_PASSES or spent_s + spent_s / len(passes) / 2.0 < seconds:
        passes.append(one_pass(run, state))
        spent_s += passes[-1]["wall_s"]
    return {"passes": passes, "floor": floor_of_passes([p["steps"] for p in passes])}


def summarise(steps: list[tuple[str, float, float]], outcomes: list[dict]) -> dict:
    """Totals, stage walls and layer values from the floor's steps (or one
    traced pass's), and the layer values the passes returned."""
    stage_s: dict[str, float] = {}
    for stage, wall, _cpu in steps:
        stage_s[stage] = stage_s.get(stage, 0.0) + wall
    run_wall_s = sum(stage_s.values())
    # counts repeat exactly; what does not (waiting shares, peak RSS) is a median
    layers = {
        name: value if all(o["layers"][name] == value for o in outcomes)
        else statistics.median(o["layers"][name] for o in outcomes)
        for name, value in outcomes[0]["layers"].items()
    }
    layers["stages_sum_share"] = 1.0 - stage_s.pop(GLUE) / run_wall_s
    layers.update({f"{stage}_s": wall for stage, wall in stage_s.items()})
    if "netsim.simulate" in stage_s:
        # the paper's simulator speed: events of the measured run per
        # host second of the simulate stage alone
        layers["netsim.events_per_s"] = layers["engine.kernel.events"] / stage_s["netsim.simulate"]
    return {"run_wall_s": run_wall_s, "cpu_s": sum(cpu for _, _, cpu in steps), "layers": layers}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="repeat the pass until the passes sum to this")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--setup-only", action="store_true",
        help="stop where the first pass would start: one more set-up sample",
    )
    parser.add_argument(
        "--extras", action="store_true",
        help="after the timed passes, run what only per-layer ratios need "
        "(workloads.EXTRAS: the reference pass, the plain pass of a "
        "checkpointed spec, MappingPipeline.run(HTOP))",
    )
    parser.add_argument(
        "--verify-reference", action="store_true",
        help="mp-*: run the single-process reference after the timed passes "
        "(for seeds with no committed fingerprint)",
    )
    args = parser.parse_args()

    import workloads

    mp = args.workload.startswith("mp-")
    run = workloads.RUN[args.workload]
    state = workloads.SETUP[args.workload](args.seed, args.smoke)

    region_start_epoch_s = time.time()
    if args.setup_only:
        document = {
            "workload": args.workload, "setup_only": True,
            "region_start_epoch_s": region_start_epoch_s,
        }
        print(RESULT_MARK + json.dumps(document), flush=True)
        return 0

    checks: dict[str, bool] = {}
    trace_problems: list[str] = []
    if args.trace:
        # one pass to fill caches, then the traced one; no floor
        one_pass(run, state)
        profile = None if mp else cProfile.Profile()
        state["observe"] = mp
        passes = [one_pass(run, state, profile)]
        steps = passes[0]["steps"]
    else:
        measured = measure(run, state, args.seconds)
        passes, steps = measured["passes"], measured["floor"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = [p["outcome"] for p in passes]
    outcome = outcomes[0]
    summary = summarise(steps, outcomes)
    layers = summary["layers"]
    checks["every pass has the first pass's outputs"] = all(
        o["fingerprint"] == outcome["fingerprint"] for o in outcomes
    )

    if mp:
        checks["lookahead_violations == 0"] = outcome["fingerprint"]["lookahead_violations"] == 0
    after = workloads.EXTRAS if args.extras else workloads.VERIFY if args.verify_reference else {}
    if args.workload in after:
        state["observe"] = False

        def measure_too(other_run) -> tuple[float, dict]:
            again = measure(other_run, state, args.seconds / 2.0)
            return sum(s[1] for s in again["floor"]), again["passes"][0]["outcome"]

        more_layers, more_checks = after[args.workload](
            state, outcome, summary["run_wall_s"], measure_too
        )
        layers.update(more_layers)
        checks.update(more_checks)
    if args.trace:
        if mp:
            import probes

            traced_wall_s = layers["engine.parallel.run_scenario_s"]
            measured_layers, trace_problems = workloads.measured_window_layers(
                outcome["result"], traced_wall_s
            )
            layers.update(measured_layers)
            layers["engine.parallel.pipe_rtt_us"] = probes.pipe_rtt_us()
            layers.update(probes.mail_codec(args.seed))
        else:
            layers.update(profile_layers(profile))

    document = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "traced": args.trace,
        "region_start_epoch_s": region_start_epoch_s,
        "mp": {"procs": workloads.MP_PROCS, "start_method": workloads.MP_START_METHOD},
        "passes": len(passes),
        "steps": len(steps),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "run_wall_s": summary["run_wall_s"],
        "cpu_s": summary["cpu_s"],
        "peak_rss_mb": peak_rss_mb,
        "work": outcome["work"],
        "layers": layers,
        "fingerprint": outcome["fingerprint"],
        "checks": checks,
        "trace_problems": trace_problems,
        "spans": passes[0]["spans"] if args.trace else [],
    }
    print(RESULT_MARK + json.dumps(document, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
