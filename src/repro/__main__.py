"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro experiment single-as scalapack [--scale small] [--seed 0]
    python -m repro figures [--scale small] [--seed 0]
    python -m repro sweep [--scale small] [--network single-as]
    python -m repro trace single-as scalapack --out trace.json
    python -m repro trace --timeline --out timeline.json
    python -m repro synccost
    python -m repro lint src/repro [--format json] [--strict]
    python -m repro chaos multi-as scalapack --scenario chaos-mixed [--seed 0]
    python -m repro chaos single-as scalapack --kill-workers 2 --procs 2

``figures`` runs all four (network, application) experiments and prints
the paper's Figures 6-13 tables; ``sweep`` prints the Tmll sweep behind
HPROF (ablation 1); ``trace`` runs a scenario under the observability
registry, bridges the measurements into a :class:`TrafficProfile`, maps
the network with a profile-based approach, and writes the instrument
snapshot (with ``--timeline`` it instead replays the scenario on the
parallel engine under the structured tracer and prints straggler blame,
the critical path, and what-if mapping scores alongside a Chrome trace
JSON); ``synccost`` prints the Figure 5 model; ``lint`` runs the
simlint static analysis (:mod:`repro.analysis`); ``chaos`` runs a seeded
fault scenario (:mod:`repro.faults`), prints the convergence/recovery
report, and exits 1 when the network failed to heal within the run
horizon.
"""

from __future__ import annotations

import argparse
import sys


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        default=None,
        choices=["small", "medium", "large", "paper"],
        help="experiment scale (default: $REPRO_SCALE or 'small')",
    )
    parser.add_argument("--seed", type=int, default=0)


def _positive_int(text: str) -> int:
    """An argparse ``type`` for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """An argparse ``type`` for lengths of simulated time: finite and > 0."""
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    """An argparse ``type`` for counts that may be 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _resolve_scale(args):
    from .experiments import SCALES, default_scale

    return SCALES[args.scale] if args.scale else default_scale()


def _default_trace_capacity() -> int:
    from .obs.trace import DEFAULT_TRACE_CAPACITY

    return DEFAULT_TRACE_CAPACITY


def cmd_experiment(args) -> int:
    from .experiments import format_bars, format_result, run_experiment

    scale = _resolve_scale(args)
    if args.backend == "mp":
        return _cmd_experiment_mp(args, scale)
    kwargs = {"obs_out": args.obs_out} if args.obs_out else {}
    result = run_experiment(args.network, args.app, scale=scale, seed=args.seed, **kwargs)
    print(format_result(result))
    if args.bars:
        for metric in ("sim_time_s", "achieved_mll_ms", "load_imbalance",
                       "parallel_efficiency"):
            print()
            print(format_bars(result, metric))
    if args.save:
        from .serialization import save_result

        save_result(result, args.save)
        print(f"\nsaved to {args.save}")
    return 0


def _cmd_experiment_mp(args, scale) -> int:
    """The ``--backend mp`` path: really execute across worker processes.

    Only the packet-mediated UDP background workload shards (the online
    application layer schedules closures — see
    ``repro/experiments/shard.py``), so this path partitions the network
    with the TOP approach, executes the seeded UDP workload on the
    multi-process backend, and prints measured wall-clock next to the
    cost model's prediction over the same window counters.

    With ``--obs-out`` the run executes under both the registry and the
    tracer: every worker ships its registry and tracer back on the
    control plane, and the merged, shard-labeled snapshot — with the
    measured per-window worker spans and the measured-vs-modeled
    calibration table — is written as one JSON document
    (:func:`repro.obs.distributed.merged_snapshot_document`).

    The run checks itself against its 1-process reference: the command
    prints the delivery-log verdict and exits 1 when the multi-process
    output diverged or a worker loss went unrecovered, as ``chaos`` does.
    """
    import json
    from contextlib import nullcontext
    from pathlib import Path

    from .experiments.parallel import run_executed_workload, top_mapping
    from .experiments.runner import build_network, cluster_for_scale
    from .obs import blame, observed_run, traced_run
    from .obs.distributed import merged_snapshot_document

    net = build_network(args.network, scale, args.seed)
    cluster = cluster_for_scale(scale)
    mapping = top_mapping(net, scale, args.seed)
    recovery = None
    if args.checkpoint_every is not None:
        from .engine.recovery import RecoveryConfig

        recovery = RecoveryConfig(
            checkpoint_every_n_windows=args.checkpoint_every,
            max_respawns=args.max_respawns,
            on_worker_loss=args.on_worker_loss,
        )
    rebalance = None
    if getattr(args, "rebalance", False):
        from .partition.rebalance import RebalanceConfig

        rebalance = RebalanceConfig(
            threshold=args.rebalance_threshold,
            patience=args.rebalance_patience,
            cooldown=args.rebalance_cooldown,
            max_migrations=args.rebalance_max_moves,
            cluster=cluster,
        )

    observe = bool(args.obs_out)
    with observed_run() if observe else nullcontext(), \
            traced_run() if observe else nullcontext():
        run = run_executed_workload(
            net, mapping, scale.profile_duration_s, scale,
            seed=args.seed, procs=args.procs, rebalance=rebalance, recovery=recovery,
        )
    if run.error is not None:
        print(f"executed multi-process run FAILED: {run.error}")
        return 1
    if observe:
        out = Path(args.obs_out)
        if out.is_dir():
            out = out / "obs_mp_snapshot.json"
        doc = merged_snapshot_document(
            run.merged_registry,
            run.merged_trace,
            meta={
                "network": args.network,
                "app": "udp-background",
                "scale": scale.name,
                "seed": args.seed,
                "backend": "mp",
                "executed": run.summary(),
            },
            calibration=run.calibration,
            shards=list(run.result.worker_registries),
        )
        out.write_text(json.dumps(doc, indent=2))

    s = run.summary()
    print(f"executed multi-process run: {args.network} / udp-background "
          f"(TOP mapping, {scale.num_engines} LPs, {run.procs} procs)")
    print(f"  events executed    {s['events_executed']:>12,} "
          f"(reference {run.reference_events:,})")
    print(f"  reference wall     {s['reference_wall_s']:>12.3f} s  (1 process)")
    print(f"  measured wall      {s['measured_wall_s']:>12.3f} s  "
          f"speedup {s['measured_speedup']:.2f}x")
    print(f"  predicted wall     {s['predicted_wall_s']:>12.3f} s  "
          f"speedup {s['predicted_speedup']:.2f}x "
          f"(sync fraction {s['predicted_sync_fraction']:.2f})")
    print(f"  cross-shard mail   {s['mail_bytes']:>12,} bytes over "
          f"{s['num_windows']} windows")
    identical = run.byte_identical and run.counters_match
    print("  delivery log       " + ("byte-identical to the 1-process reference"
                                     if identical else "DIVERGED from the reference"))
    if recovery is not None and run.result.recovery is not None:
        r = run.result.recovery
        print(f"  checkpoints        {r['checkpoints_taken']:>12} "
              f"({r['checkpoint_bytes']:,} control-plane bytes, "
              f"cadence {recovery.checkpoint_every_n_windows} windows, "
              f"committed window {r['committed_window']})")
        if r["detections"]:
            print(f"  recovery           {r['detections']:>12} detection(s), "
                  f"{r['respawns']} respawn(s), {r['windows_replayed']} "
                  f"window(s) replayed, {r['adoptions']} adoption(s)")
    if rebalance is not None:
        moves = run.result.migrations
        print(f"  rebalance          {len(moves):>12} migration(s)")
        for d in moves:
            print(f"    window {d.window_index}: LP {d.lp} shard "
                  f"{d.src_shard} -> {d.dst_shard} "
                  f"(concentration {d.concentration:.2f}, "
                  f"predicted gain {d.predicted_gain_s * 1e3:.3f} ms)")
    if observe:
        print()
        print("measured per-shard wall decomposition:")
        print(blame.format_blame_table(blame.analyze(
            run.result.window_stats, run.merged_trace, num_units=run.procs
        )))
        _print_wait_percentiles([m.barrier_wait_s * 1e3 for m in run.merged_trace.measured])
        if run.calibration and run.calibration["worst_window"] is not None:
            worst = run.calibration["worst_window"]
            print(f"calibration: measured/predicted wall ratio "
                  f"{run.calibration['overall_ratio']:.2f} over "
                  f"{len(run.calibration['windows'])} windows; worst window "
                  f"{worst['window']} (measured {worst['measured_s'] * 1e3:.3f} ms, "
                  f"predicted {worst['predicted_s'] * 1e3:.3f} ms)")
        print(f"\nmerged observability snapshot written to {out}")
    return 0 if identical else 1


def _print_wait_percentiles(wait_ms) -> None:
    """The barrier-wait line: exact percentiles of the waits, in ms."""
    import numpy as np

    if len(wait_ms):
        p50, p95, p99 = np.percentile(wait_ms, (50, 95, 99))
        print(f"barrier wait per window: p50 {p50:.4f} ms, p95 {p95:.4f} ms, "
              f"p99 {p99:.4f} ms")


def cmd_figures(args) -> int:
    from .experiments import FIGURE_APPROACHES, run_experiment
    from .experiments.claims import FIGURE_EXPERIMENTS
    from .experiments.report import format_figures

    scale = _resolve_scale(args)
    results = [run_experiment(kind, app, FIGURE_APPROACHES, scale, args.seed)
               for kind, app in FIGURE_EXPERIMENTS]
    for kind in ("single-as", "multi-as"):
        print(format_figures([r for r in results if r.network_kind == kind]) + "\n")
    return 0


def cmd_sweep(args) -> int:
    from .core import Approach, build_weighted_graph, hierarchical_partition
    from .core.mapping import run_profiling_simulation
    from .experiments import build_network, install_workload
    from .experiments.runner import cluster_for_scale
    from .routing.fib import ForwardingPlane

    scale = _resolve_scale(args)
    net = build_network(args.network, scale, seed=args.seed)
    fib = ForwardingPlane(net)

    def setup(sim, agent):
        install_workload(
            sim, agent, net, "scalapack", scale, args.seed,
            duration_s=scale.profile_duration_s,
        )

    profile = run_profiling_simulation(net, fib, setup, scale.profile_duration_s)
    graph = build_weighted_graph(net, Approach.HPROF, profile)
    cluster = cluster_for_scale(scale)
    result = hierarchical_partition(
        graph,
        scale.num_engines,
        sync_cost_s=cluster.sync_cost_s(scale.num_engines),
        seed=args.seed,
    )
    print(f"Tmll sweep on {args.network} ({graph.num_vertices} vertices, "
          f"{scale.num_engines} engines)")
    print(f"{'Tmll (ms)':>10}{'coarse n':>10}{'Es':>8}{'Ec':>8}{'E':>8}{'MLL (ms)':>10}")
    for rec in result.sweep:
        e = rec.evaluation
        marker = "  <== best" if rec.tmll_s == result.tmll_s else ""
        print(
            f"{rec.tmll_s * 1e3:>10.2f}{rec.coarse_vertices:>10}"
            f"{e.es:>8.3f}{e.ec:>8.3f}{e.efficiency:>8.3f}"
            f"{e.mll_s * 1e3:>10.3f}{marker}"
        )
    return 0


def cmd_trace(args) -> int:
    if args.timeline:
        return _cmd_trace_timeline(args)
    return _cmd_trace_snapshot(args)


def _cmd_trace_timeline(args) -> int:
    """The causal-timeline mode: traced parallel run, blame, what-if."""
    import numpy as np

    from .core import Approach, MappingPipeline
    from .core.mapping import run_profiling_simulation
    from .experiments import build_network, install_workload
    from .experiments.parallel import predict_from_windows
    from .experiments.report import format_whatif_table
    from .experiments.runner import (
        cluster_for_scale,
        evaluate_mappings,
        run_workload_simulation,
    )
    from .obs import blame, observed_run, traced_run
    from .obs.trace_export import write_chrome_trace
    from .routing.fib import ForwardingPlane

    scale = _resolve_scale(args)
    duration = args.duration if args.duration is not None else scale.profile_duration_s
    approach = Approach[args.approach]
    cluster = cluster_for_scale(scale)

    net = build_network(args.network, scale, seed=args.seed)
    fib = ForwardingPlane(net)

    def setup(sim, agent):
        install_workload(
            sim, agent, net, args.app, scale, args.seed,
            duration_s=scale.profile_duration_s,
        )

    profile = run_profiling_simulation(net, fib, setup, scale.profile_duration_s)
    pipeline = MappingPipeline(net, scale.num_engines, cluster, seed=args.seed)
    candidates = pipeline.run_all(
        [Approach.TOP, Approach.PROF, Approach.HTOP, Approach.HPROF], profile
    )
    base = candidates[approach]

    with observed_run(), traced_run(capacity=args.trace_capacity) as tr:
        engine, sim, _ = run_workload_simulation(
            net, fib, args.app, scale, duration, args.seed, mapping=base
        )

    report = blame.analyze(engine.window_stats, tr, cluster, num_units=engine.num_lps)
    write_chrome_trace(args.out, engine.window_stats, tr, cluster)
    prediction = predict_from_windows(engine.window_stats, engine.num_lps, cluster)

    print(f"timeline: {args.network}/{args.app} under {approach.value} "
          f"on {scale.num_engines} engines, {duration:g}s simulated")
    print(f"windows {report.num_windows}, events {engine.events_executed}; "
          f"modeled wall-clock {prediction.total_s * 1e3:.3f} ms "
          f"(critical compute {report.critical_s * 1e3:.3f} ms + "
          f"sync {prediction.sync_s * 1e3:.3f} ms); "
          f"aggregate LP idle at barriers {report.total_wait_s * 1e3:.3f} ms")
    _print_wait_percentiles(report.window_wait_s * 1e3)
    print()
    print(blame.format_blame_table(report))
    print(f"critical path: {len(report.critical_path)} windows, "
          f"handoff fraction {report.handoff_fraction:.2f}")
    node_share = blame.node_blame(engine.trace()[1], report, base.assignment, net.num_nodes)
    if node_share.sum() > 0:
        hot = np.argsort(node_share)[::-1][:5]
        print("hot nodes (blame share): " + ", ".join(
            f"node {int(n)} {node_share[n] * 1e3:.3f} ms"
            for n in hot if node_share[n] > 0
        ))
    print()
    print("what-if mapping replay (modeled wall-clock of this run):")
    rows = evaluate_mappings(engine, sim, candidates, cluster, scale.num_engines, duration)
    print(format_whatif_table(rows))
    if tr.dropped_records:
        print(f"note: trace overflowed ({tr.dropped_records} dropped); blame "
              f"covers every window, handoffs and measured busy times the "
              f"retained suffix")
    print(f"chrome trace written to {args.out} "
          f"(load in chrome://tracing or ui.perfetto.dev)")
    return 0


def _cmd_trace_snapshot(args) -> int:
    from .analysis.partition_check import validate_partition
    from .core import Approach, MappingPipeline, build_weighted_graph
    from .core.mapping import run_profiling_simulation
    from .experiments import build_network, install_workload
    from .experiments.runner import cluster_for_scale
    from .obs import export, observed_run
    from .routing.fib import ForwardingPlane

    scale = _resolve_scale(args)
    duration = args.duration if args.duration is not None else scale.profile_duration_s
    approach = Approach[args.approach]
    if not approach.uses_profile:
        print(f"approach {approach.value} does not consume a profile; "
              f"use PROF, PROF2, or HPROF")
        return 2

    net = build_network(args.network, scale, seed=args.seed)
    fib = ForwardingPlane(net)

    def setup(sim, agent):
        install_workload(sim, agent, net, args.app, scale, args.seed, duration_s=duration)

    with observed_run() as reg:
        profile = run_profiling_simulation(net, fib, setup, duration)
    if profile.total_events == 0:
        # An all-zero profile would weight every node alike: no PROF input.
        print(f"error: the run carried no traffic in --duration {duration:g}s; "
              f"profile a longer run", file=sys.stderr)
        return 2
    pipeline = MappingPipeline(
        net, scale.num_engines, cluster_for_scale(scale), seed=args.seed
    )
    mapping = pipeline.run(approach, profile)
    graph = build_weighted_graph(net, approach, profile)
    validate_partition(graph, mapping.assignment, scale.num_engines)

    ev = mapping.evaluation
    export.write_snapshot(
        args.out,
        reg,
        meta={
            "network": args.network,
            "app": args.app,
            "scale": scale.name,
            "seed": args.seed,
            "duration_s": duration,
            "approach": approach.value,
            "num_engines": scale.num_engines,
            "partition": {
                "efficiency": ev.efficiency,
                "es": ev.es,
                "ec": ev.ec,
                "mll_ms": mapping.achieved_mll_ms,
                "predicted_imbalance": ev.predicted_imbalance,
            },
        },
        fmt=args.fmt,
    )
    print(f"traced {args.network}/{args.app} for {duration:g}s: "
          f"{profile.total_events:.0f} node events")
    print(f"{approach.value} partition over {scale.num_engines} engines: "
          f"E={ev.efficiency:.3f} (Es={ev.es:.3f}, Ec={ev.ec:.3f}), "
          f"MLL={mapping.achieved_mll_ms:.3f} ms  [validators passed]")
    print(f"snapshot written to {args.out}")
    return 0


def cmd_claims(args) -> int:
    from .experiments import evaluate_claims, format_claims, run_experiment
    from .experiments.claims import FIGURE_EXPERIMENTS

    scale = _resolve_scale(args)
    results = [
        run_experiment(kind, app, scale=scale, seed=args.seed)
        for kind, app in FIGURE_EXPERIMENTS
    ]
    checks = evaluate_claims(results)
    print(format_claims(checks))
    return 0 if all(c.holds for c in checks) else 1


def cmd_lint(args) -> int:
    from .analysis.cli import run_lint

    return run_lint(args)


def cmd_chaos(args) -> int:
    import json

    from .experiments import format_chaos_report, run_chaos_experiment
    from .faults import BUILTIN_SCENARIOS, FaultScenario

    if args.kill_workers is not None:
        from .experiments.chaos import format_process_chaos_report, run_process_chaos

        result = run_process_chaos(
            args.network,
            scale=_resolve_scale(args),
            seed=args.seed,
            kills=args.kill_workers,
            procs=args.procs,
            on_worker_loss=args.on_worker_loss,
            checkpoint_every=args.checkpoint_every,
            max_respawns=args.max_respawns,
            duration_s=args.duration,
        )
        print(format_process_chaos_report(result))
        return 0 if result.recovered else 1
    if args.spec is not None:
        with open(args.spec, encoding="utf-8") as fh:
            scenario = FaultScenario.from_dict(json.load(fh))
    else:
        scenario = BUILTIN_SCENARIOS[args.scenario]
    scale = _resolve_scale(args)
    result = run_chaos_experiment(
        args.network,
        args.app,
        scenario,
        scale=scale,
        seed=args.seed,
        duration_s=args.duration,
        obs_out=args.obs_out,
    )
    print(format_chaos_report(result))
    if args.obs_out:
        print(f"observability snapshot written to {args.obs_out}")
    return 0 if result.recovered else 1


def cmd_synccost(args) -> int:
    from .cluster import SyncCostModel

    model = SyncCostModel()
    print("TeraGrid synchronization cost model (paper Figure 5)")
    print(f"{'nodes':>8}{'cost (us)':>12}")
    for n in (2, 6, 16, 48, 80, 90, 100, 112, 128):
        print(f"{n:>8}{model(n) * 1e6:>12.0f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Realistic Large-Scale Online Network "
        "Simulation' (Liu & Chien, SC 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment", help="run one experiment, print its metric table")
    p_exp.add_argument("network", choices=["single-as", "multi-as"])
    p_exp.add_argument("app", choices=["scalapack", "gridnpb"])
    p_exp.add_argument("--save", metavar="PATH", default=None,
                       help="write the result as JSON")
    p_exp.add_argument("--bars", action="store_true",
                       help="also render ASCII bar charts per metric")
    p_exp.add_argument("--obs-out", dest="obs_out", metavar="PATH", default=None,
                       help="record the measured run's observability snapshot "
                       "(JSON); with --backend mp, the merged per-shard snapshot "
                       "with measured window spans and the calibration table "
                       "(PATH may be a directory: obs_mp_snapshot.json inside)")
    p_exp.add_argument("--backend", choices=["model", "mp"], default="model",
                       help="'model': single-process run + cost-model prediction "
                       "(default); 'mp': execute the packet-mediated UDP workload "
                       "across real worker processes and report measured vs "
                       "predicted wall-clock")
    p_exp.add_argument("--procs", type=_positive_int, default=2,
                       help="worker processes for --backend mp (default: 2)")
    p_exp.add_argument("--rebalance", action="store_true",
                       help="with --backend mp: watch per-window blame "
                       "concentration and migrate LPs between workers at "
                       "barriers (delivery log stays byte-identical)")
    p_exp.add_argument("--rebalance-threshold", type=float, default=0.5,
                       help="blame-share concentration that arms a migration "
                       "(default: 0.5)")
    p_exp.add_argument("--rebalance-patience", type=int, default=2,
                       help="consecutive over-threshold windows before "
                       "migrating (default: 2)")
    p_exp.add_argument("--rebalance-cooldown", type=int, default=4,
                       help="windows to wait after a migration before "
                       "re-arming (default: 4)")
    p_exp.add_argument("--rebalance-max-moves", type=int, default=4,
                       help="migration budget for the whole run (default: 4)")
    p_exp.add_argument("--checkpoint-every", dest="checkpoint_every",
                       type=_positive_int, default=None, metavar="N",
                       help="with --backend mp: capture a barrier-aligned "
                       "shard checkpoint every N windows and recover crashed "
                       "workers from it by replay (delivery log stays "
                       "byte-identical; combines with --rebalance)")
    p_exp.add_argument("--max-respawns", dest="max_respawns", type=_non_negative_int,
                       default=2, metavar="K",
                       help="respawn a crashed worker at most K times before "
                       "escalating per --on-worker-loss (default: 2)")
    p_exp.add_argument("--on-worker-loss", dest="on_worker_loss",
                       choices=["respawn", "adopt", "fail"], default="respawn",
                       help="after the respawn budget: 'respawn' raises, "
                       "'adopt' hands the dead shard's LPs to a survivor "
                       "(degraded but byte-identical), 'fail' raises on the "
                       "first loss (default: respawn)")
    _add_scale(p_exp)
    p_exp.set_defaults(fn=cmd_experiment)

    p_fig = sub.add_parser("figures", help="regenerate Figures 6-13")
    _add_scale(p_fig)
    p_fig.set_defaults(fn=cmd_figures)

    p_sweep = sub.add_parser("sweep", help="print the HPROF Tmll sweep")
    p_sweep.add_argument("--network", default="single-as", choices=["single-as", "multi-as"])
    _add_scale(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_trace = sub.add_parser(
        "trace",
        help="run a scenario under the observability instruments; write a "
        "registry snapshot, or (--timeline) a causal window timeline with "
        "straggler blame and what-if mapping replay",
    )
    p_trace.add_argument("network", nargs="?", default="single-as",
                         choices=["single-as", "multi-as"])
    p_trace.add_argument("app", nargs="?", default="scalapack",
                         choices=["scalapack", "gridnpb"])
    p_trace.add_argument("--timeline", action="store_true",
                         help="run on the parallel engine with the structured "
                         "tracer: Chrome trace JSON to --out, per-LP blame "
                         "table, critical path, what-if mapping scores")
    p_trace.add_argument("--out", metavar="PATH", default="obs_trace.json",
                         help="output path (default: obs_trace.json); registry "
                         "snapshot, or Chrome trace JSON with --timeline")
    p_trace.add_argument("--format", dest="fmt", default="json",
                         choices=["json", "prom"],
                         help="snapshot format (default: json; ignored with "
                         "--timeline)")
    p_trace.add_argument("--duration", type=_positive_float, default=None,
                         help="simulated seconds to trace "
                         "(default: the scale's profiling duration)")
    p_trace.add_argument("--approach", default="PROF",
                         choices=["TOP", "TOP2", "PROF", "PROF2", "HTOP", "HPROF"],
                         help="mapping approach: the profile consumer to "
                         "validate (snapshot mode) or the base mapping of the "
                         "traced run (--timeline; default: PROF)")
    p_trace.add_argument("--trace-capacity", type=int, default=None,
                         help="per-channel trace ring capacity for --timeline "
                         "(default: %d)" % _default_trace_capacity())
    _add_scale(p_trace)
    p_trace.set_defaults(fn=cmd_trace)

    p_claims = sub.add_parser(
        "claims", help="evaluate the paper's headline claims (exit 1 on failure)"
    )
    _add_scale(p_claims)
    p_claims.set_defaults(fn=cmd_claims)

    p_sync = sub.add_parser("synccost", help="print the Figure 5 sync cost model")
    p_sync.set_defaults(fn=cmd_synccost)

    p_chaos = sub.add_parser(
        "chaos",
        help="run a seeded fault-injection scenario and print the "
        "convergence/recovery report (exit 1 if the network did not heal)",
    )
    p_chaos.add_argument("network", choices=["single-as", "multi-as"])
    p_chaos.add_argument("app", choices=["scalapack", "gridnpb"])
    p_chaos.add_argument("--scenario", default="chaos-mixed",
                         choices=["link-flap", "router-restart", "loss-burst",
                                  "chaos-mixed"],
                         help="built-in fault scenario (default: chaos-mixed)")
    p_chaos.add_argument("--spec", metavar="PATH", default=None,
                         help="JSON FaultScenario spec overriding --scenario")
    p_chaos.add_argument("--duration", type=_positive_float, default=None,
                         help="simulated seconds (default: the scale's duration)")
    p_chaos.add_argument("--obs-out", dest="obs_out", metavar="PATH", default=None,
                         help="write the run's observability snapshot (JSON)")
    p_chaos.add_argument("--kill-workers", dest="kill_workers", type=_positive_int,
                         default=None, metavar="N",
                         help="process-level chaos instead of network faults: "
                         "SIGKILL N workers of a multi-process run at seeded "
                         "random windows and verify the recovered delivery "
                         "log byte-matches an uninterrupted reference (the "
                         "app argument is ignored: only the packet-mediated "
                         "UDP workload shards)")
    p_chaos.add_argument("--procs", type=_positive_int, default=2,
                         help="worker processes for --kill-workers (default: 2)")
    p_chaos.add_argument("--checkpoint-every", dest="checkpoint_every",
                         type=_positive_int, default=8, metavar="N",
                         help="checkpoint cadence for --kill-workers "
                         "(default: 8 windows)")
    p_chaos.add_argument("--max-respawns", dest="max_respawns",
                         type=_non_negative_int,
                         default=2, metavar="K",
                         help="respawn budget per shard for --kill-workers "
                         "(default: 2)")
    p_chaos.add_argument("--on-worker-loss", dest="on_worker_loss",
                         choices=["respawn", "adopt", "fail"],
                         default="respawn",
                         help="escalation after the respawn budget for "
                         "--kill-workers (default: respawn)")
    _add_scale(p_chaos)
    p_chaos.set_defaults(fn=cmd_chaos)

    p_lint = sub.add_parser(
        "lint", help="run simlint static analysis (exit 1 on error findings)"
    )
    from .analysis.cli import add_lint_arguments

    add_lint_arguments(p_lint)
    p_lint.set_defaults(fn=cmd_lint)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
