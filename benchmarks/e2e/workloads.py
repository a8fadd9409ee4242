"""The four workloads: what is set up, what one pass does, what is checked.

Each workload is a ``setup(seed, smoke)`` that builds the inputs that
are *not* part of the measured work, and a ``run(state, rec)`` that does
one pass over them through the layers' public functions, each call in a
``rec.span`` (a stage). ``child.py`` repeats the pass and takes the
floor step by step (``tracing.floor_of_passes``), so a pass is a few
seconds and every stage is cut into steps well under a second wherever
the public API gives a place to cut: the ``Tmll`` sweep at its
``partitioner`` hook, the multi-process run at each barrier window
(``stamps.py``). ``run`` returns

- ``work``: the deterministic amount of work the pass did — executed
  simulation events, or vertices handed to the partitioner — which is
  what makes a rate comparable between seeds;
- ``layers``: per-layer counts and ratios under their published names;
- ``fingerprint``: every simulated statistic a speed-only change must
  leave identical.

``EXTRAS`` are the passes only per-layer ratios and output checks need;
they run after the timed passes. Why these four, and which layer each
one stresses or bypasses, is in README.md; the sizes were measured on a
2-core host (ISSUE 12, then cut to a pass of 2-4 s so that one run
repeats it 4-8 times).
"""

from __future__ import annotations

import hashlib
import resource
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Callable, Iterator

import numpy as np

from repro.core.approaches import Approach, build_weighted_graph
from repro.core.hierarchical import hierarchical_partition
from repro.core.mapping import MappingPipeline, run_profiling_simulation
from repro.engine.costmodel import window_for_mapping
from repro.engine.parallel import ParallelConservativeEngine
from repro.engine.recovery import RecoveryConfig
from repro.experiments.claims import evaluate_claims
from repro.experiments.config import SCALES
from repro.experiments.parallel import calibrated_cluster, predict_from_windows
from repro.experiments.runner import (
    DEFAULT_APPROACHES,
    ExperimentResult,
    cluster_for_scale,
    evaluate_mappings,
    run_workload_simulation,
)
from repro.experiments.shard import merge_collected, run_reference, udp_spec
from repro.experiments.workloads import install_workload
from repro.obs.distributed import merged_trace_snapshot
from repro.obs.registry import observed_run
from repro.obs.trace import traced_run
from repro.partition.kway import partition_kway
from repro.routing.fib import ForwardingPlane
from repro.topology.brite import generate_flat_network

import stamps
from tracing import Recorder

SMALL = SCALES["small"]
# The pipeline runs SCALES["small"] on half its network for 3 of its 10
# simulated seconds: one pass is ~2.5 s, split as at full size (simulate +
# profile ~57 %, mapping ~38 %, scoring ~5 %).
PIPELINE_SCALE = replace(
    SMALL, name="small/2", flat_routers=200, flat_hosts=150,
    duration_s=3.0, profile_duration_s=1.0,
)
# --smoke: seconds, numbers discarded; only the plumbing is exercised.
SMOKE_SCALE = replace(
    SMALL, name="smoke", flat_routers=60, flat_hosts=40, http_clients=24,
    http_servers=8, num_engines=4, app_processes=4, scalapack_iterations=2,
    duration_s=1.5, profile_duration_s=0.5,
)
# the sweep's graph is SCALES["small"]'s network: twice the pipeline's
SWEEP_SIZE = {"routers": SMALL.flat_routers, "hosts": SMALL.flat_hosts, "engines": 16}
SWEEP_SMOKE = {"routers": 120, "hosts": 40, "engines": 4}
UDP_SIZE = {"duration_s": 1.0, "packets": 40_000}
UDP_SMOKE = {"duration_s": 0.1, "packets": 1_000}
# The mp workloads run on one network; their seed draws the packets only.
# HTOP's achieved lookahead on 4 LPs is bimodal over network seeds (4-14 ms
# on seven of seeds 0-9, 0.8 ms on seeds 5, 8, 9), so a per-seed network
# makes a 1 s run 105 windows on one seed and 1 250 on the next: a
# different workload, not another sample of this one.
NETWORK_SEED = 0
MP_LPS = 4
#: this host has 2 cores; never more workers than cores
MP_PROCS = 2
MP_START_METHOD = "fork"
CKPT_EVERY_N_WINDOWS = 2
#: ring-buffer size for traced mp runs: each worker records one entry per
#: executed event, and a dropped record would make the trace inexact
TRACE_CAPACITY = 4_000_000


def sha(array: Any) -> str:
    """sha256 of an integer sequence, independent of its container type."""
    return hashlib.sha256(np.asarray(array, dtype=np.int64).tobytes()).hexdigest()


def fhex(value: float) -> str:
    """Exact text form of a float: equal hex means equal bits."""
    return float(value).hex()


# ----------------------------------------------------------------------
# pipeline-single-as
# ----------------------------------------------------------------------
def setup_pipeline(seed: int, smoke: bool) -> dict:
    return {"seed": seed, "scale": SMOKE_SCALE if smoke else PIPELINE_SCALE}


def run_pipeline(state: dict, rec: Recorder) -> dict:
    """Figure 4 + Figure 6: generate, route, profile, simulate, map, score."""
    seed, scale = state["seed"], state["scale"]
    with rec.span("topology.generate"):
        net = generate_flat_network(
            num_routers=scale.flat_routers, num_hosts=scale.flat_hosts, seed=NETWORK_SEED
        )
    with rec.span("routing.build"):
        fib = ForwardingPlane(net)

    def profile_setup(sim, agent) -> None:
        install_workload(
            sim, agent, net, "scalapack", scale, seed,
            duration_s=scale.profile_duration_s,
        )

    with rec.span("profilers.profile_run"):
        profile = run_profiling_simulation(
            net, fib, profile_setup, scale.profile_duration_s
        )
    with rec.span("netsim.simulate"):
        kernel, sim, handles = run_workload_simulation(
            net, fib, "scalapack", scale, scale.duration_s, seed
        )
    cluster = cluster_for_scale(scale)
    pipeline = MappingPipeline(net, scale.num_engines, cluster, seed)
    mappings = {}
    for approach in DEFAULT_APPROACHES:
        with rec.span(f"core.map_{approach.value}"):
            mappings[approach] = pipeline.run(
                approach, profile if approach.uses_profile else None
            )
    with rec.span("engine.costmodel.score"):
        rows = evaluate_mappings(
            kernel, sim, mappings, cluster, scale.num_engines, scale.duration_s
        )
        result = ExperimentResult(
            network_kind="single-as", app_kind="scalapack", scale_name=scale.name,
            num_engines=scale.num_engines, total_events=kernel.events_executed,
            duration_s=scale.duration_s, rows=rows,
            http_responses=handles.http.stats.responses_completed,
        )
        claims = evaluate_claims([result])

    counters = sim.counters.as_dict()
    hier = mappings[Approach.HTOP]
    layers = {
        "topology.nodes": net.num_nodes,
        "topology.links": len(net.links),
        "routing.trees_built": fib.route_recompute_stats()["trees_built"],
        "netsim.packets_sent": counters["sent"],
        "netsim.packets_delivered": counters["delivered"],
        "netsim.packets_dropped_queue": counters["dropped_queue"],
        "netsim.app.http_responses": result.http_responses,
        "engine.kernel.events": kernel.events_executed,
        "core.sweep_candidates": len(hier.sweep),
        "core.hier_mll_ms": hier.achieved_mll_ms,
        "core.hier_efficiency": hier.evaluation.efficiency,
    }
    fingerprint = {
        "events": kernel.events_executed,
        "counters": counters,
        "http_responses": result.http_responses,
        "fib_digest": fib.digest(),
        "assignments": {a.value: sha(m.assignment) for a, m in mappings.items()},
        "rows": {
            row.approach.value: {k: fhex(v) for k, v in row.as_dict().items() if k != "approach"}
            for row in rows
        },
        "claims": {c.claim_id: bool(c.holds) for c in claims},
    }
    return {
        "work": kernel.events_executed,
        "layers": layers,
        "fingerprint": fingerprint,
    }


# ----------------------------------------------------------------------
# mapping-sweep
# ----------------------------------------------------------------------
SWEEP_APPROACHES = (Approach.TOP, Approach.TOP2, Approach.HTOP)


def setup_sweep(seed: int, smoke: bool) -> dict:
    size = SWEEP_SMOKE if smoke else SWEEP_SIZE
    net = generate_flat_network(
        num_routers=size["routers"], num_hosts=size["hosts"], seed=NETWORK_SEED
    )
    cluster = cluster_for_scale(replace(SMALL, num_engines=size["engines"]))
    return {"seed": seed, "net": net, "pipeline": MappingPipeline(net, size["engines"], cluster, seed)}


def run_sweep(state: dict, rec: Recorder) -> dict:
    """Mapping only: flat k-way twice, then HTOP's whole ``Tmll`` sweep.

    The sweep is entered at ``hierarchical_partition``, with the
    arguments ``MappingPipeline.run`` gives it, so that its documented
    ``partitioner`` hook can close a step at every candidate; that the
    two agree is checked in :func:`extras_sweep`.
    """
    net, pipeline = state["net"], state["pipeline"]
    flat = {}
    for approach in (Approach.TOP, Approach.TOP2):
        with rec.span(f"core.map_{approach.value}"):
            flat[approach] = pipeline.run(approach)
    with rec.span("core.map_HTOP") as lap:

        def kway_closing_a_step(*args, **kwargs):
            lap()
            return partition_kway(*args, **kwargs)

        hier = hierarchical_partition(
            build_weighted_graph(net, Approach.HTOP, None, None),
            pipeline.num_engines,
            sync_cost_s=pipeline.sync_cost_s,
            seed=pipeline.seed,
            partitioner=kway_closing_a_step,
        )

    # Every k-way call partitions one graph: the two flat approaches see
    # the full network, each sweep candidate its collapsed graph.
    vertices = 2 * net.num_nodes + sum(r.coarse_vertices for r in hier.sweep)
    assignments = {a.value: sha(m.assignment) for a, m in flat.items()}
    assignments[Approach.HTOP.value] = sha(hier.assignment)
    return {
        "work": vertices,
        "layers": {
            "topology.nodes": net.num_nodes,
            "topology.links": len(net.links),
            "core.sweep_candidates": len(hier.sweep),
            "core.hier_mll_ms": hier.achieved_mll_s * 1e3,
            "core.hier_efficiency": hier.evaluation.efficiency,
        },
        "fingerprint": {
            "assignments": assignments,
            "tmll_s": fhex(hier.tmll_s),
            "sweep_len": len(hier.sweep),
        },
    }


def extras_sweep(state: dict, outcome: dict, run_wall_s: float, measure) -> tuple[dict, dict]:
    mapping = state["pipeline"].run(Approach.HTOP)
    same = sha(mapping.assignment) == outcome["fingerprint"]["assignments"]["HTOP"]
    return {}, {"the sweep through the hook equals MappingPipeline.run(HTOP)": same}


# ----------------------------------------------------------------------
# mp-udp / mp-udp-ckpt
# ----------------------------------------------------------------------
def setup_mp(seed: int, smoke: bool) -> dict:
    """Network, HTOP mapping onto 4 LPs and the UDP spec: all set-up here."""
    scale = SMOKE_SCALE if smoke else SMALL
    size = UDP_SMOKE if smoke else UDP_SIZE
    net = generate_flat_network(
        num_routers=scale.flat_routers, num_hosts=scale.flat_hosts, seed=NETWORK_SEED
    )
    cluster = cluster_for_scale(replace(scale, num_engines=MP_LPS))
    mapping = MappingPipeline(net, MP_LPS, cluster, NETWORK_SEED).run(Approach.HTOP)
    spec = udp_spec(
        net, size["duration_s"], packets=size["packets"], seed=seed,
        record_deliveries=False, chain_injects=True,
    )
    return {
        "spec": stamps.stamped(spec),
        "assignment": mapping.assignment,
        "lookahead": window_for_mapping(mapping.achieved_mll_s, size["duration_s"]),
        "until": size["duration_s"],
        "observe": False,
    }


def sim_fingerprint(collected: dict) -> dict:
    """The simulated outcome of a UDP run, reference or merged shards."""
    return {
        "events": int(collected["events_executed"]),
        "counters": {k: int(v) for k, v in sorted(collected["counters"].items())},
        "node_packets": sha(collected["node_packets"]),
        "link_lost": sha(collected["link_lost"]),
    }


@contextmanager
def observed(on: bool) -> Iterator[None]:
    """Turn the repo's existing obs registry + tracer on, from outside."""
    if not on:
        yield
        return
    with observed_run(), traced_run(capacity=TRACE_CAPACITY):
        yield


def cut_into_windows(rec: Recorder, result) -> None:
    """One step per barrier window, from the workers' stamps.

    Wall comes from shard 0 (the shards meet at every barrier, so all of
    them see the same windows); CPU is what every worker used in the
    window. Fork and scenario build are in the first step, collect and
    teardown in the one after the last stamp, which also takes the
    controller's CPU.
    """
    walls = [c.pop(stamps.WALL_KEY, []) for c in result.collected]
    cpus = [np.diff(c.pop(stamps.CPU_KEY, []), prepend=0.0) for c in result.collected]
    if any(len(w) != len(result.window_stats) for w in walls):
        return  # no stamp per window: the run stays one step
    rec.cut_last_stage(walls[0], np.sum(cpus, axis=0).tolist())


def run_mp_pass(state: dict, rec: Recorder, recovery=None) -> dict:
    """One ``run_scenario`` on 2 forked workers."""
    with observed(state["observe"]), rec.span("engine.parallel.run_scenario"):
        engine = ParallelConservativeEngine(
            state["assignment"], MP_LPS, state["lookahead"], procs=MP_PROCS,
            start_method=MP_START_METHOD, recovery=recovery,
        )
        result = engine.run_scenario(state["spec"], until=state["until"])
    cut_into_windows(rec, result)
    events = result.events_executed
    worker_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "work": events,
        "layers": {
            "engine.parallel.windows": len(result.window_stats),
            "engine.parallel.mail_bytes": result.total_mail_bytes,
            "engine.parallel.mail_bytes_per_event": result.total_mail_bytes / events,
            "engine.parallel.barrier_wait_share": (
                sum(result.barrier_wait_s) / (result.procs * result.wall_s)
            ),
            "engine.parallel.worker_peak_rss_mb": worker_rss_kb / 1024.0,
        },
        "fingerprint": {
            **sim_fingerprint(merge_collected(result.collected)),
            "mail_bytes": result.total_mail_bytes,
            "windows": len(result.window_stats),
            "lookahead_violations": result.lookahead_violations,
        },
        "result": result,
        "shards": engine.shards,
    }


def run_mp_udp_ckpt(state: dict, rec: Recorder) -> dict:
    """The 2-process pass again, checkpointing every second window."""
    mp = run_mp_pass(
        state, rec, recovery=RecoveryConfig(checkpoint_every_n_windows=CKPT_EVERY_N_WINDOWS)
    )
    recovery = mp["result"].recovery
    mp["layers"]["engine.recovery.checkpoints"] = recovery["checkpoints_taken"]
    mp["layers"]["engine.recovery.checkpoint_bytes"] = recovery["checkpoint_bytes"]
    return mp


def measured_window_layers(result, traced_wall_s: float) -> tuple[dict, list[str]]:
    """Split a traced mp run's wall into five parts that sum to it.

    Per window the slowest shard's ``MeasuredWindowRecord`` is what the
    barrier waited for, so its execute / mail-encode / barrier-wait /
    mail-decode are the window's cost; whatever the traced wall holds
    beyond the windows (fork, per-worker scenario build, checkpoints,
    collect, teardown, controller routing) is ``outside_windows_s``.
    Returns the layer values and the reasons, if any, why they are not
    exact.
    """
    snapshot = merged_trace_snapshot(result)
    by_window: dict[int, dict[int, Any]] = {}
    for record in snapshot.measured:
        by_window.setdefault(record.window_index, {})[record.shard_id] = record
    problems = []
    missing = [
        (ws.window_index, shard)
        for ws in result.window_stats
        for shard in range(result.procs)
        if shard not in by_window.get(ws.window_index, {})
    ]
    if missing:
        problems.append(f"{len(missing)} (window, shard) pairs have no measured record")
    if snapshot.dropped_records:
        problems.append(f"{snapshot.dropped_records} trace records dropped")
    slowest = [max(shards.values(), key=lambda r: r.total_s) for shards in by_window.values()]
    parts = {
        part: sum(getattr(r, part) for r in slowest)
        for part in ("execute_s", "mail_encode_s", "barrier_wait_s", "mail_decode_s")
    }
    outside_s = traced_wall_s - sum(parts.values())
    if outside_s < 0.0:
        problems.append(f"windows sum to {-outside_s:.3f} s more than the traced wall")
    totals_ms = [r.total_s * 1e3 for r in slowest] or [0.0]
    layers = {f"engine.parallel.{part}": value for part, value in parts.items()}
    layers["engine.parallel.outside_windows_s"] = outside_s
    layers["engine.parallel.window_wall_p50_ms"] = float(np.percentile(totals_ms, 50))
    layers["engine.parallel.window_wall_p95_ms"] = float(np.percentile(totals_ms, 95))
    layers["obs.dropped_records"] = snapshot.dropped_records
    return layers, problems


def reference_pass(state: dict) -> tuple[float, int, dict]:
    """The plain single-process baseline every mp number is read against:
    ``(wall_s, events, fingerprint)`` of one ``run_reference``."""
    rec = Recorder()
    with rec.span("engine.conservative.ref_wall"):
        engine, collected = run_reference(
            state["spec"], state["assignment"], MP_LPS, state["lookahead"], state["until"]
        )
    return rec.steps[0][1], engine.events_executed, sim_fingerprint(collected)


def equals_reference(outcome: dict, reference: dict) -> dict:
    same = all(outcome["fingerprint"][key] == reference[key] for key in reference)
    return {"merged shards equal the single-process reference": same}


def verify_mp(state: dict, outcome: dict, run_wall_s: float, measure) -> tuple[dict, dict]:
    """For a seed with no committed fingerprint: check against a reference."""
    return {}, equals_reference(outcome, reference_pass(state)[2])


def extras_mp_udp(state: dict, outcome: dict, run_wall_s: float, measure) -> tuple[dict, dict]:
    """The reference on ``ConservativeEngine``, and what is read against it."""
    ref_wall_s, ref_events, reference = reference_pass(state)
    cluster = calibrated_cluster(MP_PROCS, ref_wall_s, ref_events)
    predicted = predict_from_windows(
        outcome["result"].window_stats, MP_LPS, cluster, shards=outcome["shards"]
    )
    layers = {
        "engine.conservative.ref_wall_s": ref_wall_s,
        "engine.conservative.ref_events_per_s": ref_events / ref_wall_s,
        "engine.parallel.speedup_x": ref_wall_s / run_wall_s,
        "engine.costmodel.pred_over_measured_x": predicted.total_s / run_wall_s,
    }
    return layers, equals_reference(outcome, reference)


def extras_mp_udp_ckpt(state: dict, outcome: dict, run_wall_s: float, measure) -> tuple[dict, dict]:
    """The same spec without checkpoints, measured the same way."""
    plain_wall_s, plain = measure(run_mp_pass)
    same = plain["fingerprint"] == outcome["fingerprint"]
    return (
        {"engine.recovery.ckpt_over_plain_x": run_wall_s / plain_wall_s},
        {"checkpointed run equals the plain run, zero mail-byte delta": same},
    )


Run = Callable[[dict, Recorder], dict]
Extras = Callable[[dict, dict, float, Callable[[Run], tuple[float, dict]]], tuple[dict, dict]]

SETUP: dict[str, Callable[[int, bool], dict]] = {
    "pipeline-single-as": setup_pipeline,
    "mapping-sweep": setup_sweep,
    "mp-udp": setup_mp,
    "mp-udp-ckpt": setup_mp,
}
RUN: dict[str, Run] = {
    "pipeline-single-as": run_pipeline,
    "mapping-sweep": run_sweep,
    "mp-udp": run_mp_pass,
    "mp-udp-ckpt": run_mp_udp_ckpt,
}
#: after the timed passes of a ``--extras`` child (per-layer runs)
EXTRAS: dict[str, Extras] = {
    "mapping-sweep": extras_sweep,
    "mp-udp": extras_mp_udp,
    "mp-udp-ckpt": extras_mp_udp_ckpt,
}
#: after the timed passes when the seed has no committed fingerprint
VERIFY: dict[str, Extras] = {"mp-udp": verify_mp, "mp-udp-ckpt": verify_mp}
