"""Chaos experiment: one seeded fault scenario, end to end.

Runs a workload simulation with a :class:`~repro.faults.FaultSchedule`
installed, under enabled observability, and reports what broke, what
recovered, and whether the run *converged back*: OSPF recomputed routes,
every BGP session re-established, no link or router left down. This is
the executable form of the paper's online-routing robustness story —
the simulated network reacts to failures the way an operational network
does, with the same protocols doing the recovering.

Determinism contract: the same ``(scenario, seed)`` pair produces the
same fault schedule (:meth:`FaultSchedule.digest`), the same fault
trace (:attr:`ChaosResult.fault_trace_digest`), and the same delivery
counters.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..engine.parallel import ShardEngine
from ..faults.injector import FaultCounts, FaultInjector
from ..faults.schedule import FaultScenario, FaultSchedule
from ..netsim.simulator import NetworkSimulator
from ..obs import export as obs_export
from ..obs.registry import observed_run
from ..obs.trace import FaultRecord, traced_run
from ..online.agent import Agent
from ..routing.fib import ForwardingPlane
from ..routing.bgp.session import BgpSessionManager, SessionStats
from .config import ExperimentScale, default_scale
from .runner import build_network
from .workloads import install_workload

__all__ = [
    "ChaosResult",
    "ProcessChaosResult",
    "run_chaos_experiment",
    "run_process_chaos",
    "format_chaos_report",
    "format_process_chaos_report",
]


@dataclass
class ChaosResult:
    """Everything a chaos run reports."""

    scenario: str
    seed: int
    duration_s: float
    schedule_digest: str
    num_fault_events: int
    counts: FaultCounts
    #: TrafficCounters.as_dict() plus the fault-drop accounting
    traffic: dict[str, int]
    dropped_fault: int
    packets_lost: int
    packets_corrupted: int
    #: OSPF re-convergence counters (invalidations, trees_built)
    route_recompute: dict[str, int]
    #: BGP session lifecycle stats (None on single-AS networks)
    bgp: SessionStats | None
    #: the faults trace channel, in order
    fault_records: list[FaultRecord] = field(default_factory=list)
    fault_trace_digest: str = ""
    #: recovery verdict components
    links_restored: bool = True
    routers_restored: bool = True
    sessions_recovered: bool = True
    routes_recomputed: bool = True

    @property
    def recovered(self) -> bool:
        """True when every degradation the schedule injected healed."""
        return (
            self.links_restored
            and self.routers_restored
            and self.sessions_recovered
            and self.routes_recomputed
        )


def _fault_trace_digest(records: list[FaultRecord]) -> str:
    h = hashlib.sha256()
    for r in records:
        detail = ",".join(f"{k}={r.detail[k]!r}" for k in sorted(r.detail))
        h.update(f"{r.time!r}|{r.kind}|{r.phase}|{r.target}|{detail};".encode())
    return h.hexdigest()


def run_chaos_experiment(
    network_kind: str,
    app_kind: str,
    scenario: FaultScenario,
    scale: ExperimentScale | None = None,
    seed: int = 0,
    duration_s: float | None = None,
    schedule: FaultSchedule | None = None,
    obs_out: str | None = None,
) -> ChaosResult:
    """Run one workload under one fault scenario and report recovery.

    ``schedule`` overrides the seeded scenario materialization (tests
    hand-build schedules); ``obs_out`` writes the observability snapshot
    of the run as JSON, as the other experiment entry points do.
    """
    scale = scale if scale is not None else default_scale()
    duration = duration_s if duration_s is not None else scale.duration_s

    net = build_network(network_kind, scale, seed)
    fib = ForwardingPlane(net)
    if schedule is None:
        schedule = FaultSchedule.from_scenario(scenario, net, seed)

    with observed_run() as reg, traced_run() as tracer:
        engine = ShardEngine([0] * net.num_nodes, 1, lookahead=duration)
        sim = NetworkSimulator(net, fib, engine)
        agent = Agent(sim)
        sessions: BgpSessionManager | None = None
        if fib.bgp is not None:
            sessions = BgpSessionManager(fib.bgp, engine, seed=seed)
        injector = FaultInjector(sim, fib, schedule, sessions=sessions)
        injector.install(engine)
        install_workload(sim, agent, net, app_kind, scale, seed, duration)
        engine.run(until=duration)
        fault_records = list(tracer.faults)
        if obs_out is not None:
            obs_export.write_snapshot(
                obs_out,
                reg,
                meta={
                    "network": network_kind,
                    "app": app_kind,
                    "scenario": scenario.name,
                    "seed": seed,
                    "duration_s": duration,
                    "schedule_digest": schedule.digest(),
                },
            )

    counts = injector.counts
    recompute = fib.route_recompute_stats()
    had_topology_faults = counts.link_transitions + counts.router_transitions > 0
    return ChaosResult(
        scenario=scenario.name,
        seed=seed,
        duration_s=duration,
        schedule_digest=schedule.digest(),
        num_fault_events=len(schedule),
        counts=counts,
        traffic=sim.counters.as_dict(),
        dropped_fault=sim.dropped_fault,
        packets_lost=sum(lr.total_lost for lr in sim.links),
        packets_corrupted=sum(lr.total_corrupted for lr in sim.links),
        route_recompute=recompute,
        bgp=sessions.stats if sessions is not None else None,
        fault_records=fault_records,
        fault_trace_digest=_fault_trace_digest(fault_records),
        links_restored=not injector.links_down,
        routers_restored=not injector.nodes_down,
        sessions_recovered=(
            sessions is None
            or (sessions.all_established() and sessions.stats.gave_up == 0)
        ),
        routes_recomputed=(not had_topology_faults) or recompute["invalidations"] > 0,
    )


@dataclass
class ProcessChaosResult:
    """A process-level chaos run: kill workers, demand byte-identity.

    Where :class:`ChaosResult` reports whether the *simulated network*
    healed, this reports whether the *simulator* healed: a seeded
    :class:`~repro.faults.plan.FaultPlan` SIGKILLs worker processes at
    random barrier windows, the recovery ladder (checkpoint restore +
    respawn, then survivor adoption) masks the crashes, and the verdict
    compares the multi-process delivery log byte-for-byte against an
    uninterrupted single-process reference of the same seeded workload.
    """

    network: str
    procs: int
    seed: int
    duration_s: float
    kills: int
    on_worker_loss: str
    plan_digest: str
    #: canonical one-line forms of the planned faults, in plan order
    fault_lines: list[str]
    #: the 1-process reference's traffic counters (``sent``, ``delivered``,
    #: ``unroutable``, ...), printed beside the verdict: byte-identity is
    #: only as strong as the traffic the reference carried
    reference_counters: dict[str, int]
    #: the run's recovery summary (None when the run aborted)
    recovery: dict | None
    byte_identical: bool
    counters_match: bool
    error: str | None = None

    @property
    def degraded(self) -> bool:
        """True when a survivor had to adopt a dead shard's LPs."""
        return bool(self.recovery and self.recovery["adoptions"])

    @property
    def recovered(self) -> bool:
        """Fully healed: byte-identical output with every shard respawned."""
        return (
            self.error is None
            and self.byte_identical
            and self.counters_match
            and not self.degraded
        )


def run_process_chaos(
    network_kind: str,
    scale: ExperimentScale | None = None,
    seed: int = 0,
    kills: int = 2,
    procs: int = 2,
    on_worker_loss: str = "respawn",
    checkpoint_every: int = 8,
    max_respawns: int = 2,
    duration_s: float | None = None,
    start_method: str = "fork",
) -> ProcessChaosResult:
    """Kill ``kills`` workers at seeded random windows; verify recovery.

    The packet-mediated UDP workload (the only workload that shards —
    see :mod:`repro.experiments.shard`) runs once on the single-process
    engine (ground truth) and once on the multi-process backend with a
    seeded :meth:`FaultPlan.random_kills` plan plus barrier
    checkpointing. The verdict is RECOVERED when the crashed run's
    delivery log and traffic counters byte-match the uninterrupted
    reference with every shard respawned, DEGRADED when a survivor had
    to adopt a dead shard (output still byte-identical), FAILED on
    divergence or an exhausted recovery ladder.
    """
    from ..core.approaches import Approach
    from ..engine.costmodel import window_for_mapping
    from ..engine.parallel import ParallelConservativeEngine, RecoveryExhaustedError
    from ..engine.recovery import RecoveryConfig
    from ..engine.windows import iter_windows
    from ..faults.plan import FaultPlan
    from .runner import MappingPipeline, cluster_for_scale
    from .shard import delivery_log_bytes, merge_collected, run_reference, udp_spec

    scale = scale if scale is not None else default_scale()
    duration = duration_s if duration_s is not None else scale.profile_duration_s
    net = build_network(network_kind, scale, seed)
    cluster = cluster_for_scale(scale)
    pipeline = MappingPipeline(net, scale.num_engines, cluster, seed)
    mapping = pipeline.run_all([Approach.TOP])[Approach.TOP]
    lookahead = window_for_mapping(mapping.achieved_mll_s, duration)
    num_windows = sum(1 for _ in iter_windows(0.0, lookahead, duration))
    plan = FaultPlan.random_kills(num_windows, procs, kills=kills, seed=seed)
    spec = udp_spec(
        net, duration, packets=4 * scale.http_clients, seed=seed,
        record_deliveries=True,
    )
    _ref_engine, ref_collected = run_reference(
        spec, mapping.assignment, mapping.num_engines, lookahead, duration
    )
    recovery = RecoveryConfig(
        checkpoint_every_n_windows=checkpoint_every,
        max_respawns=max_respawns,
        on_worker_loss=on_worker_loss,
        fault_plan=plan,
    )
    engine = ParallelConservativeEngine(
        mapping.assignment,
        mapping.num_engines,
        lookahead,
        procs=procs,
        start_method=start_method,
        recovery=recovery,
    )
    base = dict(
        network=network_kind,
        procs=procs,
        seed=seed,
        duration_s=duration,
        kills=len(plan),
        on_worker_loss=on_worker_loss,
        plan_digest=plan.digest(),
        fault_lines=[pf.canonical() for pf in plan],
        reference_counters=dict(ref_collected["counters"]),
    )
    try:
        result = engine.run_scenario(spec, until=duration)
    except RecoveryExhaustedError as exc:
        return ProcessChaosResult(
            **base, recovery=None, byte_identical=False,
            counters_match=False, error=str(exc),
        )
    mp_collected = merge_collected(result.collected)
    return ProcessChaosResult(
        **base,
        recovery=result.recovery,
        byte_identical=(
            delivery_log_bytes(ref_collected) == delivery_log_bytes(mp_collected)
        ),
        counters_match=ref_collected["counters"] == mp_collected["counters"],
    )


def format_process_chaos_report(result: ProcessChaosResult) -> str:
    """Human-readable process-chaos report (``repro chaos --kill-workers``)."""
    lines = [
        f"process chaos  : {result.kills} worker kill(s) over {result.procs} "
        f"procs on {result.network} (seed {result.seed}, "
        f"{result.duration_s:g}s horizon, on-loss={result.on_worker_loss})",
        f"fault plan     : digest {result.plan_digest[:16]}",
    ]
    for line in result.fault_lines:
        window, shard, kind, incarnation, after = line.split("|")
        lines.append(
            f"  window {window} shard {shard} {kind} "
            f"(incarnation {incarnation}"
            + (", after send)" if after == "1" else ")")
        )
    if result.recovery is not None:
        r = result.recovery
        lines.append(
            f"recovery       : {r['detections']} detection(s), "
            f"{r['respawns']} respawn(s), {r['windows_replayed']} window(s) "
            f"replayed, {r['adoptions']} adoption(s); "
            f"{r['checkpoints_taken']} checkpoint(s), "
            f"{r['checkpoint_bytes']:,} bytes"
        )
        lines.append(
            "delivery log   : "
            + ("byte-identical to the 1-process reference"
               if result.byte_identical else "DIVERGED from the reference")
        )
    if result.recovered:
        verdict = "RECOVERED"
        detail = []
    elif result.error is not None:
        verdict = "FAILED"
        detail = [result.error]
    elif not result.byte_identical or not result.counters_match:
        verdict = "FAILED"
        detail = ["multi-process output diverged from the reference"]
    else:
        verdict = "DEGRADED"
        dead = result.recovery["dead_shards"]
        detail = [f"shard(s) {dead} adopted by survivors; "
                  f"output still byte-identical"]
    ref = result.reference_counters
    lines.append(
        f"reference run  : {ref['delivered']} delivered, {ref['unroutable']} unroutable "
        f"of {ref['sent']} sent"
    )
    lines.append(
        f"verdict        : {verdict}" + (f" ({'; '.join(detail)})" if detail else "")
    )
    return "\n".join(lines)


def format_chaos_report(result: ChaosResult) -> str:
    """Human-readable chaos report (the ``repro chaos`` CLI output)."""
    lines = [
        f"chaos scenario : {result.scenario} (seed {result.seed}, "
        f"{result.duration_s:g}s horizon)",
        f"schedule       : {result.num_fault_events} events, "
        f"digest {result.schedule_digest[:16]}",
        f"fault trace    : {len(result.fault_records)} records, "
        f"digest {result.fault_trace_digest[:16]}",
        "injected       : "
        + ", ".join(f"{k}={v}" for k, v in result.counts.as_dict().items() if v),
        "traffic        : "
        + ", ".join(f"{k}={v}" for k, v in result.traffic.items())
        + f", dropped_fault={result.dropped_fault}"
        + f", lost={result.packets_lost}, corrupted={result.packets_corrupted}",
        f"ospf           : {result.route_recompute['invalidations']} invalidations, "
        f"{result.route_recompute['trees_built']} trees built",
    ]
    if result.bgp is not None:
        lines.append(
            "bgp sessions   : "
            + ", ".join(f"{k}={v}" for k, v in result.bgp.as_dict().items())
        )
    verdict = "RECOVERED" if result.recovered else "DEGRADED"
    detail = []
    if not result.links_restored:
        detail.append("links still down")
    if not result.routers_restored:
        detail.append("routers still down")
    if not result.sessions_recovered:
        detail.append("BGP sessions not re-established")
    if not result.routes_recomputed:
        detail.append("no route recomputation observed")
    lines.append(
        f"verdict        : {verdict}" + (f" ({'; '.join(detail)})" if detail else "")
    )
    return "\n".join(lines)
