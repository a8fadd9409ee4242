"""Experiment driver: reproduce the paper's evaluation figures.

One experiment = (network kind, application) pair. The driver

1. generates the network (single-AS flat / multi-AS maBrite + BGP),
2. runs a short profiling simulation (the PROF bootstrap),
3. runs the measured simulation once, recording the event trace and the
   per-hop transmissions,
4. maps the network with each approach and evaluates every mapping
   against the recorded run with the cluster cost model:
   simulation time T, achieved MLL, measured load imbalance, and
   parallel efficiency — the paper's four metrics (Figures 6-13).

Step 4 is sound because the virtual network's behavior is independent of
the mapping; only the parallel execution cost differs (see DESIGN.md).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

from ..cluster.syncmodel import ClusterSpec, teragrid_cluster
from ..core.approaches import Approach
from ..core.mapping import MappingPipeline, NetworkMapping, run_profiling_simulation
from ..engine.costmodel import (
    WallclockPrediction,
    predict_from_trace,
    sequential_time_estimate,
    window_for_mapping,
)
from ..engine.parallel import ShardEngine
from ..metrics.efficiency import parallel_efficiency
from ..metrics.loadbalance import load_imbalance
from ..netsim.simulator import NetworkSimulator
from ..obs import export as obs_export
from ..obs.registry import observed_run
from ..obs.timers import Stopwatch
from ..online.agent import Agent
from ..profilers.traffic import TrafficProfile
from ..routing.fib import ForwardingPlane
from ..topology.brite import generate_flat_network
from ..topology.mabrite import generate_multi_as_network
from ..topology.models import Network
from .config import ExperimentScale, default_scale
from .workloads import WorkloadHandles, install_workload

__all__ = [
    "cluster_for_scale",
    "ApproachRow",
    "ExperimentResult",
    "build_network",
    "run_workload_simulation",
    "evaluate_mappings",
    "run_experiment",
    "DEFAULT_APPROACHES",
    "FIGURE_APPROACHES",
]

#: The four approaches of Figures 6/8/9/10/12/13 (TOP/PROF appear only in
#: the MLL figures, where their tiny MLL explains their exclusion).
DEFAULT_APPROACHES = [Approach.HPROF, Approach.PROF2, Approach.HTOP, Approach.TOP2]

#: What the figures map: Figures 7/11 add TOP and PROF. The figure
#: benchmarks, the claims ledger and ``python -m repro figures`` use it.
FIGURE_APPROACHES = [*DEFAULT_APPROACHES, Approach.PROF, Approach.TOP]


def cluster_for_scale(scale: ExperimentScale) -> ClusterSpec:
    """The TeraGrid cluster with the scale's engine-speed calibration."""
    from dataclasses import replace

    return replace(
        teragrid_cluster(scale.num_engines),
        event_cost_s=scale.event_cost_s,
        remote_event_cost_s=scale.remote_event_cost_s,
    )


@dataclass(frozen=True)
class ApproachRow:
    """One bar of a paper figure: all metrics for one mapping approach."""

    approach: Approach
    sim_time_s: float
    achieved_mll_ms: float
    measured_imbalance: float
    parallel_eff: float
    #: ``None`` on a row read back from a saved summary
    prediction: WallclockPrediction | None = None
    mapping: NetworkMapping | None = None

    def as_dict(self) -> dict[str, float | str]:
        """The row as plain values (serialization and table rendering)."""
        return {
            "approach": self.approach.value,
            "sim_time_s": self.sim_time_s,
            "achieved_mll_ms": self.achieved_mll_ms,
            "load_imbalance": self.measured_imbalance,
            "parallel_efficiency": self.parallel_eff,
        }


@dataclass
class ExperimentResult:
    """All rows of one (network, application) experiment."""

    network_kind: str
    app_kind: str
    scale_name: str
    num_engines: int
    total_events: int
    duration_s: float
    rows: list[ApproachRow] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: workload health of the measured run
    http_responses: int = 0
    apps_finished: bool = False

    def row(self, approach: Approach) -> ApproachRow:
        """The row for ``approach`` (KeyError if absent)."""
        for r in self.rows:
            if r.approach is approach:
                return r
        raise KeyError(f"no row for {approach}")

    def metric(self, approach: Approach, name: str) -> float:
        """One metric value by approach and metric key."""
        return float(self.row(approach).as_dict()[name])


# ----------------------------------------------------------------------
def build_network(network_kind: str, scale: ExperimentScale, seed: int = 0) -> Network:
    """Generate the experiment network; callers that route build its
    ``ForwardingPlane`` (on multi-AS, a whole BGP convergence)."""
    if network_kind == "single-as":
        net = generate_flat_network(
            num_routers=scale.flat_routers, num_hosts=scale.flat_hosts, seed=seed
        )
    elif network_kind == "multi-as":
        net = generate_multi_as_network(
            num_ases=scale.num_ases,
            routers_per_as=scale.routers_per_as,
            num_hosts=scale.multi_hosts,
            seed=seed,
        )
    else:
        raise ValueError(f"unknown network kind {network_kind!r}")
    return net


def run_workload_simulation(
    net: Network,
    fib: ForwardingPlane,
    app_kind: str,
    scale: ExperimentScale,
    duration_s: float,
    seed: int = 0,
    mapping: NetworkMapping | None = None,
) -> tuple[ShardEngine, NetworkSimulator, WorkloadHandles]:
    """Run the measured simulation with trace + transmission recording.

    Without ``mapping``, one LP: the engine on the trivial partition,
    whose window is the whole run. The virtual network's behavior does
    not depend on the mapping, so this one run is scored under every
    candidate. With ``mapping``, the engine owns every LP of that
    partition — per-LP queues, cross-LP mailboxes, barrier windows of
    the mapping's achieved MLL (clamped to the run length when nothing
    is cut), a lower bound on every cross-LP link latency — so its
    ``window_stats`` are the windows the distributed engine would run.
    Run it under ``observed_run()`` / ``traced_run()`` to observe it.
    """
    if mapping is None:
        engine = ShardEngine([0] * net.num_nodes, 1, lookahead=duration_s, record_trace=True)
    else:
        engine = ShardEngine(
            mapping.assignment, mapping.num_engines,
            window_for_mapping(mapping.achieved_mll_s, duration_s), record_trace=True,
        )
    sim = NetworkSimulator(net, fib, engine, record_transmissions=True)
    agent = Agent(sim)
    handles = install_workload(sim, agent, net, app_kind, scale, seed, duration_s)
    engine.run(until=duration_s)
    return engine, sim, handles


def evaluate_mappings(
    engine: ShardEngine,
    sim: NetworkSimulator,
    mappings: dict[Approach, NetworkMapping],
    cluster: ClusterSpec,
    num_engines: int,
    duration_s: float,
) -> list[ApproachRow]:
    """Score each mapping against the recorded run (the paper's metrics).

    ``engine`` is built with ``record_trace=True`` (on any partition:
    one LP or the mapping a run executed under), ``sim`` its simulator
    built with ``record_transmissions=True``.
    """
    times, nodes = engine.trace()
    tx_t, tx_f, tx_to = sim.transmissions()
    rows: list[ApproachRow] = []
    tseq = sequential_time_estimate(len(times), cluster)
    for approach, mapping in mappings.items():
        window = window_for_mapping(mapping.achieved_mll_s, duration_s)
        pred = predict_from_trace(
            times,
            nodes,
            mapping.assignment,
            num_engines,
            window,
            duration_s,
            cluster,
            tx_t,
            tx_f,
            tx_to,
        )
        imbalance = load_imbalance(pred.events_per_lp / duration_s)
        pe = parallel_efficiency(tseq, num_engines, pred.total_s)
        rows.append(
            ApproachRow(
                approach=approach,
                sim_time_s=pred.total_s,
                achieved_mll_ms=mapping.achieved_mll_ms,
                measured_imbalance=imbalance,
                parallel_eff=pe,
                prediction=pred,
                mapping=mapping,
            )
        )
    return rows


def run_experiment(
    network_kind: str,
    app_kind: str,
    approaches: list[Approach] | None = None,
    scale: ExperimentScale | None = None,
    seed: int = 0,
    obs_out: str | None = None,
) -> ExperimentResult:
    """End-to-end experiment for one (network, application) pair.

    With ``obs_out`` set, the measured run executes under an enabled
    observability registry and its snapshot (counters and per-node,
    per-link and per-LP vectors) is written to that path as JSON — the
    ``--obs-out`` plumbing the benchmarks expose.
    """
    watch = Stopwatch()
    scale = scale if scale is not None else default_scale()
    approaches = approaches if approaches is not None else list(DEFAULT_APPROACHES)

    net = build_network(network_kind, scale, seed)
    fib = ForwardingPlane(net)

    def profile_setup(sim: NetworkSimulator, agent: Agent) -> None:
        install_workload(
            sim, agent, net, app_kind, scale, seed, duration_s=scale.profile_duration_s
        )

    profile: TrafficProfile | None = None
    if any(a.uses_profile for a in approaches):
        profile = run_profiling_simulation(net, fib, profile_setup, scale.profile_duration_s)

    with observed_run() if obs_out is not None else nullcontext() as reg:
        engine, sim, handles = run_workload_simulation(
            net, fib, app_kind, scale, scale.duration_s, seed
        )
    if obs_out is not None:
        obs_export.write_snapshot(
            obs_out,
            reg,
            meta={
                "network": network_kind,
                "app": app_kind,
                "scale": scale.name,
                "seed": seed,
                "duration_s": scale.duration_s,
            },
        )

    cluster = cluster_for_scale(scale)
    pipeline = MappingPipeline(net, scale.num_engines, cluster, seed)
    mappings = pipeline.run_all(approaches, profile)
    rows = evaluate_mappings(
        engine, sim, mappings, cluster, scale.num_engines, scale.duration_s
    )

    return ExperimentResult(
        network_kind=network_kind,
        app_kind=app_kind,
        scale_name=scale.name,
        num_engines=scale.num_engines,
        total_events=engine.events_executed,
        duration_s=scale.duration_s,
        rows=rows,
        wall_seconds=watch.elapsed(),
        http_responses=handles.http.stats.responses_completed,
        apps_finished=handles.apps_finished,
    )
