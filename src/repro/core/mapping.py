"""The end-to-end network mapping pipeline (paper Figure 4).

Traffic information + network structure -> graph preparation (weights) ->
graph partitioning (flat or hierarchical) -> partitioned network, i.e.
the assignment of simulated nodes to simulation engine nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..cluster.syncmodel import ClusterSpec, teragrid_cluster
from ..engine.parallel import ShardEngine
from ..netsim.simulator import NetworkSimulator
from ..online.agent import Agent
from ..partition.kway import partition_kway
from ..profilers.traffic import TrafficProfile
from ..routing.fib import ForwardingPlane
from ..topology.models import Network
from .approaches import Approach, build_weighted_graph
from .evaluate import PartitionEvaluation, evaluate_partition
from .hierarchical import HierarchicalResult, SweepRecord, hierarchical_partition

__all__ = ["NetworkMapping", "MappingPipeline", "run_profiling_simulation"]


@dataclass(frozen=True)
class NetworkMapping:
    """A completed mapping of virtual nodes to simulation engines."""

    approach: Approach
    assignment: np.ndarray
    num_engines: int
    evaluation: PartitionEvaluation
    #: chosen collapse threshold (0 for flat approaches)
    tmll_s: float = 0.0
    #: full sweep (hierarchical approaches only)
    sweep: list[SweepRecord] = field(default_factory=list)

    @property
    def achieved_mll_s(self) -> float:
        """Achieved minimum cross-partition link latency (seconds)."""
        return self.evaluation.mll_s

    @property
    def achieved_mll_ms(self) -> float:
        """Achieved MLL in milliseconds (the paper's reporting unit)."""
        return self.evaluation.mll_s * 1e3


class MappingPipeline:
    """Produce :class:`NetworkMapping`s for a network on a cluster.

    Parameters
    ----------
    net:
        The virtual network.
    num_engines:
        Simulation engine node count (the paper uses 90 of 128).
    cluster:
        Cluster spec providing the sync cost model; defaults to the
        TeraGrid model sized to ``num_engines``.
    """

    def __init__(
        self,
        net: Network,
        num_engines: int,
        cluster: ClusterSpec | None = None,
        seed: int = 0,
    ) -> None:
        if num_engines < 1:
            raise ValueError("num_engines must be >= 1")
        self.net = net
        self.num_engines = int(num_engines)
        self.cluster = cluster if cluster is not None else teragrid_cluster(num_engines)
        self.seed = seed

    @classmethod
    def for_network(
        cls,
        net: Network,
        num_engines: int,
        cluster: ClusterSpec | None = None,
        seed: int = 0,
    ) -> "MappingPipeline":
        return cls(net, num_engines, cluster, seed)

    @property
    def sync_cost_s(self) -> float:
        """Barrier cost of the configured engine count (seconds)."""
        return self.cluster.sync_cost_s(self.num_engines)

    # ------------------------------------------------------------------
    def run(
        self,
        approach: Approach,
        profile: TrafficProfile | None = None,
        imbalance_tolerance: float = 1.05,
        placement: list[int] | None = None,
    ) -> NetworkMapping:
        """Execute the mapping pipeline for one approach."""
        graph = build_weighted_graph(self.net, approach, profile, placement)
        if approach.hierarchical:
            result: HierarchicalResult = hierarchical_partition(
                graph,
                self.num_engines,
                sync_cost_s=self.sync_cost_s,
                seed=self.seed,
                imbalance_tolerance=imbalance_tolerance,
            )
            return NetworkMapping(
                approach=approach,
                assignment=result.assignment,
                num_engines=self.num_engines,
                evaluation=result.evaluation,
                tmll_s=result.tmll_s,
                sweep=result.sweep,
            )
        flat = partition_kway(
            graph, self.num_engines, seed=self.seed, imbalance_tolerance=imbalance_tolerance
        )
        evaluation = evaluate_partition(
            graph, flat.assignment, self.num_engines, self.sync_cost_s
        )
        return NetworkMapping(
            approach=approach,
            assignment=flat.assignment,
            num_engines=self.num_engines,
            evaluation=evaluation,
        )

    def run_all(
        self,
        approaches: list[Approach],
        profile: TrafficProfile | None = None,
    ) -> dict[Approach, NetworkMapping]:
        """Run several approaches; the profile is passed where needed."""
        return {a: self.run(a, profile if a.uses_profile else None) for a in approaches}


def run_profiling_simulation(
    net: Network,
    fib: ForwardingPlane,
    setup: Callable[[NetworkSimulator, Agent], None],
    duration_s: float,
) -> TrafficProfile:
    """The PROF bootstrap: run the workload briefly, collect traffic.

    ``setup(sim, agent)`` installs background traffic and applications
    (everything must self-start via the simulator's scheduler). The run
    is the paper's short run on a naive partition: the engine on the
    trivial one, one LP, whose measured traffic is partition-independent.
    """
    engine = ShardEngine([0] * net.num_nodes, 1, lookahead=duration_s)
    sim = NetworkSimulator(net, fib, engine)
    agent = Agent(sim)
    setup(sim, agent)
    engine.run(until=duration_s)
    return TrafficProfile.from_simulation(sim, duration_s)
