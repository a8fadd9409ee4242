"""Workload installation: background HTTP + one live application.

Mirrors the paper's experimental traffic mix: continuous HTTP background
between client/server host sets, plus either the ScaLapack or the
GridNPB (HC + VP + MB combined) live application on dedicated app hosts,
entering the simulation through the online layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..netsim.app.gridnpb import (
    GridNpbApp,
    helical_chain,
    mixed_bag,
    visualization_pipeline,
)
from ..netsim.app.http import HttpTraffic
from ..netsim.app.scalapack import ScaLapackApp
from ..netsim.simulator import NetworkSimulator
from ..online.agent import Agent
from ..topology.models import Network
from .config import ExperimentScale

__all__ = ["WorkloadHandles", "install_workload", "APP_KINDS"]

APP_KINDS = ("scalapack", "gridnpb")


@dataclass
class WorkloadHandles:
    """Live references to the installed workload components."""

    http: HttpTraffic
    apps: list = field(default_factory=list)
    clients: list[int] = field(default_factory=list)
    servers: list[int] = field(default_factory=list)
    app_hosts: list[int] = field(default_factory=list)

    @property
    def apps_finished(self) -> bool:
        """True when every installed application ran to completion."""
        return all(a.stats.finished for a in self.apps)


def _split_hosts(
    net: Network, scale: ExperimentScale, rng: np.random.Generator
) -> tuple[list[int], list[int], list[int]]:
    """Deterministically split hosts into clients / servers / app hosts."""
    hosts = net.host_ids()
    if len(hosts) < 4:
        raise ValueError("network needs at least 4 hosts for a workload")
    order = rng.permutation(len(hosts))
    shuffled = [hosts[int(i)] for i in order]
    n_app = min(scale.app_processes, max(2, len(hosts) // 4))
    app_hosts = shuffled[:n_app]
    remaining = shuffled[n_app:]
    n_clients, n_servers = scale.scaled_http_counts(len(hosts))
    n_clients = min(n_clients, max(1, len(remaining) - 1))
    n_servers = min(n_servers, max(1, len(remaining) - n_clients))
    clients = remaining[:n_clients]
    servers = remaining[n_clients : n_clients + n_servers]
    return clients, servers, app_hosts


def install_workload(
    sim: NetworkSimulator,
    agent: Agent,
    net: Network,
    app_kind: str,
    scale: ExperimentScale,
    seed: int = 0,
    duration_s: float | None = None,
) -> WorkloadHandles:
    """Install background + live-application traffic into a simulator.

    ``app_kind`` is ``"scalapack"`` or ``"gridnpb"`` (the paper's two
    workloads). Applications start at t=1 s (after background warms up).

    The client/server/app host split draws from a generator seeded with
    ``seed``, so the install is fully deterministic.
    """
    if app_kind not in APP_KINDS:
        raise ValueError(f"unknown app kind {app_kind!r}; expected one of {APP_KINDS}")
    clients, servers, app_hosts = _split_hosts(net, scale, np.random.default_rng(seed))
    stop = duration_s if duration_s is not None else scale.duration_s

    http = HttpTraffic(
        sim,
        clients,
        servers,
        seed=seed + 1,
        mean_gap_s=scale.http_mean_gap_s,
        mean_file_bytes=scale.http_mean_file_bytes,
        stop_at=stop,
    )
    http.start()

    apps: list = []
    if app_kind == "scalapack":
        app = ScaLapackApp(
            agent,
            app_hosts,
            iterations=scale.scalapack_iterations,
            name=f"scalapack-{seed}",
        )
        app.start(at=1.0)
        apps.append(app)
    else:
        # The paper combines HC, VP and MB; spread them over the app hosts.
        third = max(1, len(app_hosts) // 3)
        groups = [app_hosts[:third], app_hosts[third : 2 * third], app_hosts[2 * third :]]
        flows = [helical_chain(), visualization_pipeline(), mixed_bag(seed=seed)]
        for i, (grp, wf) in enumerate(zip(groups, flows)):
            hosts = grp if grp else app_hosts
            app = GridNpbApp(agent, hosts, wf, name=f"{wf.name}-{seed}-{i}")
            app.start(at=1.0)
            apps.append(app)

    return WorkloadHandles(
        http=http, apps=apps, clients=clients, servers=servers, app_hosts=app_hosts
    )
