"""Shared fixtures: small networks and graphs reused across test modules.

Module-scoped where generation is expensive; tests must not mutate them.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

from repro.core import Approach
from repro.experiments import ExperimentScale
from repro.experiments.claims import claims_ledger
from repro.partition import WeightedGraph
from repro.routing import ForwardingPlane
from repro.routing.bgp import configure_bgp
from repro.topology import generate_flat_network, generate_multi_as_network


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def flat_net():
    """A small single-AS network: 150 routers, 50 hosts."""
    return generate_flat_network(num_routers=150, num_hosts=50, seed=7)


@pytest.fixture(scope="session")
def flat_fib(flat_net):
    return ForwardingPlane(flat_net)


@pytest.fixture(scope="session")
def multi_net():
    """A small multi-AS network: 12 ASes x 12 routers, 60 hosts."""
    return generate_multi_as_network(num_ases=12, routers_per_as=12, num_hosts=60, seed=11)


@pytest.fixture(scope="session")
def multi_bgp(multi_net):
    return configure_bgp(multi_net)


@pytest.fixture(scope="session")
def multi_fib(multi_net, multi_bgp):
    return ForwardingPlane(multi_net, multi_bgp)


@pytest.fixture()
def grid_graph():
    """An 8x8 grid graph with unit weights and uniform 1 ms latencies."""
    n = 8
    us, vs = [], []
    for r in range(n):
        for c in range(n):
            v = r * n + c
            if c + 1 < n:
                us.append(v)
                vs.append(v + 1)
            if r + 1 < n:
                us.append(v)
                vs.append(v + n)
    m = len(us)
    return WeightedGraph(n * n, us, vs, np.ones(m), np.full(m, 1e-3))


@pytest.fixture()
def two_cluster_graph():
    """Two dense 10-cliques joined by a single long-latency bridge.

    The obvious bisection cuts only the bridge; used to verify cut
    quality and MLL behavior.
    """
    us, vs, lat = [], [], []
    for base in (0, 10):
        for i in range(10):
            for j in range(i + 1, 10):
                us.append(base + i)
                vs.append(base + j)
                lat.append(0.1e-3)  # intra-cluster: 0.1 ms
    us.append(0)
    vs.append(10)
    lat.append(5e-3)  # bridge: 5 ms
    return WeightedGraph(20, us, vs, np.ones(len(us)), np.asarray(lat))


def _balance_cap(graph: WeightedGraph, tmll_s: float, num_parts: int) -> float:
    """``C_avg`` over the weight of the heaviest cluster left by collapsing
    every edge below ``tmll_s``: the most ``E = Es * Ec`` can reach there.

    The clusters come from scipy directly, not from the sweep's own code.
    """
    u, v, _, latencies = graph.edge_list()
    below = latencies < tmll_s
    n = graph.num_vertices
    adjacency = coo_array((np.ones(int(below.sum())), (u[below], v[below])), shape=(n, n))
    _, labels = connected_components(adjacency, directed=False)
    heaviest = np.bincount(labels, weights=graph.vwgt).max()
    return graph.vwgt.sum() / num_parts / heaviest if heaviest > 0 else np.inf


@pytest.fixture(scope="session")
def balance_cap():
    """:func:`_balance_cap`, for tests of which sweep candidates are capped."""
    return _balance_cap


#: a single-AS experiment small enough to run over seeds inside tier-1
MICRO = ExperimentScale(
    name="robustness", flat_routers=120, flat_hosts=60, num_ases=8, routers_per_as=12,
    multi_hosts=48, http_clients=36, http_servers=10, http_mean_gap_s=0.4, num_engines=8,
    app_processes=4, scalapack_iterations=3, duration_s=6.0, profile_duration_s=2.5,
    event_cost_s=75e-6, remote_event_cost_s=190e-6,
)


@pytest.fixture(scope="session")
def micro_ledger():
    """The claims ledger of single-AS ScaLapack at :data:`MICRO`, seeds 11
    and 23, over HPROF / HTOP / TOP2 and the claims those three decide."""
    return claims_ledger(
        [11, 23], scale=MICRO, experiments=[("single-as", "scalapack")],
        approaches=[Approach.HPROF, Approach.HTOP, Approach.TOP2],
        claim_ids=["mll-dominance", "htop-mll-above-top2", "time-near-top2",
                   "imbalance-improvement", "efficiency-gain"],
    )
