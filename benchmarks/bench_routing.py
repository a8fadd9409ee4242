"""Routing benchmarks: all-destination OSPF SPF on flat networks.

Builds one reverse shortest-path tree per member — what every
``mp-udp`` worker ends up doing — on the benchmark's 700-node network
and on a 2,000-router network nearer the paper's scale, and prints
trees/s and bytes per tree. There is no frozen replica to race against:
the numbers committed in ``docs/performance.md`` ("Routing: SPF") are
the baseline, and the heap Dijkstra the array SPF replaced lives on only
as the test oracle in ``tests/test_routing_ospf.py``.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_routing.py -s``.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from repro.routing import OspfRouting
from repro.topology import generate_flat_network


def build_all_trees(net) -> OspfRouting:
    """A fresh domain over the whole network, one tree per member."""
    members = list(range(net.num_nodes))
    ospf = OspfRouting(net, members)
    for dest in members:
        ospf.next_hop(members[dest - 1], dest)
    return ospf


@pytest.mark.parametrize(
    "routers, hosts", [(400, 300), (2000, 1500)], ids=["mp-udp-700", "flat-3500"]
)
def test_all_destination_spf(benchmark, routers, hosts):
    net = generate_flat_network(routers, hosts, seed=0)
    # Timed here, not read from ``benchmark.stats``: that is None under
    # --benchmark-disable, where pedantic runs the call once.
    walls: list[float] = []

    def timed_build(net) -> OspfRouting:
        start = perf_counter()
        ospf = build_all_trees(net)
        walls.append(perf_counter() - start)
        return ospf

    ospf = benchmark.pedantic(timed_build, args=(net,), rounds=3, iterations=1)
    trees = ospf.trees_built
    assert trees == net.num_nodes
    best_s = min(walls)
    tree_bytes = sum(tree.nbytes for tree in ospf._trees.values()) / trees
    print(
        f"\nSPF {net.num_nodes} nodes / {len(net.links)} links: "
        f"{trees} trees in {best_s:.3f} s (best of {len(walls)}) = {trees / best_s:,.0f} trees/s, "
        f"{best_s / trees * 1e6:.0f} us/tree, {tree_bytes:,.0f} bytes/tree"
    )
