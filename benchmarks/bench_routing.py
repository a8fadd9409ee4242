"""Routing benchmarks: OSPF SPF on flat networks, dense and sparse.

Dense: one reverse shortest-path tree per member — what every ``mp-udp``
worker ends up doing — on the benchmark's 700-node network and on a
2,000-router network nearer the paper's scale. Sparse: the trees the
``pipeline-single-as`` pass asks for on its 350-node network, recorded
from one pass of that workload and replayed on a fresh domain. SPF
builds trees a block of ``SPF_BLOCK`` member rows at a time, so a
sparse run builds more trees than it asks for; the sparse case prints
both counts.

Every case prints µs and bytes per tree. There is no frozen replica to
race against: the numbers committed in ``docs/performance.md``
("Routing: SPF", "Routing in blocks") are the baseline, and the heap
Dijkstra the array SPF replaced lives on only as the test oracle in
``tests/test_routing_ospf.py``.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_routing.py -s``.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

import pytest

from repro.routing import ForwardingPlane, OspfRouting
from repro.topology import generate_flat_network


def build_trees(net, destinations) -> OspfRouting:
    """A fresh domain over the whole network, asked once per destination."""
    members = list(range(net.num_nodes))
    ospf = OspfRouting(net, members)
    for dest in destinations:
        ospf.next_hop(members[dest - 1], dest)
    return ospf


def timed(benchmark, net, destinations) -> tuple[OspfRouting, list[float]]:
    """:func:`build_trees` 3 times (once under --benchmark-disable): the
    domain it built and each wall."""
    # Timed here, not read from ``benchmark.stats``: that is None under
    # --benchmark-disable, where pedantic runs the call once.
    walls: list[float] = []

    def timed_build(net) -> OspfRouting:
        start = perf_counter()
        ospf = build_trees(net, destinations)
        walls.append(perf_counter() - start)
        return ospf

    ospf = benchmark.pedantic(timed_build, args=(net,), rounds=3, iterations=1)
    return ospf, walls


def report(net, ospf: OspfRouting, asked: int, walls: list[float]) -> None:
    trees = ospf.trees_built
    best_s = min(walls)
    tree_bytes = sum(tree.nbytes for tree in ospf._trees.values()) / trees
    print(
        f"\nSPF {net.num_nodes} nodes / {len(net.links)} links: {asked} trees asked, "
        f"{trees} built in {best_s:.3f} s (best of {len(walls)}) = {trees / best_s:,.0f} trees/s, "
        f"{best_s / trees * 1e6:.0f} us/tree, {tree_bytes:,.0f} bytes/tree"
    )


@pytest.mark.parametrize(
    "routers, hosts", [(400, 300), (2000, 1500)], ids=["mp-udp-700", "flat-3500"]
)
def test_all_destination_spf(benchmark, routers, hosts):
    net = generate_flat_network(routers, hosts, seed=0)
    ospf, walls = timed(benchmark, net, range(net.num_nodes))
    assert ospf.trees_built == net.num_nodes
    report(net, ospf, net.num_nodes, walls)


class AskRecordingPlane(ForwardingPlane):
    """A forwarding plane that records each destination it is first asked
    to route to, in order."""

    def __init__(self, net, bgp=None) -> None:
        super().__init__(net, bgp)
        self.asked: dict[int, None] = {}

    def next_hop(self, node: int, dest: int) -> int | None:
        if node != dest:
            self.asked.setdefault(dest)
        return super().next_hop(node, dest)


def test_pipeline_destinations_spf(benchmark, monkeypatch):
    """The destinations one ``pipeline-single-as`` pass asks for, seed 0."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent / "e2e"))
    import workloads
    from tracing import Recorder

    planes: list[AskRecordingPlane] = []

    def recording_plane(net, bgp=None):
        planes.append(AskRecordingPlane(net, bgp))
        return planes[-1]

    monkeypatch.setattr(workloads, "ForwardingPlane", recording_plane)
    layers = workloads.run_pipeline(workloads.setup_pipeline(0, False), Recorder())["layers"]
    (plane,) = planes
    asked = list(plane.asked)
    ospf, walls = timed(benchmark, plane.net, asked)
    assert ospf.trees_built == layers["routing.trees_built"]
    report(plane.net, ospf, len(asked), walls)
