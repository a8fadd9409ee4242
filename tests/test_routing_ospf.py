"""Tests for OSPF shortest-path routing."""

from __future__ import annotations

import hashlib
import heapq

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.routing import ForwardingPlane, OspfRouting, ospf_link_metric
from repro.routing import ospf as ospf_module
from repro.topology import Network, NodeKind, generate_flat_network


def diamond_net():
    """0 -(1ms)- 1 -(1ms)- 3 ; 0 -(5ms)- 2 -(1ms)- 3 : short path via 1."""
    net = Network()
    for _ in range(4):
        net.add_node(NodeKind.ROUTER)
    net.add_link(0, 1, 1e9, 1e-3)
    net.add_link(1, 3, 1e9, 1e-3)
    net.add_link(0, 2, 1e9, 5e-3)
    net.add_link(2, 3, 1e9, 1e-3)
    return net


class TestMetric:
    def test_latency_dominates(self):
        assert ospf_link_metric(1e-3, 1e9) < ospf_link_metric(2e-3, 1e9)

    def test_bandwidth_tiebreak(self):
        assert ospf_link_metric(1e-3, 10e9) < ospf_link_metric(1e-3, 100e6)

    def test_tiebreak_is_small(self):
        # Bandwidth must never override a latency difference.
        assert ospf_link_metric(1e-3, 10e9) > ospf_link_metric(0.9e-3, 100e6)


class TestNextHop:
    def test_prefers_short_path(self):
        ospf = OspfRouting(diamond_net(), [0, 1, 2, 3])
        assert ospf.next_hop(0, 3) == 1

    def test_next_hop_to_self_is_none(self):
        ospf = OspfRouting(diamond_net(), [0, 1, 2, 3])
        assert ospf.next_hop(2, 2) is None

    def test_unreachable_outside_domain(self):
        net = diamond_net()
        iso = net.add_node(NodeKind.ROUTER)
        ospf = OspfRouting(net, [0, 1, 2, 3, iso])
        assert ospf.next_hop(0, iso) is None

    def test_destination_not_member_is_unreachable(self):
        # what the docstrings promise for any unreachable destination,
        # answered without building a tree toward a node outside the domain
        ospf = OspfRouting(diamond_net(), [0, 1, 2])
        assert ospf.next_hop(0, 3) is None
        assert ospf.distance(0, 3) == np.inf
        assert ospf.path(0, 3) is None
        assert ospf.trees_built == 0 and ospf.cached_destinations() == []
        assert ospf.distance(3, 0) == np.inf  # a non-member source, as before

    def test_paths_never_leave_member_set(self):
        # Restrict to {0, 2, 3}: route 0->3 must go via 2 despite cost.
        ospf = OspfRouting(diamond_net(), [0, 2, 3])
        assert ospf.next_hop(0, 3) == 2


class TestPathAndDistance:
    def test_path_endpoints(self):
        ospf = OspfRouting(diamond_net(), [0, 1, 2, 3])
        path = ospf.path(0, 3)
        assert path == [0, 1, 3]

    def test_distance_additive(self):
        ospf = OspfRouting(diamond_net(), [0, 1, 2, 3])
        d = ospf.distance(0, 3)
        assert d == pytest.approx(2e-3, rel=0.01)

    def test_distance_zero_to_self(self):
        ospf = OspfRouting(diamond_net(), [0, 1, 2, 3])
        assert ospf.distance(1, 1) == 0.0

    def test_distance_unreachable_is_inf(self):
        net = diamond_net()
        iso = net.add_node(NodeKind.ROUTER)
        ospf = OspfRouting(net, [0, 1, 2, 3, iso])
        assert ospf.distance(0, iso) == np.inf
        assert ospf.path(0, iso) is None

    def test_triangle_inequality_on_flat_net(self, flat_net):
        members = list(range(flat_net.num_nodes))
        ospf = OspfRouting(flat_net, members)
        rng = np.random.default_rng(0)
        ids = rng.choice(flat_net.num_nodes, size=6, replace=False)
        for a in ids[:3]:
            for b in ids[3:]:
                d_ab = ospf.distance(int(a), int(b))
                for c in ids:
                    if c in (a, b):
                        continue
                    assert d_ab <= ospf.distance(int(a), int(c)) + ospf.distance(
                        int(c), int(b)
                    ) + 1e-12

    def test_symmetric_distances(self, flat_net):
        ospf = OspfRouting(flat_net, list(range(flat_net.num_nodes)))
        assert ospf.distance(3, 77) == pytest.approx(ospf.distance(77, 3))

    def test_trees_cached(self):
        ospf = OspfRouting(diamond_net(), [0, 1, 2, 3])
        ospf.next_hop(0, 3)
        ospf.next_hop(1, 3)
        assert ospf.cached_destinations() == [0, 1, 2, 3]


class TestDistanceUsesSpfMetric:
    """``distance`` prices a hop as SPF did: cheapest in-service parallel link."""

    def parallel_net(self):
        """0 =(3 ms, 1 ms, 2 ms)= 1 and the detour 0 -(1.5 ms)- 2 -(1 ms)- 1."""
        net = Network()
        for _ in range(3):
            net.add_node(NodeKind.ROUTER)
        parallel = [net.add_link(0, 1, 1e9, ms * 1e-3) for ms in (3, 1, 2)]
        net.add_link(0, 2, 1e9, 1.5e-3)
        net.add_link(2, 1, 1e9, 1e-3)
        return net, parallel

    def test_cheapest_parallel_link_prices_the_hop(self):
        net, _parallel = self.parallel_net()
        ospf = OspfRouting(net, [0, 1, 2])
        assert ospf.path(0, 1) == [0, 1]
        assert ospf.distance(0, 1) == ospf_link_metric(1e-3, 1e9)

    def test_down_links_leave_the_cheapest_survivor(self):
        net, (_three_ms, one_ms, two_ms) = self.parallel_net()
        ospf = OspfRouting(net, [0, 1, 2])
        ospf.set_link_state(one_ms, False)
        assert ospf.path(0, 1) == [0, 1]
        assert ospf.distance(0, 1) == ospf_link_metric(2e-3, 1e9)
        ospf.set_link_state(two_ms, False)  # 3 ms direct loses to the detour
        assert ospf.path(0, 1) == [0, 2, 1]
        assert ospf.distance(0, 1) == (
            ospf_link_metric(1.5e-3, 1e9) + ospf_link_metric(1e-3, 1e9)
        )


# ----------------------------------------------------------------------
# Differential suite: the array SPF against the heap Dijkstra it replaced
# ----------------------------------------------------------------------
def heap_build_tree(
    net: Network,
    member_set: set[int],
    down_links: set[int],
    down_nodes: set[int],
    dest: int,
) -> dict[int, int]:
    """The oracle: ``OspfRouting._build_tree`` as it stood before the
    array SPF, body verbatim (``self.`` state passed in). Its heap order
    ``(dist, node, via)`` and strict ``<`` relaxation *define* the
    tie-break every fingerprint in the repo depends on."""
    if dest not in member_set:
        raise KeyError(f"destination {dest} not in this OSPF domain")
    if down_nodes and dest in down_nodes:
        return {}
    dist: dict[int, float] = {dest: 0.0}
    next_hop: dict[int, int] = {}
    heap: list[tuple[float, int, int]] = [(0.0, dest, dest)]
    done: set[int] = set()
    while heap:
        d, v, toward = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        if v != dest:
            next_hop[v] = toward
        for u, link in net.neighbors(v):
            if u not in member_set or u in done:
                continue
            if down_links and link.link_id in down_links:
                continue
            if down_nodes and u in down_nodes:
                continue
            nd = d + ospf_link_metric(link.latency_s, link.bandwidth_bps)
            if nd < dist.get(u, np.inf):
                dist[u] = nd
                # From u, the first hop toward dest is v itself.
                heapq.heappush(heap, (nd, u, v))
    return next_hop


#: Few distinct values, so equal-cost paths and equal parallel links are
#: the common case rather than the exception.
LATENCIES = (1e-3, 2e-3, 3e-3)
BANDWIDTHS = (1e8, 1e9)


@st.composite
def ospf_cases(draw):
    """A connected multigraph, a member subset, and a fault state.

    Links: a random spanning tree plus extras that may repeat a pair
    (parallel links). One extra linkless node is always a member (the
    isolated one); down nodes may include any destination.
    """
    n = draw(st.integers(min_value=2, max_value=12))
    net = Network()
    for _ in range(n + 1):
        net.add_node(NodeKind.ROUTER)
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs += draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=2 * n,
        )
    )
    for u, v in pairs:
        net.add_link(
            u, v, draw(st.sampled_from(BANDWIDTHS)), draw(st.sampled_from(LATENCIES))
        )
    members = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    ) + [n]
    down_links = draw(st.sets(st.integers(0, len(pairs) - 1), max_size=3))
    down_nodes = draw(st.sets(st.sampled_from(members), max_size=2))
    return net, members, down_links, down_nodes


def blocks_built(asked: list[int], members: list[int]) -> list[int]:
    """What ``cached_destinations`` holds after asking ``asked`` in order:
    the first ask in a block of ``SPF_BLOCK`` member rows (members in
    node-id order) builds the whole block."""
    rows = sorted(members)
    block = ospf_module.SPF_BLOCK
    built: list[int] = []
    for dest in asked:
        if dest not in built:
            first = rows.index(dest) // block * block
            built += rows[first:first + block]
    return built


def tables(ospf: OspfRouting, nodes: range) -> dict[int, dict[int, int]]:
    """``{dest: {node: next_hop}}`` over every member destination, asked
    for every node of the network (non-members must answer ``None``)."""
    out: dict[int, dict[int, int]] = {}
    for dest in ospf.members:
        out[dest] = {}
        for node in nodes:
            hop = ospf.next_hop(node, dest)
            if hop is not None:
                assert type(hop) is int  # cached, pickled and hashed downstream
                out[dest][node] = hop
    return out


def tables_equal_the_oracle(case) -> None:
    """Healthy tables, then under the case's down links and nodes, then
    healthy again: each equal to the heap oracle's, with the counts of
    a fresh domain asked every member destination."""
    net, members, down_links, down_nodes = case
    nodes = range(net.num_nodes)
    ospf = OspfRouting(net, members)
    healthy = tables(ospf, nodes)
    assert healthy == {
        dest: heap_build_tree(net, set(members), set(), set(), dest)
        for dest in members
    }
    assert ospf.trees_built == len(members)
    assert ospf.cached_destinations() == blocks_built(members, members)

    for link_id in sorted(down_links):
        ospf.set_link_state(link_id, False)
    for node in sorted(down_nodes):
        ospf.set_node_state(node, False)
    changes = len(down_links) + len(down_nodes)
    assert ospf.invalidations == changes
    assert ospf.cached_destinations() == ([] if changes else blocks_built(members, members))
    ospf.set_node_state(members[0], members[0] not in down_nodes)  # no change
    assert ospf.invalidations == changes
    assert tables(ospf, nodes) == {
        dest: heap_build_tree(net, set(members), down_links, down_nodes, dest)
        for dest in members
    }
    assert ospf.trees_built == len(members) * (2 if changes else 1)

    for link_id in sorted(down_links):
        ospf.set_link_state(link_id, True)
    for node in sorted(down_nodes):
        ospf.set_node_state(node, True)
    assert ospf.invalidations == 2 * changes
    assert tables(ospf, nodes) == healthy


class TestArraySpfMatchesHeapOracle:
    SETTINGS = settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )

    @SETTINGS
    @given(ospf_cases())
    def test_next_hop_tables_equal_the_oracle(self, case):
        tables_equal_the_oracle(case)

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_tables_equal_the_oracle_in_blocks_of(self, block):
        # trees built one, three and sixty-four to an SPF call
        @self.SETTINGS
        @given(ospf_cases())
        def check(case):
            tables_equal_the_oracle(case)

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(ospf_module, "SPF_BLOCK", block)
            check()

    @SETTINGS
    @given(ospf_cases())
    def test_distance_sums_the_metrics_spf_used(self, case):
        net, members, down_links, down_nodes = case
        ospf = OspfRouting(net, members)
        for link_id in down_links:
            ospf.set_link_state(link_id, False)
        for node in down_nodes:
            ospf.set_node_state(node, False)
        up = set(members) - down_nodes
        for dest in members:
            for node in members:
                if node == dest:
                    continue
                path = ospf.path(node, dest)
                if path is None:
                    assert ospf.distance(node, dest) == np.inf
                    continue
                total = 0.0
                for a, b in zip(path, path[1:]):
                    total += min(
                        ospf_link_metric(link.latency_s, link.bandwidth_bps)
                        for nbr, link in net.neighbors(a)
                        if nbr == b and link.link_id not in down_links
                    )
                assert up.issuperset(path)
                assert ospf.distance(node, dest) == total


class TestTieBreakGuard:
    """Recorded from the heap Dijkstra on the ``mp-udp`` benchmark network.

    Every ``expected.json`` fingerprint of ``benchmarks/e2e`` and the
    regression fingerprint depend on these next hops; an SPF change that
    alters a tie-break fails here in a second, before any of them.
    """

    ALL_TABLES_SHA256 = "e463066491b220614f476259af253f9014bed0203d8f725d4344ef832d3ea1f9"
    WALK_DIGEST = "dbed1ceb4aa0e9311f8a678113aa0d2ae1643abf77f4d457df17c68dbe1ca4f3"

    def test_all_700_tables_and_fib_walk_unchanged(self):
        net = generate_flat_network(400, 300, seed=0)
        n = net.num_nodes
        ospf = OspfRouting(net, list(range(n)))
        h = hashlib.sha256()
        for dest in range(n):
            for node in range(n):
                hop = ospf.next_hop(node, dest)
                h.update(f"{node},{dest}->{-1 if hop is None else hop};".encode())
        assert h.hexdigest() == self.ALL_TABLES_SHA256
        assert ospf.trees_built == n

        fib = ForwardingPlane(net)
        rng = np.random.default_rng(0)
        for node, dest in rng.integers(0, n, size=(2000, 2)).tolist():
            fib.next_hop(node, dest)
        assert fib.digest() == self.WALK_DIGEST
        assert fib.route_recompute_stats() == {"invalidations": 0, "trees_built": 700}

    def test_all_700_tables_unchanged_in_blocks_of_three(self, monkeypatch):
        # 234 SPF calls whose blocks cut across hosts and routers alike,
        # the last one a single row
        monkeypatch.setattr(ospf_module, "SPF_BLOCK", 3)
        net = generate_flat_network(400, 300, seed=0)
        n = net.num_nodes
        ospf = OspfRouting(net, list(range(n)))
        h = hashlib.sha256()
        for dest in range(n):
            for node in range(n):
                hop = ospf.next_hop(node, dest)
                h.update(f"{node},{dest}->{-1 if hop is None else hop};".encode())
        assert h.hexdigest() == self.ALL_TABLES_SHA256
        assert ospf.trees_built == n
