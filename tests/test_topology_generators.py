"""Tests for BRITE-style and maBrite topology generation."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.topology import (
    ASTier,
    MIN_LINK_LATENCY_S,
    NodeKind,
    Plane,
    assign_relationships,
    classify_ases,
    generate_as_level_topology,
    generate_flat_network,
    generate_multi_as_network,
    powerlaw_edges,
    waxman_edges,
)
from repro.topology.brite import assign_bandwidths, CAPACITY_LADDER_BPS


class TestPowerlawEdges:
    def test_connected(self):
        rng = np.random.default_rng(0)
        u, v = powerlaw_edges(100, 2, rng)
        from repro.partition import WeightedGraph

        assert WeightedGraph(100, u, v).is_connected()

    def test_edge_count(self):
        rng = np.random.default_rng(0)
        u, v = powerlaw_edges(100, 2, rng)
        # clique seed C(3,2)=3 edges + 97 nodes x 2
        assert len(u) == 3 + 97 * 2

    def test_heavy_tail_degree(self):
        rng = np.random.default_rng(1)
        u, v = powerlaw_edges(500, 2, rng)
        deg = np.zeros(500)
        np.add.at(deg, u, 1)
        np.add.at(deg, v, 1)
        # Preferential attachment: max degree far above the mean.
        assert deg.max() > 5 * deg.mean()

    def test_tiny_inputs(self):
        rng = np.random.default_rng(0)
        u, v = powerlaw_edges(1, 2, rng)
        assert len(u) == 0
        u, v = powerlaw_edges(2, 5, rng)
        assert len(u) == 1  # m clamped to n-1


class TestWaxmanEdges:
    def test_connected_by_construction(self, rng):
        pts = Plane(100, 100).random_points(60, rng)
        u, v = waxman_edges(pts, np.random.default_rng(3))
        from repro.partition import WeightedGraph

        assert WeightedGraph(60, u, v).is_connected()

    def test_distance_bias(self, rng):
        # With strong locality (small beta), short edges dominate.
        pts = Plane(1000, 1000).random_points(80, rng)
        u, v = waxman_edges(pts, np.random.default_rng(5), alpha=0.9, beta=0.05)
        d = np.linalg.norm(pts[u] - pts[v], axis=1)
        all_d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        assert np.median(d) < np.median(all_d[np.triu_indices(80, 1)])

    def test_tiny(self):
        u, v = waxman_edges(np.zeros((1, 2)), np.random.default_rng(0))
        assert len(u) == 0


class TestBandwidthAssignment:
    def test_values_from_ladder(self, rng):
        u = np.array([0, 1, 2])
        v = np.array([1, 2, 0])
        deg = np.array([2, 2, 2])
        bw = assign_bandwidths(u, v, deg, rng)
        assert all(b in CAPACITY_LADDER_BPS for b in bw)

    def test_high_degree_gets_fat_pipes(self):
        rng = np.random.default_rng(0)
        # Edges sorted by degree-sum: endpoint degrees 1..100
        m = 200
        u = np.zeros(m, dtype=np.int64)
        v = np.arange(m, dtype=np.int64)
        deg = np.arange(m + 1)
        bw = assign_bandwidths(u, v, deg, rng)
        assert bw[-20:].mean() > bw[:20].mean()

    def test_empty(self, rng):
        out = assign_bandwidths(np.empty(0, int), np.empty(0, int), np.empty(0), rng)
        assert out.size == 0


class TestFlatNetwork:
    def test_counts(self, flat_net):
        assert flat_net.num_routers == 150
        assert flat_net.num_hosts == 50
        assert flat_net.is_connected()

    def test_single_as(self, flat_net):
        assert set(n.as_id for n in flat_net.nodes) == {0}
        assert 0 in flat_net.as_domains

    def test_latency_floor(self, flat_net):
        assert min(l.latency_s for l in flat_net.links) >= MIN_LINK_LATENCY_S * 0.999

    def test_hosts_attached_to_routers(self, flat_net):
        for h in flat_net.host_ids():
            nbrs = list(flat_net.neighbors(h))
            assert len(nbrs) == 1
            assert flat_net.nodes[nbrs[0][0]].kind is NodeKind.ROUTER

    def test_deterministic(self):
        a = generate_flat_network(num_routers=50, num_hosts=10, seed=9)
        b = generate_flat_network(num_routers=50, num_hosts=10, seed=9)
        assert a.num_links == b.num_links
        assert [l.latency_s for l in a.links] == [l.latency_s for l in b.links]

    def test_waxman_model(self):
        net = generate_flat_network(num_routers=60, num_hosts=10, seed=2, model="waxman")
        assert net.is_connected()

    def test_default_host_count(self):
        net = generate_flat_network(num_routers=40, seed=1)
        assert net.num_hosts == 20


class TestASClassification:
    def test_tiers_cover_all(self):
        rng = np.random.default_rng(0)
        edges = generate_as_level_topology(50, rng)
        tiers = classify_ases(50, edges)
        assert set(tiers) == set(range(50))

    def test_core_is_top_degree(self):
        rng = np.random.default_rng(0)
        edges = generate_as_level_topology(50, rng)
        tiers = classify_ases(50, edges, core_fraction=0.04)
        deg = Counter()
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        cores = [a for a, t in tiers.items() if t is ASTier.CORE]
        non_core_max = max(deg[a] for a, t in tiers.items() if t is not ASTier.CORE)
        assert min(deg[c] for c in cores) >= non_core_max * 0.5
        assert len(cores) == 2

    def test_stubs_low_degree(self):
        rng = np.random.default_rng(1)
        edges = generate_as_level_topology(60, rng)
        tiers = classify_ases(60, edges)
        deg = Counter()
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        for a, t in tiers.items():
            if t is ASTier.STUB:
                assert deg[a] <= 2


class TestRelationships:
    def _topo(self, n=40, seed=0):
        rng = np.random.default_rng(seed)
        edges = generate_as_level_topology(n, rng)
        tiers = classify_ases(n, edges)
        return assign_relationships(n, edges, tiers, rng)

    def test_symmetry(self):
        topo = self._topo()
        for a in range(topo.num_ases):
            for p in topo.providers[a]:
                assert a in topo.customers[p]
            for c in topo.customers[a]:
                assert a in topo.providers[c]
            for q in topo.peers[a]:
                assert a in topo.peers[q]

    def test_every_non_core_has_provider(self):
        topo = self._topo()
        for a in range(topo.num_ases):
            if topo.tiers[a] is not ASTier.CORE:
                assert topo.providers[a], f"AS {a} has no provider"

    def test_core_clique(self):
        topo = self._topo()
        cores = [a for a in range(topo.num_ases) if topo.tiers[a] is ASTier.CORE]
        for i, a in enumerate(cores):
            for b in cores[i + 1 :]:
                assert b in topo.peers[a]

    def test_provider_path_to_core(self):
        topo = self._topo()
        for a in range(topo.num_ases):
            seen = set()
            frontier = {a}
            reached_core = topo.tiers[a] is ASTier.CORE
            while frontier and not reached_core:
                nxt = set()
                for x in frontier:
                    for p in topo.providers[x]:
                        if topo.tiers[p] is ASTier.CORE:
                            reached_core = True
                        if p not in seen:
                            seen.add(p)
                            nxt.add(p)
                frontier = nxt
            assert reached_core, f"AS {a} cannot climb to the core"


class TestMultiAsNetwork:
    def test_structure(self, multi_net):
        assert len(multi_net.as_domains) == 12
        assert multi_net.num_routers == 144
        assert multi_net.is_connected()

    def test_hosts_on_stubs_only(self, multi_net):
        stub_ases = {
            a for a, d in multi_net.as_domains.items() if d.tier is ASTier.STUB
        }
        if stub_ases:  # tiny nets may classify no stubs
            for h in multi_net.host_ids():
                assert multi_net.nodes[h].as_id in stub_ases

    def test_border_links_symmetric(self, multi_net):
        for as_id, dom in multi_net.as_domains.items():
            for nbr, links in dom.border_links.items():
                other = multi_net.as_domains[nbr].border_links[as_id]
                assert {(b, a) for a, b in links} == set(other)

    def test_border_links_match_relationships(self, multi_net):
        for as_id, dom in multi_net.as_domains.items():
            assert set(dom.border_links) == dom.neighbor_ases

    def test_stub_default_routes(self, multi_net):
        for as_id, dom in multi_net.as_domains.items():
            if dom.tier is ASTier.STUB:
                assert dom.default_routes
                for egress, provider in dom.default_routes:
                    assert provider in dom.providers
                    assert egress in dom.routers

    def test_border_routers_in_their_as(self, multi_net):
        for as_id, dom in multi_net.as_domains.items():
            for nbr, links in dom.border_links.items():
                for local, remote in links:
                    assert multi_net.nodes[local].as_id == as_id
                    assert multi_net.nodes[remote].as_id == nbr
