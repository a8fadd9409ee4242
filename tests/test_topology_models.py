"""Tests for the Network / Node / Link / ASDomain data model."""

from __future__ import annotations

import pytest

from repro.topology import ASDomain, ASTier, Network, NodeKind


def tiny_net():
    net = Network()
    r0 = net.add_node(NodeKind.ROUTER, position=(0, 0))
    r1 = net.add_node(NodeKind.ROUTER, position=(100, 0))
    h = net.add_node(NodeKind.HOST, position=(0, 0))
    net.add_link(r0, r1, 1e9, 1e-3)
    net.add_link(h, r0, 100e6, 20e-6)
    return net, r0, r1, h


class TestConstruction:
    def test_counts(self):
        net, *_ = tiny_net()
        assert net.num_nodes == 3
        assert net.num_routers == 2
        assert net.num_hosts == 1
        assert net.num_links == 2

    def test_self_link_rejected(self):
        net, r0, *_ = tiny_net()
        with pytest.raises(ValueError):
            net.add_link(r0, r0, 1e9, 1e-3)

    def test_unknown_node_rejected(self):
        net, *_ = tiny_net()
        with pytest.raises(ValueError):
            net.add_link(0, 99, 1e9, 1e-3)

    def test_bad_latency_rejected(self):
        net, r0, r1, _ = tiny_net()
        with pytest.raises(ValueError):
            net.add_link(r0, r1, 1e9, 0.0)

    def test_bad_bandwidth_rejected(self):
        net, r0, r1, _ = tiny_net()
        with pytest.raises(ValueError):
            net.add_link(r0, r1, -1.0, 1e-3)

    def test_duplicate_as_rejected(self):
        net, *_ = tiny_net()
        net.add_as(1, ASTier.STUB)
        with pytest.raises(ValueError):
            net.add_as(1, ASTier.CORE)


class TestQueries:
    def test_neighbors(self):
        net, r0, r1, h = tiny_net()
        nbrs = {n for n, _ in net.neighbors(r0)}
        assert nbrs == {r1, h}

    def test_link_between(self):
        net, r0, r1, h = tiny_net()
        assert net.link_between(r0, r1) is not None
        assert net.link_between(r1, h) is None

    def test_link_other(self):
        net, r0, r1, _ = tiny_net()
        link = net.link_between(r0, r1)
        assert link.other(r0) == r1
        assert link.other(r1) == r0
        with pytest.raises(ValueError):
            link.other(99)

    def test_is_connected(self):
        net, *_ = tiny_net()
        assert net.is_connected()
        net.add_node(NodeKind.ROUTER)
        assert not net.is_connected()

    def test_degree(self):
        net, r0, r1, h = tiny_net()
        assert net.degree(r0) == 2
        assert net.degree(h) == 1


class TestASDomain:
    def test_relationships(self):
        dom = ASDomain(as_id=1, tier=ASTier.STUB, providers={2}, peers={3})
        assert dom.relationship_to(2) == "provider"
        assert dom.relationship_to(3) == "peer"
        with pytest.raises(KeyError):
            dom.relationship_to(9)

    def test_neighbor_ases(self):
        dom = ASDomain(as_id=1, tier=ASTier.REGIONAL, providers={2}, customers={4}, peers={3})
        assert dom.neighbor_ases == {2, 3, 4}


class TestConversions:
    def test_to_graph_dimensions(self):
        net, *_ = tiny_net()
        g = net.to_graph()
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_to_graph_latencies_match_links(self):
        net, *_ = tiny_net()
        g = net.to_graph()
        _, _, _, lat = g.edge_list()
        assert sorted(lat.tolist()) == pytest.approx([20e-6, 1e-3])

    def test_to_graph_custom_weights(self):
        net, *_ = tiny_net()
        g = net.to_graph(vertex_weight=[1.0, 2.0, 3.0], edge_weight=[5.0, 7.0])
        assert g.total_vertex_weight == pytest.approx(6.0)
