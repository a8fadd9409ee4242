"""Artifact-validator tests: one known-bad fixture per rule id.

Covers the topology (TOPO2xx), BGP-policy (BGP3xx), and partition
(PART4xx) validators, plus the construction-boundary hooks and the
clean pass over generated artifacts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    BgpPolicyError,
    PartitionValidationError,
    Severity,
    TopologyValidationError,
    check_bgp_policy,
    check_partition,
    check_topology,
    validate_bgp_policy,
    validate_partition,
    validate_topology,
)
from repro.partition import WeightedGraph
from repro.routing.bgp import configure_bgp
from repro.topology import generate_multi_as_network
from repro.topology.models import ASDomain, ASTier, Link, Network, NodeKind


def ids(findings):
    return sorted(f.rule_id for f in findings)


def two_as_net() -> Network:
    """Minimal symmetric 2-AS network: one router each, one border link."""
    net = Network()
    a = net.add_as(0, ASTier.CORE)
    b = net.add_as(1, ASTier.STUB)
    r0 = net.add_node(NodeKind.ROUTER, as_id=0)
    r1 = net.add_node(NodeKind.ROUTER, as_id=1)
    net.add_link(r0, r1, 1e9, 1e-3)
    a.routers, b.routers = [r0], [r1]
    a.customers.add(1)
    b.providers.add(0)
    a.border_links[1] = [(r0, r1)]
    b.border_links[0] = [(r1, r0)]
    return net


class TestTopologyValidator:
    def test_clean_two_as_net(self):
        assert check_topology(two_as_net()) == []

    def test_disconnected_fires_topo201(self):
        net = Network()
        net.add_node(NodeKind.ROUTER)
        net.add_node(NodeKind.ROUTER)
        findings = check_topology(net)
        assert ids(findings) == ["TOPO201"]
        with pytest.raises(TopologyValidationError, match="TOPO201"):
            validate_topology(net)

    def test_nonpositive_link_attrs_fire_topo202(self):
        net = Network()
        u = net.add_node(NodeKind.ROUTER)
        v = net.add_node(NodeKind.ROUTER)
        # add_link guards these at construction; corrupt the list directly
        # to model an artifact produced by an external loader.
        net.links.append(Link(0, u, v, bandwidth_bps=0.0, latency_s=-1.0))
        net._adj[u].append(0)
        net._adj[v].append(0)
        findings = check_topology(net)
        assert ids(findings) == ["TOPO202", "TOPO202"]

    def test_unmirrored_border_link_fires_topo203(self):
        net = two_as_net()
        net.as_domains[1].border_links = {}
        findings = check_topology(net)
        assert "TOPO203" in ids(findings)

    def test_phantom_border_link_fires_topo203(self):
        net = two_as_net()
        net.as_domains[0].border_links[1] = [(99, 100)]
        findings = check_topology(net)
        assert "TOPO203" in ids(findings)

    def test_conflicting_parallel_links_fire_topo204(self):
        net = Network()
        u = net.add_node(NodeKind.ROUTER)
        v = net.add_node(NodeKind.ROUTER)
        net.add_link(u, v, 1e9, 1e-3)
        net.add_link(u, v, 2e9, 1e-3)  # same pair, different bandwidth
        findings = check_topology(net)
        assert ids(findings) == ["TOPO204"]

    def test_wrong_as_membership_fires_topo205(self):
        net = two_as_net()
        net.as_domains[0].routers.append(net.as_domains[1].routers[0])
        findings = check_topology(net)
        assert "TOPO205" in ids(findings)

    def test_generated_multi_as_net_is_clean(self):
        net = generate_multi_as_network(
            num_ases=6, routers_per_as=5, num_hosts=8, seed=11
        )
        assert check_topology(net) == []


def sym_domains() -> dict[int, ASDomain]:
    """Three-AS chain: 0 provides to 1, 1 provides to 2, all symmetric."""
    d0 = ASDomain(0, ASTier.CORE, customers={1})
    d1 = ASDomain(1, ASTier.REGIONAL, providers={0}, customers={2})
    d2 = ASDomain(2, ASTier.STUB, providers={1})
    return {0: d0, 1: d1, 2: d2}


class TestBgpPolicyValidator:
    def test_clean_chain(self):
        assert check_bgp_policy(sym_domains()) == []

    def test_asymmetric_relationship_fires_bgp301(self):
        doms = sym_domains()
        doms[2].providers.clear()  # 1 still lists 2 as customer
        findings = check_bgp_policy(doms)
        assert ids(findings) == ["BGP301"]
        assert "AS 1" in findings[0].message and "AS 2" in findings[0].message
        with pytest.raises(BgpPolicyError, match="asymmetric"):
            validate_bgp_policy(doms)

    def test_unknown_neighbor_fires_bgp302(self):
        doms = sym_domains()
        doms[2].peers.add(77)
        findings = check_bgp_policy(doms)
        assert ids(findings) == ["BGP302"]
        assert "unknown AS 77" in findings[0].message

    def test_overlapping_roles_fire_bgp303(self):
        doms = sym_domains()
        doms[1].peers.add(0)  # 0 is already 1's provider
        doms[0].peers.add(1)
        findings = check_bgp_policy(doms)
        assert "BGP303" in ids(findings)

    def test_self_relationship_fires_bgp303(self):
        doms = sym_domains()
        doms[0].peers.add(0)
        assert "BGP303" in ids(check_bgp_policy(doms))

    def test_provider_cycle_fires_bgp304(self):
        # 0 -> 1 -> 2 -> 0 in the customer->provider digraph: each AS
        # pays the next — a dispute wheel.
        d0 = ASDomain(0, ASTier.REGIONAL, providers={1}, customers={2})
        d1 = ASDomain(1, ASTier.REGIONAL, providers={2}, customers={0})
        d2 = ASDomain(2, ASTier.REGIONAL, providers={0}, customers={1})
        findings = check_bgp_policy({0: d0, 1: d1, 2: d2})
        assert "BGP304" in ids(findings)
        [cycle] = [f for f in findings if f.rule_id == "BGP304"]
        assert "dispute wheel" in cycle.message

    def test_generated_multi_as_relationships_are_clean(self):
        net = generate_multi_as_network(
            num_ases=10, routers_per_as=4, num_hosts=8, seed=5
        )
        assert check_bgp_policy(net) == []

    def test_configure_bgp_rejects_asymmetric_network(self):
        net = two_as_net()
        net.as_domains[1].providers.clear()
        with pytest.raises(BgpPolicyError):
            configure_bgp(net)


class TestPartitionValidator:
    @pytest.fixture()
    def ring(self) -> WeightedGraph:
        n = 8
        u = np.arange(n)
        return WeightedGraph(n, u, (u + 1) % n, edge_latency=np.full(n, 1e-3))

    def test_clean_partition(self, ring):
        part = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        assert check_partition(ring, part, 2) == []
        ring.validate_partition(part, 2)  # raises on violation

    def test_wrong_length_fires_part401(self, ring):
        findings = check_partition(ring, np.zeros(3, dtype=np.int64), 2)
        assert ids(findings) == ["PART401"]

    def test_unassigned_vertex_fires_part401(self, ring):
        part = np.array([0, 0, -1, 0, 1, 1, 1, 1])
        findings = check_partition(ring, part, 2)
        assert "PART401" in ids(findings)
        with pytest.raises(PartitionValidationError, match="PART401"):
            validate_partition(ring, part, 2)

    def test_out_of_range_fires_part402(self, ring):
        part = np.array([0, 0, 5, 0, 1, 1, 1, 1])
        assert "PART402" in ids(check_partition(ring, part, 2))

    def test_empty_part_fires_part403(self, ring):
        part = np.zeros(8, dtype=np.int64)  # everything on engine 0 of 3
        findings = check_partition(ring, part, 3)
        assert ids(findings) == ["PART403"]
        assert "idle" in findings[0].message

    def test_weight_drift_fires_part404(self):
        # A NaN vertex weight poisons the accounting: per-part sums can
        # no longer reconcile against the graph total. The constructor
        # rejects NaN, so the weight drifts after construction.
        n = 4
        u = np.arange(n)
        g = WeightedGraph(n, u, (u + 1) % n, edge_latency=np.full(n, 1e-3))
        g.vwgt[2] = np.nan
        findings = check_partition(g, np.array([0, 0, 1, 1]), 2)
        assert "PART404" in ids(findings)

    def test_fewer_vertices_than_parts_allowed(self):
        g = WeightedGraph(2, [0], [1], edge_latency=[1e-3])
        assert check_partition(g, np.array([0, 1]), 4) == []

    def test_findings_are_error_severity(self, ring):
        findings = check_partition(ring, np.zeros(8, dtype=np.int64), 3)
        assert all(f.severity is Severity.ERROR for f in findings)
