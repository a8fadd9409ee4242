"""Tests for the composed forwarding plane (OSPF + BGP + defaults)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.routing import ForwardingPlane
from repro.routing.bgp import configure_bgp, is_valley_free, render_dml
from repro.topology import ASTier


class TestSingleAs:
    def test_paths_complete(self, flat_net, flat_fib):
        hosts = flat_net.host_ids()
        path = flat_fib.node_path(hosts[0], hosts[-1])
        assert path is not None
        assert path[0] == hosts[0] and path[-1] == hosts[-1]

    def test_consecutive_hops_adjacent(self, flat_net, flat_fib):
        hosts = flat_net.host_ids()
        path = flat_fib.node_path(hosts[1], hosts[-2])
        for a, b in zip(path, path[1:]):
            assert flat_net.link_between(a, b) is not None

    def test_next_hop_to_self_none(self, flat_fib, flat_net):
        h = flat_net.host_ids()[0]
        assert flat_fib.next_hop(h, h) is None

    def test_caching_stable(self, flat_net, flat_fib):
        hosts = flat_net.host_ids()
        a = flat_fib.next_hop(hosts[0], hosts[5])
        b = flat_fib.next_hop(hosts[0], hosts[5])
        assert a == b

    def test_as_level_path_single(self, flat_net, flat_fib):
        hosts = flat_net.host_ids()
        assert flat_fib.as_level_path(hosts[0], hosts[1]) == [0]


class TestMultiAs:
    def test_bgp_converged(self, multi_bgp, multi_net):
        assert multi_bgp.iterations > 0
        n = len(multi_net.as_domains)
        # All ASes reach all prefixes (the repaired hierarchy guarantees it).
        for a, reach in multi_bgp.reachability_matrix().items():
            assert len(reach) == n

    def test_all_host_pairs_reachable(self, multi_net, multi_fib):
        hosts = multi_net.host_ids()
        rng = np.random.default_rng(1)
        for _ in range(30):
            a, b = rng.choice(hosts, 2, replace=False)
            path = multi_fib.node_path(int(a), int(b))
            assert path is not None
            assert path[0] == a and path[-1] == b

    def test_paths_valley_free(self, multi_net, multi_fib, multi_bgp):
        def rel(a, b):
            return multi_net.as_domains[a].relationship_to(b)

        hosts = multi_net.host_ids()
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = rng.choice(hosts, 2, replace=False)
            as_path = multi_fib.as_level_path(int(a), int(b))
            assert as_path is not None
            dest_as = multi_net.nodes[int(b)].as_id
            assert is_valley_free(tuple(as_path[1:]), dest_as, rel), as_path

    def test_as_path_matches_bgp(self, multi_net, multi_fib, multi_bgp):
        hosts = multi_net.host_ids()
        a, b = hosts[0], hosts[-1]
        as_a = multi_net.nodes[a].as_id
        as_b = multi_net.nodes[b].as_id
        if as_a != as_b:
            fwd = multi_fib.as_level_path(a, b)
            # Stub default routing may deviate from the BGP best path only
            # at the first hop toward the provider; both must end at as_b.
            assert fwd[0] == as_a and fwd[-1] == as_b

    def test_intra_as_stays_local(self, multi_net, multi_fib):
        # Two routers of one AS never route through another AS.
        some_as = next(iter(multi_net.as_domains.values()))
        r0, r1 = some_as.routers[0], some_as.routers[-1]
        as_path = multi_fib.as_level_path(r0, r1)
        assert as_path == [some_as.as_id]

    def test_stub_external_goes_to_provider_first(self, multi_net, multi_fib):
        stubs = [d for d in multi_net.as_domains.values() if d.tier is ASTier.STUB]
        if not stubs:
            pytest.skip("no stub AS at this size")
        stub = stubs[0]
        target_as = next(
            a for a, d in multi_net.as_domains.items()
            if a != stub.as_id and a not in stub.neighbor_ases
        )
        target = multi_net.as_domains[target_as].routers[0]
        as_path = multi_fib.as_level_path(stub.routers[0], target)
        assert as_path is not None
        assert as_path[1] in stub.providers  # default route: via a provider

    def test_hot_potato_no_loops(self, multi_net, multi_fib):
        # node_path returning non-None already proves loop-freedom (it
        # bounds hops); hammer a broader sample.
        hosts = multi_net.host_ids()
        routers = [d.routers[0] for d in multi_net.as_domains.values()]
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = int(rng.choice(routers))
            b = int(rng.choice(hosts))
            assert multi_fib.node_path(a, b) is not None


class TestDmlRendering:
    def test_render_structure(self, multi_net):
        doc = render_dml(multi_net)
        ases = doc["Net"]["AS"]
        assert len(ases) == len(multi_net.as_domains)
        for entry in ases:
            dom = multi_net.as_domains[entry["id"]]
            assert len(entry["bgp"]["import_policy"]) == len(dom.neighbor_ases)
            for rule in entry["bgp"]["import_policy"]:
                assert rule["action"] == "permit"
            for rule in entry["bgp"]["export_policy"]:
                rel = dom.relationship_to(rule["neighbor_as"])
                expected = "all" if rel == "customer" else "local+customer"
                assert rule["announce"] == expected

    def test_stub_entries_have_default_route(self, multi_net):
        doc = render_dml(multi_net)
        for entry in doc["Net"]["AS"]:
            dom = multi_net.as_domains[entry["id"]]
            if dom.tier is ASTier.STUB and dom.default_routes:
                assert "default_route" in entry
                assert entry["default_route"]["provider_as"] in dom.providers
