"""Tests for network and result persistence."""

from __future__ import annotations

import json

import pytest

from repro.routing import ForwardingPlane
from repro.routing.bgp import configure_bgp
from repro.serialization import (
    network_from_dict,
    network_to_dict,
    result_from_dict,
    result_to_dict,
    save_result,
)


class TestNetworkRoundTrip:
    def test_flat_network(self, flat_net):
        loaded = network_from_dict(json.loads(json.dumps(network_to_dict(flat_net))))
        assert loaded.num_nodes == flat_net.num_nodes
        assert loaded.num_links == flat_net.num_links
        for a, b in zip(flat_net.nodes, loaded.nodes):
            assert (a.node_id, a.kind, a.as_id, a.position) == (
                b.node_id, b.kind, b.as_id, b.position
            )
        for a, b in zip(flat_net.links, loaded.links):
            assert (a.u, a.v, a.bandwidth_bps, a.latency_s, a.queue_bytes) == (
                b.u, b.v, b.bandwidth_bps, b.latency_s, b.queue_bytes
            )

    def test_multi_as_preserves_relationships(self, multi_net):
        loaded = network_from_dict(json.loads(json.dumps(network_to_dict(multi_net))))
        assert set(loaded.as_domains) == set(multi_net.as_domains)
        for as_id, dom in multi_net.as_domains.items():
            got = loaded.as_domains[as_id]
            assert got.tier == dom.tier
            assert got.providers == dom.providers
            assert got.customers == dom.customers
            assert got.peers == dom.peers
            assert got.border_links == dom.border_links
            assert got.default_routes == dom.default_routes

    def test_loaded_network_routes_identically(self, multi_net):
        loaded = network_from_dict(json.loads(json.dumps(network_to_dict(multi_net))))
        bgp_a = configure_bgp(multi_net)
        bgp_b = configure_bgp(loaded)
        hosts = multi_net.host_ids()
        fib_a = ForwardingPlane(multi_net, bgp_a)
        fib_b = ForwardingPlane(loaded, bgp_b)
        assert fib_a.node_path(hosts[0], hosts[-1]) == fib_b.node_path(
            hosts[0], hosts[-1]
        )

    def test_version_check(self, flat_net):
        doc = network_to_dict(flat_net)
        doc["format_version"] = 999
        with pytest.raises(ValueError, match="version"):
            network_from_dict(doc)


class TestResultSerialization:
    def test_result_dict(self, tmp_path, micro_ledger):
        doc = micro_ledger["results"][0]  # result_to_dict of a run, with its seed
        result = result_from_dict(doc)
        assert result_to_dict(result) == {k: v for k, v in doc.items() if k != "seed"}
        assert doc["rows"][0]["approach"] == "HPROF"
        path = tmp_path / "result.json"
        save_result(result, path)
        loaded = json.loads(path.read_text())
        assert loaded["network_kind"] == "single-as"
        assert loaded["total_events"] == result.total_events
