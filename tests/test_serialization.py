"""Tests for network and result persistence."""

from __future__ import annotations

import json

import pytest

from repro.routing import ForwardingPlane
from repro.routing.bgp import configure_bgp
from repro.serialization import (
    network_from_dict,
    network_to_dict,
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
    def test_result_dict(self, tmp_path):
        from repro.experiments import ExperimentScale, run_experiment
        from repro.core import Approach

        scale = ExperimentScale(
            name="io-test",
            flat_routers=60,
            flat_hosts=24,
            num_ases=4,
            routers_per_as=8,
            multi_hosts=16,
            http_clients=10,
            http_servers=4,
            http_mean_gap_s=0.5,
            num_engines=4,
            app_processes=3,
            scalapack_iterations=1,
            duration_s=3.0,
            profile_duration_s=1.5,
        )
        result = run_experiment(
            "single-as", "scalapack", approaches=[Approach.HTOP], scale=scale
        )
        doc = result_to_dict(result)
        assert doc["rows"][0]["approach"] == "HTOP"
        path = tmp_path / "result.json"
        save_result(result, path)
        loaded = json.loads(path.read_text())
        assert loaded["network_kind"] == "single-as"
        assert loaded["total_events"] == result.total_events
