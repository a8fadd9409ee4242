"""Tests for weight assignment and partition evaluation (E = Es * Ec)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Approach,
    balance_efficiency,
    build_weighted_graph,
    evaluate_partition,
    latency_to_edge_weight,
    prof_edge_weights,
    prof_vertex_weights,
    sync_efficiency,
    top_edge_weights,
    top_vertex_weights,
)
from repro.profilers import TrafficProfile


def fake_profile(net, hot_node=None):
    events = np.ones(net.num_nodes)
    if hot_node is not None:
        events[hot_node] = 1000.0
    packets = np.ones(net.num_links)
    return TrafficProfile(
        node_events=events,
        link_bytes=packets * 1000,
        link_packets=packets,
        duration_s=1.0,
    )


class TestLatencyConversion:
    def test_smaller_latency_larger_weight(self):
        lats = np.array([0.1e-3, 1e-3, 10e-3])
        for scheme in ("base", "tuned"):
            w = latency_to_edge_weight(lats, scheme)
            assert w[0] > w[1] > w[2]

    def test_tuned_penalizes_harder(self):
        lats = np.array([0.05e-3, 1e-3])
        base = latency_to_edge_weight(lats, "base")
        tuned = latency_to_edge_weight(lats, "tuned")
        assert tuned[0] / tuned[1] > base[0] / base[1]

    def test_caps(self):
        tiny = np.array([1e-9])
        assert latency_to_edge_weight(tiny, "base")[0] == 1e3
        assert latency_to_edge_weight(tiny, "tuned")[0] == 1e8

    def test_invalid(self):
        with pytest.raises(ValueError):
            latency_to_edge_weight(np.array([0.0]))
        with pytest.raises(ValueError):
            latency_to_edge_weight(np.array([1e-3]), "bogus")


class TestVertexWeights:
    def test_top_tracks_bandwidth(self, flat_net):
        w = top_vertex_weights(flat_net)
        assert w.shape[0] == flat_net.num_nodes
        assert w.mean() == pytest.approx(1.0)
        bandwidth = [sum(l.bandwidth_bps for _, l in flat_net.neighbors(v)) for v in range(flat_net.num_nodes)]
        hub = int(np.argmax(bandwidth))
        assert w[hub] == w.max()

    def test_prof_tracks_events(self, flat_net):
        p = fake_profile(flat_net, hot_node=3)
        w = prof_vertex_weights(flat_net, p)
        assert w[3] == w.max()
        assert w.mean() == pytest.approx(1.0)

    def test_prof_size_mismatch(self, flat_net):
        bad = TrafficProfile(np.ones(3), np.ones(1), np.ones(1), 1.0)
        with pytest.raises(ValueError):
            prof_vertex_weights(flat_net, bad)


class TestEdgeWeights:
    def test_top_edges_one_per_link(self, flat_net):
        w = top_edge_weights(flat_net)
        assert w.shape[0] == flat_net.num_links

    def test_prof_traffic_raises_weight(self, flat_net):
        p = fake_profile(flat_net)
        p.link_packets[0] = 10_000.0
        w_hot = prof_edge_weights(flat_net, p)
        p2 = fake_profile(flat_net)
        w_cold = prof_edge_weights(flat_net, p2)
        assert w_hot[0] > w_cold[0]

    def test_prof_latency_term_not_diluted(self, flat_net):
        """An idle small-latency edge must stay more expensive than a busy
        long-latency edge (the MLL protection property)."""
        p = fake_profile(flat_net)
        lats = np.array([l.latency_s for l in flat_net.links])
        short_idle = int(np.argmin(lats))
        long_busy = int(np.argmax(lats))
        p.link_packets[long_busy] = p.link_packets.sum() * 0.5
        w = prof_edge_weights(flat_net, p, scheme="tuned")
        if lats[long_busy] > 20 * lats[short_idle]:
            assert w[short_idle] > w[long_busy]

    def test_invalid_gain(self, flat_net):
        with pytest.raises(ValueError):
            prof_edge_weights(flat_net, fake_profile(flat_net), traffic_gain=-1.0)


class TestBuildWeightedGraph:
    def test_profile_required_for_prof(self, flat_net):
        with pytest.raises(ValueError, match="requires a traffic profile"):
            build_weighted_graph(flat_net, Approach.PROF)

    @pytest.mark.parametrize("approach", list(Approach))
    def test_all_approaches_build(self, flat_net, approach):
        profile = fake_profile(flat_net) if approach.uses_profile else None
        placement = flat_net.host_ids()[:4] if approach.uses_placement else None
        g = build_weighted_graph(flat_net, approach, profile, placement)
        assert g.num_vertices == flat_net.num_nodes
        assert g.num_edges == flat_net.num_links

    def test_placement_required_for_place(self, flat_net):
        with pytest.raises(ValueError, match="placement"):
            build_weighted_graph(flat_net, Approach.PLACE)

    def test_approach_flags(self):
        assert Approach.HPROF.hierarchical and Approach.HPROF.uses_profile
        assert Approach.HTOP.hierarchical and not Approach.HTOP.uses_profile
        assert not Approach.TOP.hierarchical
        assert Approach.TOP2.conversion_scheme == "tuned"
        assert Approach.HPROF.conversion_scheme == "base"
        assert Approach.PLACE.uses_placement and not Approach.PLACE.uses_profile


class TestPlaceWeights:
    def test_app_hosts_boosted(self, flat_net):
        from repro.core import place_vertex_weights, top_vertex_weights

        hosts = flat_net.host_ids()[:3]
        w_place = place_vertex_weights(flat_net, hosts, boost=10.0)
        w_top = top_vertex_weights(flat_net)
        # Relative to the mean, app hosts gain weight.
        for h in hosts:
            assert w_place[h] / w_place.mean() > w_top[h] / w_top.mean()

    def test_access_router_boosted_too(self, flat_net):
        from repro.core import place_vertex_weights, top_vertex_weights

        host = flat_net.host_ids()[0]
        router = next(n for n, _ in flat_net.neighbors(host))
        w_place = place_vertex_weights(flat_net, [host], boost=10.0)
        w_top = top_vertex_weights(flat_net)
        assert w_place[router] / w_top[router] > 1.0

    def test_invalid(self, flat_net):
        from repro.core import place_vertex_weights

        with pytest.raises(ValueError):
            place_vertex_weights(flat_net, [0], boost=-1.0)
        with pytest.raises(ValueError):
            place_vertex_weights(flat_net, [10**9])


class TestEfficiencyMetric:
    def test_sync_efficiency_bounds(self):
        assert sync_efficiency(np.inf, 1e-3) == 1.0
        assert sync_efficiency(1e-3, 1e-3) == 0.0
        assert sync_efficiency(2e-3, 1e-3) == pytest.approx(0.5)
        assert sync_efficiency(0.5e-3, 1e-3) == 0.0  # clamped

    def test_sync_efficiency_invalid(self):
        with pytest.raises(ValueError):
            sync_efficiency(0.0, 1e-3)

    def test_balance_efficiency(self):
        assert balance_efficiency(np.array([2.0, 2.0])) == 1.0
        assert balance_efficiency(np.array([1.0, 3.0])) == pytest.approx(2 / 3)
        assert balance_efficiency(np.zeros(2)) == 1.0

    def test_evaluate_partition(self, two_cluster_graph):
        part = np.array([0] * 10 + [1] * 10)
        ev = evaluate_partition(two_cluster_graph, part, 2, sync_cost_s=1e-3)
        assert ev.mll_s == pytest.approx(5e-3)
        assert ev.es == pytest.approx(0.8)
        assert ev.ec == 1.0
        assert ev.efficiency == pytest.approx(0.8)
        assert ev.predicted_imbalance == 0.0
        assert ev.edge_cut == pytest.approx(1.0)

    def test_evaluate_detects_imbalance(self, two_cluster_graph):
        part = np.array([0] * 15 + [1] * 5)
        ev = evaluate_partition(two_cluster_graph, part, 2, sync_cost_s=1e-4)
        assert ev.ec < 1.0
        assert ev.predicted_imbalance > 0.0

    def test_product_tradeoff(self, two_cluster_graph):
        """E must penalize both a tiny MLL and a bad balance."""
        balanced = np.array([0] * 10 + [1] * 10)  # cuts only the bridge
        ev_good = evaluate_partition(two_cluster_graph, balanced, 2, 1e-3)
        # split inside one clique: MLL collapses to 0.1 ms < sync cost
        bad_mll = balanced.copy()
        bad_mll[0:5] = 1
        bad_mll[10:] = 0
        ev_bad = evaluate_partition(two_cluster_graph, bad_mll, 2, 1e-3)
        assert ev_good.efficiency > ev_bad.efficiency
