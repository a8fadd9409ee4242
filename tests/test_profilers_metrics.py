"""Tests for traffic profiling and the evaluation metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ShardEngine
from repro.metrics import load_imbalance, parallel_efficiency
from repro.netsim import NetworkSimulator, send_datagram
from repro.profilers import TrafficProfile, node_rate_series


class TestTrafficProfile:
    def _profile(self):
        return TrafficProfile(
            node_events=np.array([10.0, 0.0, 5.0]),
            link_bytes=np.array([100.0, 200.0]),
            link_packets=np.array([1.0, 2.0]),
            duration_s=2.0,
        )

    def test_rates(self):
        p = self._profile()
        assert p.total_events == 15.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            TrafficProfile(np.array([1.0]), np.array([]), np.array([]), 0.0)
        with pytest.raises(ValueError):
            TrafficProfile(np.array([-1.0]), np.array([]), np.array([]), 1.0)

    def test_from_simulation(self, flat_net, flat_fib):
        k = ShardEngine([0] * flat_net.num_nodes, 1, lookahead=1.0)
        sim = NetworkSimulator(flat_net, flat_fib, k)
        hosts = flat_net.host_ids()
        sim.udp_bind(hosts[1], 9, lambda p: None)
        send_datagram(sim, hosts[0], hosts[1], 5000, port=9)
        k.run(until=1.0)
        p = TrafficProfile.from_simulation(sim, 1.0)
        assert p.total_events > 0
        assert p.link_bytes.sum() > 0
        assert p.node_events.shape[0] == flat_net.num_nodes

    def test_snapshot_is_copy(self, flat_net, flat_fib):
        k = ShardEngine([0] * flat_net.num_nodes, 1, lookahead=1.0)
        sim = NetworkSimulator(flat_net, flat_fib, k)
        p = TrafficProfile.from_simulation(sim, 1.0)
        counts = sim.node_packets  # a fresh array: written back whole
        counts[0] = 999
        sim.node_packets = counts
        assert sim.node_packets[0] == 999
        assert p.node_events[0] == 0


class TestProfileValidation:
    """The shape/consistency cross-checks added with the obs bridge."""

    def _profile(self, **overrides):
        kwargs = dict(
            node_events=np.array([10.0, 0.0, 5.0]),
            link_bytes=np.array([100.0, 200.0]),
            link_packets=np.array([1.0, 2.0]),
            duration_s=2.0,
        )
        kwargs.update(overrides)
        return TrafficProfile(**kwargs)

    def test_shape_properties(self):
        p = self._profile()
        assert p.num_nodes == 3
        assert p.num_links == 2

    def test_non_1d_arrays_rejected_with_clear_message(self):
        with pytest.raises(ValueError, match="node_events must be a 1-D"):
            self._profile(node_events=np.ones((3, 2)))
        with pytest.raises(ValueError, match="link_bytes must be a 1-D"):
            self._profile(link_bytes=np.ones((2, 2)))

    def test_link_array_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="different link sets"):
            self._profile(link_packets=np.array([1.0, 2.0, 3.0]))

    def test_negative_link_traffic_rejected(self):
        with pytest.raises(ValueError, match="link_packets must be non-negative"):
            self._profile(link_packets=np.array([1.0, -2.0]))

    def test_validate_topology_accepts_matching_network(self):
        self._profile().validate_topology(num_nodes=3, num_links=2)

    def test_validate_topology_names_the_mismatched_dimension(self):
        with pytest.raises(ValueError, match="covers 3 nodes.*has 7"):
            self._profile().validate_topology(num_nodes=7, num_links=2)
        with pytest.raises(ValueError, match="covers 2 links.*has 9"):
            self._profile().validate_topology(num_nodes=3, num_links=9)

    def test_weight_builder_rejects_foreign_profile(self, flat_net):
        from repro.core import Approach, build_weighted_graph

        foreign = self._profile()  # 3 nodes; flat_net is bigger
        with pytest.raises(ValueError, match="different network"):
            build_weighted_graph(flat_net, Approach.PROF, foreign)


class TestRateSeries:
    def test_binning(self):
        times = np.array([0.1, 0.2, 1.1, 2.9])
        nodes = np.array([0, 1, 0, 1])
        groups = np.array([0, 1])
        starts, rates = node_rate_series(times, nodes, groups, 2, 1.0, 3.0)
        assert starts.tolist() == [0.0, 1.0, 2.0]
        assert rates[0].tolist() == [1.0, 1.0]
        assert rates[1].tolist() == [1.0, 0.0]
        assert rates[2].tolist() == [0.0, 1.0]

    def test_internal_events_skipped(self):
        starts, rates = node_rate_series(
            np.array([0.5]), np.array([-1]), np.array([0]), 1, 1.0, 1.0
        )
        assert rates.sum() == 0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            node_rate_series(np.array([]), np.array([]), np.array([0]), 1, 0.0, 1.0)


class TestLoadImbalance:
    def test_perfect_balance_zero(self):
        assert load_imbalance(np.array([5.0, 5.0, 5.0])) == 0.0

    def test_known_value(self):
        rates = np.array([1.0, 3.0])
        assert load_imbalance(rates) == pytest.approx(0.5)

    def test_scale_invariant(self):
        a = np.array([1.0, 2.0, 3.0])
        assert load_imbalance(a) == pytest.approx(load_imbalance(a * 100))

    def test_all_zero(self):
        assert load_imbalance(np.zeros(4)) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            load_imbalance(np.array([]))



class TestParallelEfficiency:
    def test_ideal(self):
        assert parallel_efficiency(100.0, 10, 10.0) == pytest.approx(1.0)

    def test_paper_range(self):
        # HPROF: ~40% at 90 nodes.
        assert parallel_efficiency(100.0, 90, 2.78) == pytest.approx(0.4, abs=0.01)

    def test_invalid(self):
        with pytest.raises(ValueError):
            parallel_efficiency(1.0, 0, 1.0)
        with pytest.raises(ValueError):
            parallel_efficiency(1.0, 2, 0.0)
        with pytest.raises(ValueError):
            parallel_efficiency(-1.0, 2, 1.0)
