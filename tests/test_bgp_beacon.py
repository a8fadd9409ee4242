"""Tests for BGP beacon experiments and RIB comparison (paper §7)."""

from __future__ import annotations

import pytest

from repro.routing.bgp import BgpEngine, BgpSpeaker, configure_bgp
from repro.routing.bgp.beacon import BeaconExperiment, compare_ribs


def chain_engine():
    """1 (core) provides to 2, 2 provides to 3 (stub)."""
    speakers = {
        1: BgpSpeaker(1, {2: "customer"}),
        2: BgpSpeaker(2, {1: "provider", 3: "customer"}),
        3: BgpSpeaker(3, {2: "provider"}),
    }
    eng = BgpEngine(speakers)
    eng.run()
    return eng


class TestBeacon:
    def test_withdraw_removes_routes_everywhere(self):
        eng = chain_engine()
        beacon = BeaconExperiment(eng, beacon_as=3)
        record = beacon.withdraw()
        assert record.action == "withdraw"
        assert record.reachable_from == frozenset()
        for a in (1, 2):
            assert eng.route(a, 3) is None

    def test_announce_restores_reachability(self):
        eng = chain_engine()
        beacon = BeaconExperiment(eng, beacon_as=3)
        beacon.withdraw()
        record = beacon.announce()
        assert record.reachable_from == frozenset({1, 2, 3})
        assert eng.as_path(1, 3) == (1, 2, 3)

    def test_affected_ases_tracked(self):
        eng = chain_engine()
        beacon = BeaconExperiment(eng, beacon_as=3)
        record = beacon.withdraw()
        # every AS that held a route to 3 changed state (incl. 3 itself)
        assert record.affected_ases == frozenset({1, 2, 3})

    def test_announce_convergence_scales_with_distance(self):
        eng = chain_engine()
        beacon = BeaconExperiment(eng, beacon_as=3)
        beacon.withdraw()
        record = beacon.announce()
        # route must travel 2 AS hops + 1 quiescent round
        assert record.iterations >= 2

    def test_unknown_as_rejected(self):
        eng = chain_engine()
        with pytest.raises(ValueError):
            BeaconExperiment(eng, beacon_as=99)

    def test_beacon_on_generated_network(self, multi_net):
        eng = configure_bgp(multi_net)
        stub = max(multi_net.as_domains)  # any AS works
        beacon = BeaconExperiment(eng, beacon_as=stub)
        down = beacon.withdraw()
        assert stub not in {a for rec in [down] for a in rec.reachable_from}
        up = beacon.announce()
        assert len(up.reachable_from) == len(multi_net.as_domains)


class TestCompareRibs:
    def test_identical_engines_agree(self):
        a, b = chain_engine(), chain_engine()
        sim = compare_ribs(a, b)
        assert sim == {
            "coverage": 1.0,
            "next_hop_agreement": 1.0,
            "path_agreement": 1.0,
        }

    def test_withdrawn_prefix_lowers_coverage(self):
        a = chain_engine()
        b = chain_engine()
        BeaconExperiment(b, beacon_as=3).withdraw()
        sim = compare_ribs(a, b)
        assert sim["coverage"] < 1.0
        assert sim["path_agreement"] < 1.0

    def test_empty_engines(self):
        a = BgpEngine({1: BgpSpeaker(1, {})})
        b = BgpEngine({2: BgpSpeaker(2, {})})
        sim = compare_ribs(a, b)
        assert sim["coverage"] == 1.0  # vacuous


class TestOriginationFlag:
    def test_non_originating_speaker_has_empty_rib(self):
        sp = BgpSpeaker(5, {}, originates=False)
        assert sp.rib == {}

    def test_originating_speaker_seeds_rib(self):
        sp = BgpSpeaker(5, {})
        assert 5 in sp.rib
