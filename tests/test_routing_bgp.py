"""Tests for BGP attributes, policies, decision process, and the engine."""

from __future__ import annotations

import pytest

from repro.routing.bgp import (
    BgpEngine,
    BgpSpeaker,
    LOCAL_PREF,
    Origin,
    Route,
    best_route,
    decision_key,
    export_allowed,
    import_local_pref,
    is_valley_free,
    learned_relationship,
)


def mk_route(prefix=9, path=(2, 9), pref=100, nh=None, origin=Origin.IGP, med=0):
    return Route(
        prefix=prefix,
        as_path=tuple(path),
        local_pref=pref,
        next_hop_as=nh if nh is not None else (path[0] if path else prefix),
        origin=origin,
        med=med,
    )


class TestRoute:
    def test_originate(self):
        r = Route.originate(5)
        assert r.prefix == 5
        assert r.is_local
        assert r.path_length == 0
        assert r.local_pref == LOCAL_PREF["local"]

    def test_announced_by_prepends(self):
        r = Route.originate(5).announced_by(5, 100)
        assert r.as_path == (5,)
        assert r.next_hop_as == 5
        assert r.local_pref == 100

    def test_loop_detection(self):
        r = mk_route(path=(2, 3, 9))
        assert r.contains_loop(3)
        assert not r.contains_loop(7)


class TestDecision:
    def test_local_pref_first(self):
        lo = mk_route(pref=80, path=(1, 9))
        hi = mk_route(pref=100, path=(2, 3, 4, 5, 9))  # longer path, higher pref
        assert best_route([lo, hi]) is hi

    def test_shorter_path_wins(self):
        short = mk_route(path=(2, 9))
        long = mk_route(path=(3, 4, 9))
        assert best_route([long, short]) is short

    def test_origin_ranks_third(self):
        igp = mk_route(origin=Origin.IGP)
        egp = mk_route(path=(3, 9), origin=Origin.EGP)
        # same pref, same length: IGP preferred
        assert best_route([egp, igp]) is igp

    def test_med_ranks_fourth(self):
        low = mk_route(med=1)
        high = mk_route(path=(3, 9), med=10)
        chosen = best_route([high, low])
        assert chosen.med == 1

    def test_next_hop_tiebreak_deterministic(self):
        a = mk_route(path=(2, 9))
        b = mk_route(path=(3, 9))
        assert best_route([b, a]).next_hop_as == 2

    def test_empty(self):
        assert best_route([]) is None

    def test_decision_key_orders(self):
        better = mk_route(pref=100)
        worse = mk_route(pref=90)
        assert decision_key(better) < decision_key(worse)


class TestPolicies:
    RELS = {2: "customer", 3: "peer", 4: "provider"}

    def test_learned_relationship(self):
        assert learned_relationship(Route.originate(1), self.RELS) == "local"
        assert learned_relationship(mk_route(path=(2, 9)), self.RELS) == "customer"
        assert learned_relationship(mk_route(path=(4, 9)), self.RELS) == "provider"

    def test_learned_relationship_unknown_next_hop(self):
        from repro.routing.bgp.policy import PolicyError

        with pytest.raises(PolicyError, match="next-hop AS 8.*known neighbor"):
            learned_relationship(mk_route(path=(8, 9)), self.RELS)
        # Backwards compatible: PolicyError is still a KeyError.
        with pytest.raises(KeyError):
            learned_relationship(mk_route(path=(8, 9)), self.RELS)

    def test_export_to_customer_everything(self):
        for path in [(), (2, 9), (3, 9), (4, 9)]:
            r = Route.originate(9) if not path else mk_route(path=path)
            assert export_allowed(r, "customer", self.RELS)

    def test_export_to_peer_no_transit(self):
        assert export_allowed(Route.originate(1), "peer", self.RELS)
        assert export_allowed(mk_route(path=(2, 9)), "peer", self.RELS)  # customer route
        assert not export_allowed(mk_route(path=(3, 9)), "peer", self.RELS)  # peer route
        assert not export_allowed(mk_route(path=(4, 9)), "peer", self.RELS)  # provider route

    def test_export_to_provider_no_transit(self):
        assert export_allowed(mk_route(path=(2, 9)), "provider", self.RELS)
        assert not export_allowed(mk_route(path=(3, 9)), "provider", self.RELS)
        assert not export_allowed(mk_route(path=(4, 9)), "provider", self.RELS)

    def test_import_pref_ordering(self):
        assert (
            import_local_pref("customer")
            > import_local_pref("peer")
            > import_local_pref("provider")
        )


class TestValleyFree:
    def rel_of(self, a, b):
        # Chain 0 <- 1 <- 2 (2 at top), 2 peers 3, 3 -> 4 -> 5 descending.
        providers = {0: 1, 1: 2, 5: 4, 4: 3}
        peers = {(2, 3), (3, 2)}
        if providers.get(a) == b:
            return "provider"
        if providers.get(b) == a:
            return "customer"
        if (a, b) in peers:
            return "peer"
        raise KeyError((a, b))

    def test_up_peer_down_ok(self):
        assert is_valley_free((1, 2, 3, 4, 5), 5, self.rel_of)

    def test_pure_up_ok(self):
        assert is_valley_free((1, 2), 2, self.rel_of)

    def test_pure_down_ok(self):
        assert is_valley_free((4, 5), 5, self.rel_of)

    def test_valley_rejected(self):
        # 3 -> 1 descends (1 is 3's customer), then 1 -> 2 climbs
        # (2 is 1's provider): a valley.
        rels = {(3, 1): "customer", (1, 2): "provider"}
        assert not is_valley_free((3, 1, 2), 2, lambda a, b: rels[(a, b)])

    def test_peer_after_descent_rejected(self):
        # 3 -> 1 descends, then 1 -> 2 crosses a peer link: also invalid.
        rels = {(3, 1): "customer", (1, 2): "peer"}
        assert not is_valley_free((3, 1, 2), 2, lambda a, b: rels[(a, b)])

    def test_double_peer_rejected(self):
        # Two peer crossings: 1 -peer- 2 -peer- 3.
        rels = {(1, 2): "peer", (2, 3): "peer"}
        assert not is_valley_free((1, 2, 3), 3, lambda a, b: rels[(a, b)])

    def test_single_hop_trivially_valid(self):
        assert is_valley_free((5,), 5, self.rel_of)


def three_as_engine():
    """1 provides to 2 and 3; 2 and 3 peer."""
    speakers = {
        1: BgpSpeaker(1, {2: "customer", 3: "customer"}),
        2: BgpSpeaker(2, {1: "provider", 3: "peer"}),
        3: BgpSpeaker(3, {1: "provider", 2: "peer"}),
    }
    return BgpEngine(speakers)


class TestEngine:
    def test_converges(self):
        eng = three_as_engine()
        assert eng.run() <= 5

    def test_full_reachability(self):
        eng = three_as_engine()
        eng.run()
        for a in (1, 2, 3):
            assert set(eng.speakers[a].rib) == {1, 2, 3}

    def test_peer_preferred_over_provider(self):
        eng = three_as_engine()
        eng.run()
        # 2 reaches 3 directly via the peer link, not via provider 1.
        assert eng.next_hop_as(2, 3) == 3

    def test_as_path_follows_next_hops(self):
        eng = three_as_engine()
        eng.run()
        assert eng.as_path(2, 3) == (2, 3)
        assert eng.as_path(1, 2) == (1, 2)
        assert eng.as_path(2, 2) == (2,)

    def test_no_transit_between_customers_peers(self):
        # 1 <- 2, 1 <- 3 (1 is customer of both providers 2 and 3):
        # 2 and 3 are unrelated; 1 must not transit between them.
        speakers = {
            1: BgpSpeaker(1, {2: "provider", 3: "provider"}),
            2: BgpSpeaker(2, {1: "customer"}),
            3: BgpSpeaker(3, {1: "customer"}),
        }
        eng = BgpEngine(speakers)
        eng.run()
        # Customer 1 reaches both providers, but 2 cannot reach 3:
        # 1 does not export provider routes to its other provider.
        assert eng.route(1, 2) is not None
        assert eng.route(2, 3) is None
        assert eng.route(3, 2) is None

    def test_inconsistent_relationships_rejected(self):
        speakers = {
            1: BgpSpeaker(1, {2: "customer"}),
            2: BgpSpeaker(2, {1: "peer"}),
        }
        with pytest.raises(ValueError, match="inconsistent"):
            BgpEngine(speakers)

    def test_unknown_neighbor_rejected(self):
        with pytest.raises(ValueError, match="unknown neighbor"):
            BgpEngine({1: BgpSpeaker(1, {9: "peer"})})

    def test_reachability_matrix(self):
        eng = three_as_engine()
        eng.run()
        matrix = eng.reachability_matrix()
        assert matrix[1] == {1, 2, 3}
