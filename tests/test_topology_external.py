"""Tests for loading measured AS-relationship datasets (§7 validation)."""

from __future__ import annotations

import pytest

from repro.routing.bgp import configure_bgp, is_valley_free
from repro.topology import (
    ASTier,
    build_multi_as_network,
    infer_tiers,
    load_as_relationships,
    parse_as_relationships,
)
from repro.topology.sample_data import SAMPLE_AS_RELATIONSHIPS

SIMPLE = """
# provider 100 serves customers 200 and 300; 200 peers 300
100|200|-1
100|300|-1
200|300|0
"""


class TestParsing:
    def test_simple(self):
        topo, mapping = parse_as_relationships(SIMPLE)
        assert topo.num_ases == 3
        a, b, c = mapping[100], mapping[200], mapping[300]
        assert topo.customers[a] == {b, c}
        assert topo.providers[b] == {a}
        assert topo.peers[b] == {c}
        assert topo.tiers[a] is ASTier.CORE
        assert topo.tiers[b] is ASTier.STUB

    def test_whitespace_format(self):
        topo, mapping = parse_as_relationships("10 20 -1\n20 30 0\n")
        assert topo.num_ases == 3
        assert topo.customers[mapping[10]] == {mapping[20]}

    def test_reverse_code(self):
        # rel == 1 means customer->provider.
        topo, mapping = parse_as_relationships("200|100|1\n")
        assert topo.providers[mapping[200]] == {mapping[100]}

    def test_comments_and_blank_lines_skipped(self):
        topo, _ = parse_as_relationships("# hi\n\n1|2|-1\n")
        assert topo.num_ases == 2

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            parse_as_relationships("1|2\n")
        with pytest.raises(ValueError, match="non-integer"):
            parse_as_relationships("a|b|-1\n")
        with pytest.raises(ValueError, match="self"):
            parse_as_relationships("5|5|-1\n")
        with pytest.raises(ValueError, match="unknown relationship"):
            parse_as_relationships("1|2|7\n")

    def test_conflicting_records_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            parse_as_relationships("1|2|-1\n1|2|0\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "rels.txt"
        path.write_text(SIMPLE)
        topo, _ = load_as_relationships(path)
        assert topo.num_ases == 3


class TestInferTiers:
    def test_peer_only_island_is_stub(self):
        tiers = infer_tiers(2, {0: set(), 1: set()}, {0: set(), 1: set()})
        assert tiers[0] is ASTier.STUB

    def test_middle_is_regional(self):
        tiers = infer_tiers(
            3,
            {0: set(), 1: {0}, 2: {1}},
            {0: {1}, 1: {2}, 2: set()},
        )
        assert tiers[0] is ASTier.CORE
        assert tiers[1] is ASTier.REGIONAL
        assert tiers[2] is ASTier.STUB


class TestSampleDataset:
    def test_parses(self):
        topo, mapping = parse_as_relationships(SAMPLE_AS_RELATIONSHIPS)
        assert topo.num_ases == 40
        assert len(topo.edges) > 40
        # Realistic mix: few cores, many stubs.
        from collections import Counter

        tiers = Counter(topo.tiers.values())
        assert tiers[ASTier.CORE] <= 4
        assert tiers[ASTier.STUB] >= 10

    def test_builds_network_and_routes(self):
        topo, _ = parse_as_relationships(SAMPLE_AS_RELATIONSHIPS)
        net = build_multi_as_network(topo, routers_per_as=5, num_hosts=20, rng=None)
        assert net.is_connected()
        bgp = configure_bgp(net)
        assert bgp.iterations > 0
        # All best routes valley-free under the measured relationships.
        def rel(a, b):
            return net.as_domains[a].relationship_to(b)

        for a, sp in bgp.speakers.items():
            for prefix, route in sp.rib.items():
                if route.is_local:
                    continue
                assert is_valley_free(route.as_path, prefix, rel)

    def test_relationship_symmetry(self):
        topo, _ = parse_as_relationships(SAMPLE_AS_RELATIONSHIPS)
        for a in range(topo.num_ases):
            for p in topo.providers[a]:
                assert a in topo.customers[p]
            for q in topo.peers[a]:
                assert a in topo.peers[q]
