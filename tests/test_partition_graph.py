"""Unit tests for the CSR weighted graph substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.partition import WeightedGraph
from repro.partition.graph import component_labels


def simple_triangle():
    return WeightedGraph(
        3, [0, 1, 2], [1, 2, 0], edge_weight=[1.0, 2.0, 3.0], edge_latency=[1e-3, 2e-3, 3e-3]
    )


class TestConstruction:
    def test_basic_counts(self):
        g = simple_triangle()
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert g.total_vertex_weight == 3.0

    def test_empty_graph(self):
        g = WeightedGraph(0, [], [])
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.is_connected()

    def test_isolated_vertices(self):
        g = WeightedGraph(4, [0], [1])
        assert g.num_edges == 1
        assert g.degree(2) == 0
        assert not g.is_connected()

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self loop"):
            WeightedGraph(2, [0], [0])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            WeightedGraph(2, [0], [2])

    def test_negative_edge_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            WeightedGraph(2, [0], [1], edge_weight=[-1.0])

    def test_nonpositive_latency_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            WeightedGraph(2, [0], [1], edge_latency=[0.0])

    def test_negative_vertex_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedGraph(2, [0], [1], vertex_weight=[1.0, -2.0])

    def test_nan_anywhere_rejected(self):
        """A NaN weight or latency used to partition to a NaN edge cut."""
        nan = float("nan")
        edges = (4, [0, 1, 2], [1, 2, 3])
        with pytest.raises(ValueError, match="edge weights"):
            WeightedGraph(*edges, [1, nan, 1], [1e-3, 1e-3, 1e-3])
        with pytest.raises(ValueError, match="latencies"):
            WeightedGraph(*edges, [1, 2, 1], [1e-3, nan, 1e-3])
        with pytest.raises(ValueError, match="vertex weights"):
            WeightedGraph(*edges, [1, 2, 1], [1e-3, 1e-3, 1e-3], [1, nan, 1, 1])
        with pytest.raises(ValueError):
            WeightedGraph(*edges, [1, nan, 1], [1e-3, nan, 1e-3], [1, nan, 1, 1])

    @pytest.mark.parametrize("inf", [float("inf"), -float("inf")])
    def test_infinite_weights_rejected(self, inf):
        with pytest.raises(ValueError, match="edge weights must be finite"):
            WeightedGraph(2, [0], [1], edge_weight=[inf])
        with pytest.raises(ValueError, match="vertex weights must be finite"):
            WeightedGraph(2, [0], [1], vertex_weight=[1.0, inf])

    def test_infinite_latency_means_unknown(self):
        g = WeightedGraph(3, [0, 1], [1, 2], edge_latency=[float("inf"), 1e-3])
        assert g.min_cut_latency([0, 1, 1]) == float("inf")
        with pytest.raises(ValueError, match="positive"):
            WeightedGraph(2, [0], [1], edge_latency=[-float("inf")])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, [0, 1], [1])
        with pytest.raises(ValueError):
            WeightedGraph(3, [0], [1], edge_weight=[1.0, 2.0])
        with pytest.raises(ValueError):
            WeightedGraph(3, [0], [1], vertex_weight=[1.0])

    def test_parallel_edges_merged(self):
        g = WeightedGraph(
            2,
            [0, 1, 0],
            [1, 0, 1],
            edge_weight=[1.0, 2.0, 4.0],
            edge_latency=[3e-3, 1e-3, 2e-3],
        )
        assert g.num_edges == 1
        u, v, w, lat = g.edge_list()
        assert w[0] == pytest.approx(7.0)  # weights summed
        assert lat[0] == pytest.approx(1e-3)  # min latency kept

    def test_default_weights(self):
        g = WeightedGraph(3, [0, 1], [1, 2])
        assert np.all(g.vwgt == 1.0)
        u, v, w, lat = g.edge_list()
        assert np.all(w == 1.0)
        assert np.all(np.isinf(lat))


class TestAccessors:
    def test_neighbors_symmetric(self):
        g = simple_triangle()
        for v in g:
            for u in g.neighbors(v):
                assert v in g.neighbors(int(u))

    def test_degree(self):
        g = simple_triangle()
        assert all(g.degree(v) == 2 for v in range(3))

    def test_edge_list_each_edge_once(self):
        g = simple_triangle()
        u, v, w, lat = g.edge_list()
        assert len(u) == 3
        assert np.all(u < v)

    def test_neighbor_weights_match_edges(self):
        g = simple_triangle()
        # vertex 0 connects to 1 (w=1) and 2 (w=3)
        nbrs = list(g.neighbors(0))
        wts = list(g.neighbor_weights(0))
        got = dict(zip(nbrs, wts))
        assert got[1] == pytest.approx(1.0)
        assert got[2] == pytest.approx(3.0)


class TestPartitionQuantities:
    def test_edge_cut_all_same_part(self):
        g = simple_triangle()
        assert g.edge_cut([0, 0, 0]) == 0.0

    def test_edge_cut_value(self):
        g = simple_triangle()
        # part {0,1} vs {2}: cuts edges (1,2) w=2 and (0,2) w=3
        assert g.edge_cut([0, 0, 1]) == pytest.approx(5.0)

    def test_min_cut_latency(self):
        g = simple_triangle()
        assert g.min_cut_latency([0, 0, 1]) == pytest.approx(2e-3)
        assert g.min_cut_latency([0, 0, 0]) == np.inf

    def test_partition_weights(self):
        g = WeightedGraph(3, [0], [1], vertex_weight=[1.0, 2.0, 4.0])
        w = g.partition_weights([0, 1, 1], 2)
        assert w.tolist() == [1.0, 6.0]

    def test_balance_perfect(self):
        g = WeightedGraph(4, [0, 1, 2], [1, 2, 3])
        assert g.balance([0, 0, 1, 1], 2) == pytest.approx(1.0)

    def test_balance_skewed(self):
        g = WeightedGraph(4, [0, 1, 2], [1, 2, 3])
        assert g.balance([0, 0, 0, 1], 2) == pytest.approx(1.5)

    def test_partition_length_mismatch(self):
        g = simple_triangle()
        with pytest.raises(ValueError):
            g.edge_cut([0, 1])

    def test_cut_edges_content(self):
        g = simple_triangle()
        u, v, w, lat = g.cut_edges([0, 1, 0])
        # edges (0,1) and (1,2) are cut
        pairs = set(zip(u.tolist(), v.tolist()))
        assert pairs == {(0, 1), (1, 2)}


class TestStructureOps:
    def test_connected_components_single(self):
        g = simple_triangle()
        assert g.connected_components().max() == 0

    def test_connected_components_multi(self):
        g = WeightedGraph(5, [0, 2], [1, 3])
        labels = g.connected_components()
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert len({labels[0], labels[2], labels[4]}) == 3

    def test_contract_merges_weights(self):
        g = WeightedGraph(
            4,
            [0, 1, 2, 0],
            [1, 2, 3, 3],
            edge_weight=[1.0, 2.0, 3.0, 4.0],
            edge_latency=[1e-3, 2e-3, 3e-3, 4e-3],
            vertex_weight=[1.0, 2.0, 3.0, 4.0],
        )
        c = g.contract([0, 0, 1, 1])
        assert c.coarse.num_vertices == 2
        assert c.coarse.vwgt.tolist() == [3.0, 7.0]
        # cross edges (1,2) w=2 and (0,3) w=4 merge into one: w=6, lat=min
        u, v, w, lat = c.coarse.edge_list()
        assert len(u) == 1
        assert w[0] == pytest.approx(6.0)
        assert lat[0] == pytest.approx(2e-3)

    def test_contract_rejects_sparse_labels(self):
        g = simple_triangle()
        with pytest.raises(ValueError, match="dense"):
            g.contract([0, 2, 2])

    def test_contract_project_roundtrip(self):
        g = simple_triangle()
        c = g.contract([0, 0, 1])
        part = c.project(np.array([5, 9]))
        assert part.tolist() == [5, 5, 9]

    # The Tmll sweep's dumped graph: merge every edge below the threshold
    # (``component_labels`` over those edges), then ``contract``.
    def test_collapse_below_latency(self):
        g = simple_triangle()
        u, v, _, lat = g.edge_list()
        below = lat < 1.5e-3  # the 1 ms edge
        c = g.contract(component_labels(3, u[below], v[below]))
        assert c.coarse.num_vertices == 2
        # remaining latencies all >= threshold
        _, _, _, lat = c.coarse.edge_list()
        assert np.all(lat >= 1.5e-3)

    def test_collapse_threshold_below_min_is_noop(self):
        g = simple_triangle()
        u, v, _, lat = g.edge_list()
        c = g.contract(component_labels(3, u[lat < 0.5e-3], v[lat < 0.5e-3]))
        assert c.coarse.num_vertices == 3

    def test_collapse_everything(self):
        g = simple_triangle()
        u, v, _, _ = g.edge_list()
        c = g.contract(component_labels(3, u, v))
        assert c.coarse.num_vertices == 1
        assert c.coarse.total_vertex_weight == pytest.approx(3.0)

    def test_collapse_guarantees_mll(self, two_cluster_graph):
        g = two_cluster_graph
        u, v, _, lat = g.edge_list()
        c = g.contract(component_labels(g.num_vertices, u[lat < 1e-3], v[lat < 1e-3]))
        assert c.coarse.num_vertices == 2
        part = c.project(np.array([0, 1]))
        assert g.min_cut_latency(part) == pytest.approx(5e-3)
