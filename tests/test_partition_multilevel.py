"""Tests for coarsening, initial bisection, FM refinement, and k-way."""

from __future__ import annotations

import numpy as np
import pytest

from repro.partition import (
    WeightedGraph,
    balance_partition,
    best_bisection,
    coarsen,
    coarsen_once,
    extract_subgraph,
    fm_refine,
    heavy_edge_matching,
    multilevel_bisect,
    partition_kway,
)


def path_graph(n, weight=None):
    us = list(range(n - 1))
    vs = list(range(1, n))
    return WeightedGraph(n, us, vs, weight, np.full(n - 1, 1e-3))


class TestHeavyEdgeMatching:
    def test_labels_dense(self, grid_graph, rng):
        labels = heavy_edge_matching(grid_graph, rng)
        k = labels.max() + 1
        assert set(labels.tolist()) == set(range(k))

    def test_clusters_at_most_two(self, grid_graph, rng):
        labels = heavy_edge_matching(grid_graph, rng)
        _, counts = np.unique(labels, return_counts=True)
        assert counts.max() <= 2

    def test_matched_pairs_are_adjacent(self, grid_graph, rng):
        labels = heavy_edge_matching(grid_graph, rng)
        for lbl in range(labels.max() + 1):
            members = np.flatnonzero(labels == lbl)
            if len(members) == 2:
                a, b = members
                assert b in grid_graph.neighbors(int(a))

    def test_prefers_heavy_edges(self, rng):
        # Two heavy pairs (0,1) and (2,3) plus light cross edges: whatever
        # the visit order, every vertex's heaviest unmatched neighbor is
        # its heavy partner, so both heavy edges must be matched.
        g = WeightedGraph(
            4,
            [0, 2, 1, 0, 0, 1],
            [1, 3, 2, 3, 2, 3],
            edge_weight=[100.0, 100.0, 1.0, 1.0, 1.0, 1.0],
        )
        for seed in range(5):
            labels = heavy_edge_matching(g, np.random.default_rng(seed))
            assert labels[0] == labels[1]
            assert labels[2] == labels[3]

    def test_respects_weight_cap(self, rng):
        g = WeightedGraph(2, [0], [1], vertex_weight=[10.0, 10.0])
        labels = heavy_edge_matching(g, rng, max_vertex_weight=15.0)
        assert labels[0] != labels[1]

    def test_singleton_graph(self, rng):
        g = WeightedGraph(1, [], [])
        labels = heavy_edge_matching(g, rng)
        assert labels.tolist() == [0]


class TestCoarsen:
    def test_preserves_total_weight(self, grid_graph, rng):
        coarsest, levels = coarsen(grid_graph, 8, rng)
        assert coarsest.total_vertex_weight == pytest.approx(
            grid_graph.total_vertex_weight
        )

    def test_reaches_target(self, grid_graph, rng):
        coarsest, levels = coarsen(grid_graph, 8, rng)
        assert coarsest.num_vertices <= 16  # roughly halves per level
        assert len(levels) >= 2

    def test_projection_chain(self, grid_graph, rng):
        coarsest, levels = coarsen(grid_graph, 8, rng)
        part = np.zeros(coarsest.num_vertices, dtype=np.int64)
        part[: coarsest.num_vertices // 2] = 1
        for level in reversed(levels):
            part = level.contraction.project(part)
        assert part.shape[0] == grid_graph.num_vertices

    def test_invalid_target(self, grid_graph, rng):
        with pytest.raises(ValueError):
            coarsen(grid_graph, 1, rng)

    def test_coarsen_once_shrinks(self, grid_graph, rng):
        c = coarsen_once(grid_graph, rng)
        assert c.coarse.num_vertices < grid_graph.num_vertices


class TestInitialBisection:
    def test_balanced_split(self, grid_graph, rng):
        part = best_bisection(grid_graph, rng, 0.5, trials=1)
        w = grid_graph.partition_weights(part, 2)
        assert abs(w[0] - w[1]) / grid_graph.total_vertex_weight < 0.25

    def test_uneven_target(self, grid_graph, rng):
        part = best_bisection(grid_graph, rng, 0.25, trials=1)
        w = grid_graph.partition_weights(part, 2)
        assert w[0] < w[1]

    def test_invalid_fraction(self, grid_graph, rng):
        with pytest.raises(ValueError):
            best_bisection(grid_graph, rng, 0.0)

    def test_best_bisection_feasible(self, grid_graph, rng):
        part = best_bisection(grid_graph, rng, trials=4)
        w = grid_graph.partition_weights(part, 2)
        assert w.max() / (grid_graph.total_vertex_weight / 2) <= 1.25

    def test_two_cluster_graph_cut_is_bridge(self, two_cluster_graph, rng):
        part = best_bisection(two_cluster_graph, rng, trials=8)
        assert two_cluster_graph.edge_cut(part) == pytest.approx(1.0)

    def test_disconnected_graph_handled(self, rng):
        g = WeightedGraph(6, [0, 1, 3, 4], [1, 2, 4, 5])
        part = best_bisection(g, rng, 0.5, trials=1)
        w = g.partition_weights(part, 2)
        assert w[0] > 0 and w[1] > 0

    def test_tiny_graphs(self, rng):
        assert best_bisection(WeightedGraph(0, [], []), rng).size == 0
        assert best_bisection(WeightedGraph(1, [], []), rng).tolist() == [0]


class TestFMRefine:
    def test_improves_random_partition(self, grid_graph, rng):
        bad = rng.integers(0, 2, size=grid_graph.num_vertices).astype(np.int64)
        refined = fm_refine(grid_graph, bad)
        assert grid_graph.edge_cut(refined) < grid_graph.edge_cut(bad)

    def test_keeps_balance(self, grid_graph, rng):
        part = best_bisection(grid_graph, rng)
        refined = fm_refine(grid_graph, part, imbalance_tolerance=1.05)
        w = grid_graph.partition_weights(refined, 2)
        assert w.max() <= 1.06 * grid_graph.total_vertex_weight / 2

    def test_optimal_partition_unchanged_cut(self, two_cluster_graph):
        part = np.array([0] * 10 + [1] * 10)
        refined = fm_refine(two_cluster_graph, part)
        assert two_cluster_graph.edge_cut(refined) == pytest.approx(1.0)

    def test_empty_graph(self):
        g = WeightedGraph(0, [], [])
        assert fm_refine(g, np.zeros(0, dtype=np.int64)).size == 0

    def test_balance_partition_fixes_skew(self, grid_graph):
        part = np.zeros(grid_graph.num_vertices, dtype=np.int64)  # all on side 0
        part[0] = 1
        fixed = balance_partition(grid_graph, part, imbalance_tolerance=1.10)
        w = grid_graph.partition_weights(fixed, 2)
        assert w.max() <= 1.11 * grid_graph.total_vertex_weight / 2


class TestMultilevelBisect:
    def test_quality_beats_random(self, grid_graph, rng):
        part = multilevel_bisect(grid_graph, np.random.default_rng(0))
        rand = rng.integers(0, 2, grid_graph.num_vertices).astype(np.int64)
        assert grid_graph.edge_cut(part) < grid_graph.edge_cut(rand)

    def test_grid_cut_near_optimal(self, grid_graph):
        # Optimal bisection of an 8x8 grid cuts 8 edges; allow slack 2x.
        part = multilevel_bisect(grid_graph, np.random.default_rng(0))
        assert grid_graph.edge_cut(part) <= 16

    def test_uneven_target_weights(self, grid_graph):
        part = multilevel_bisect(
            grid_graph, np.random.default_rng(0), target_fraction=0.75
        )
        w = grid_graph.partition_weights(part, 2)
        assert w[0] > w[1]
        assert w[0] / grid_graph.total_vertex_weight == pytest.approx(0.75, abs=0.08)


class TestPartitionKway:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_all_parts_used(self, grid_graph, k):
        res = partition_kway(grid_graph, k, seed=0)
        assert set(res.assignment.tolist()) == set(range(k))

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_balance_bound(self, grid_graph, k):
        res = partition_kway(grid_graph, k, seed=0)
        assert res.balance <= 1.35  # tolerance compounds over ~log2(k) levels

    def test_result_metrics_consistent(self, grid_graph):
        res = partition_kway(grid_graph, 4, seed=0)
        assert res.edge_cut == pytest.approx(grid_graph.edge_cut(res.assignment))
        assert res.min_cut_latency == pytest.approx(
            grid_graph.min_cut_latency(res.assignment)
        )

    def test_k1_trivial(self, grid_graph):
        res = partition_kway(grid_graph, 1)
        assert res.edge_cut == 0.0
        assert np.isinf(res.min_cut_latency)

    def test_invalid_k(self, grid_graph):
        with pytest.raises(ValueError):
            partition_kway(grid_graph, 0)

    def test_empty_graph(self):
        res = partition_kway(WeightedGraph(0, [], []), 4)
        assert res.assignment.size == 0

    def test_weighted_vertices_balanced(self, rng):
        # Heavy vertices must spread across parts.
        n = 40
        vw = np.ones(n)
        vw[:4] = 10.0
        us = list(range(n - 1))
        vs = list(range(1, n))
        g = WeightedGraph(n, us, vs, vertex_weight=vw)
        res = partition_kway(g, 4, seed=1)
        assert res.balance <= 1.5

    def test_deterministic_for_seed(self, grid_graph):
        a = partition_kway(grid_graph, 4, seed=3)
        b = partition_kway(grid_graph, 4, seed=3)
        assert np.array_equal(a.assignment, b.assignment)

    def test_star_graph_terminates(self):
        # Stars defeat matching (all edges share the hub); must not loop.
        n = 50
        g = WeightedGraph(n, [0] * (n - 1), list(range(1, n)))
        res = partition_kway(g, 4, seed=0)
        assert set(res.assignment.tolist()) == {0, 1, 2, 3}

    def test_dominant_vertex_leaves_no_part_empty(self):
        # One vertex carrying most of the weight used to starve a
        # recursion side below its part count (and kway_refine's
        # weight-based don't-empty guard could strip a one-vertex part),
        # producing empty parts on tiny graphs.
        g = WeightedGraph(
            3, [1, 2], [0, 1], [1.0, 1.0], [1e-3, 1e-3], [3.324, 0.102, 0.305]
        )
        res = partition_kway(g, 3, seed=0)
        assert set(res.assignment.tolist()) == {0, 1, 2}

    @pytest.mark.parametrize("seed", range(8))
    def test_tiny_paths_fill_every_part(self, seed):
        rng = np.random.default_rng(seed)
        for n, k in [(3, 3), (4, 3), (4, 4), (5, 3), (6, 4)]:
            vw = rng.uniform(0.1, 5.0, n)
            g = WeightedGraph(
                n,
                list(range(1, n)),
                list(range(n - 1)),
                rng.uniform(0.1, 10.0, n - 1),
                rng.uniform(1e-5, 1e-2, n - 1),
                vw,
            )
            res = partition_kway(g, k, seed=0)
            assert set(res.assignment.tolist()) == set(range(k)), (n, k, vw)


class TestExtractSubgraph:
    def test_repeated_vertex_rejected(self):
        """``[2, 0, 2]`` used to come back as three vertices and no edge."""
        g = path_graph(4)
        with pytest.raises(ValueError, match="repeated"):
            extract_subgraph(g, [2, 0, 2])

    def test_unsorted_ids_keep_their_edges(self):
        g = path_graph(5, weight=[1.0, 2.0, 3.0, 4.0])
        sub, back = extract_subgraph(g, [3, 1, 2])
        assert back.tolist() == [3, 1, 2]
        u, v, w, _ = sub.edge_list()
        edges = {(min(a, b), max(a, b), x) for a, b, x in zip(back[u], back[v], w.tolist())}
        assert edges == {(1, 2, 2.0), (2, 3, 3.0)}
