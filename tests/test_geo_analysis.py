"""Tests for coordinate bisection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.partition import WeightedGraph, coordinate_bisection


class TestCoordinateBisection:
    def _positions_grid(self, n=8):
        xs, ys = np.meshgrid(np.arange(n, dtype=float), np.arange(n, dtype=float))
        return np.column_stack([xs.ravel(), ys.ravel()])

    def test_splits_spatially(self, grid_graph):
        pos = self._positions_grid()
        res = coordinate_bisection(grid_graph, pos, 2)
        # Sides are spatially separated: mean x (the wider axis is a tie;
        # argmax picks axis 0) differs strongly between parts.
        mean0 = pos[res.assignment == 0, 0].mean()
        mean1 = pos[res.assignment == 1, 0].mean()
        assert abs(mean0 - mean1) > 2.0

    def test_balanced(self, grid_graph):
        res = coordinate_bisection(grid_graph, self._positions_grid(), 4)
        assert res.balance <= 1.1

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_arbitrary_k(self, grid_graph, k):
        res = coordinate_bisection(grid_graph, self._positions_grid(), k)
        assert set(res.assignment.tolist()) == set(range(k))

    def test_geographic_cut_quality_on_grid(self, grid_graph):
        # On a grid, a spatial cut is near-optimal (like the multilevel one).
        res = coordinate_bisection(grid_graph, self._positions_grid(), 2)
        assert res.edge_cut <= 10

    def test_validates_inputs(self, grid_graph):
        with pytest.raises(ValueError):
            coordinate_bisection(grid_graph, np.zeros((3, 2)), 2)
        with pytest.raises(ValueError):
            coordinate_bisection(grid_graph, self._positions_grid(), 0)

    def test_on_real_network(self, flat_net):
        g = flat_net.to_graph()
        pos = np.array([n.position for n in flat_net.nodes])
        res = coordinate_bisection(g, pos, 8)
        assert res.balance < 1.2
        # Spatial locality: never a worse cut than a random assignment.
        # (MLL is NOT asserted — hosts share their router's coordinates,
        # so median splits can still separate an access link.)
        from repro.partition import random_partition

        rnd = random_partition(g, 8, seed=0)
        assert res.edge_cut <= rnd.edge_cut
