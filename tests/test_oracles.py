"""Tests for the oracle portfolio."""

import numpy as np
import pytest

from repro.graphs import grid_graph, triangulated_mesh, unit_weights, uniform_costs
from repro.separators import (
    BestOfOracle,
    BfsOracle,
    IndexOracle,
    LexOracle,
    RandomOracle,
    SpectralOracle,
    check_split_window,
    make_oracle,
    split_result,
)

ALL_ORACLES = [
    IndexOracle(),
    LexOracle(),
    BfsOracle(),
    SpectralOracle(),
    RandomOracle(seed=1),
    BestOfOracle(),
]


@pytest.mark.parametrize("oracle", ALL_ORACLES, ids=lambda o: repr(o))
class TestOracleContract:
    def test_window_unit_weights(self, oracle):
        g = grid_graph(6, 6)
        w = unit_weights(g)
        for target in [0.0, 5.5, 18.0, 36.0]:
            u = oracle.split(g, w, target)
            assert check_split_window(w, target, u)

    def test_window_skewed_weights(self, oracle):
        g = triangulated_mesh(5, 5)
        w = np.random.default_rng(7).exponential(1.0, g.n) + 0.01
        w[0] = w.sum()  # one dominant vertex
        for frac in [0.1, 0.5, 0.9]:
            target = frac * w.sum()
            u = oracle.split(g, w, target)
            assert check_split_window(w, target, u)

    def test_result_indices_valid(self, oracle):
        g = grid_graph(4, 4)
        u = oracle.split(g, unit_weights(g), 8.0)
        assert np.all((u >= 0) & (u < g.n))
        assert np.unique(u).size == u.size


class TestQualityOrdering:
    def test_structured_beats_random_on_grid(self):
        g = grid_graph(12, 12)
        w = unit_weights(g)
        target = g.n / 2.0
        rand_cost = g.boundary_cost(RandomOracle(seed=3).split(g, w, target))
        best_cost = g.boundary_cost(BestOfOracle().split(g, w, target))
        assert best_cost < rand_cost

    def test_best_of_at_least_as_good_as_parts(self):
        g = triangulated_mesh(8, 8)
        g = g.with_costs(uniform_costs(g, 0.5, 3.0, rng=0))
        w = unit_weights(g)
        target = g.n / 2.0
        parts = [BfsOracle(), SpectralOracle()]
        combo = BestOfOracle(parts)
        combo_cost = g.boundary_cost(combo.split(g, w, target))
        for part in parts:
            assert combo_cost <= g.boundary_cost(part.split(g, w, target)) + 1e-9

    def test_default_oracle_grid_aware(self):
        g = grid_graph(6, 6)
        oracle = make_oracle("default", g=g)
        names = [o.name for o in oracle.oracles]
        assert "grid" in names
        u = oracle.split(g, unit_weights(g), 18.0)
        assert check_split_window(unit_weights(g), 18.0, u)


class TestSplitResult:
    def test_audit_fields(self):
        g = grid_graph(4, 4)
        w = unit_weights(g)
        u = BfsOracle().split(g, w, 8.0)
        res = split_result(g, w, 8.0, u)
        assert res.is_valid
        assert res.weight == len(u)
        assert res.cut_cost == g.boundary_cost(u)

    def test_invalid_detected(self):
        g = grid_graph(4, 4)
        w = unit_weights(g)
        res = split_result(g, w, 8.0, np.arange(16))
        assert not res.is_valid
        assert res.window_violation > 0
