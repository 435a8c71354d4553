"""Tests for vertex orders and order-based splitting (Definition 3 window)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    disjoint_union,
    grid_graph,
    path_graph,
    random_geometric_graph,
    triangulated_mesh,
    unit_weights,
)
from repro.separators import (
    bfs_peripheral_order,
    check_split_window,
    fiedler_order,
    index_order,
    lexicographic_order,
    prefix_split,
    random_order,
    sweep_split,
)
from repro.separators.orders import _prefix_cuts


def orders_under_test(g):
    return {
        "index": index_order(g),
        "lex": lexicographic_order(g),
        "bfs": bfs_peripheral_order(g),
        "fiedler": fiedler_order(g),
        "random": random_order(g, rng=0),
    }


class TestOrdersArePermutations:
    @pytest.mark.parametrize("maker", [lambda: grid_graph(5, 4), lambda: triangulated_mesh(4, 6), lambda: path_graph(17)])
    def test_permutation(self, maker):
        g = maker()
        for name, order in orders_under_test(g).items():
            assert sorted(order.tolist()) == list(range(g.n)), name

    def test_disconnected_fiedler(self):
        g = disjoint_union([grid_graph(3, 3), grid_graph(4, 2)])
        order = fiedler_order(g)
        assert sorted(order.tolist()) == list(range(g.n))
        # components stay contiguous in the order
        block = order < 9
        switches = np.sum(block[:-1] != block[1:])
        assert switches == 1


class TestFiedlerQuality:
    def test_grid_fiedler_cuts_across_short_side(self):
        """The Fiedler sweep on a long strip should cut ≈ the short side."""
        g = grid_graph(4, 30)
        w = unit_weights(g)
        u = sweep_split(g, fiedler_order(g), w, g.n / 2.0)
        assert g.boundary_cost(u) <= 8.0  # short side is 4

    def test_path_fiedler_is_linear(self):
        g = path_graph(40)
        u = sweep_split(g, fiedler_order(g), unit_weights(g), 20.0)
        assert g.boundary_cost(u) == 1.0


class TestPrefixSplit:
    def test_window_on_grid(self):
        g = grid_graph(6, 6)
        w = np.ones(g.n)
        for target in [0.0, 7.3, 18.0, 35.9, 36.0, 100.0]:
            for order in orders_under_test(g).values():
                u = prefix_split(order, w, target)
                assert check_split_window(w, target, u)

    def test_zero_weights(self):
        g = path_graph(5)
        w = np.zeros(5)
        u = prefix_split(index_order(g), w, 0.0)
        assert check_split_window(w, 0.0, u)


class TestSweepSplit:
    def test_never_worse_than_prefix(self):
        g = triangulated_mesh(6, 6)
        w = np.ones(g.n)
        rng = np.random.default_rng(0)
        for _ in range(10):
            target = float(rng.uniform(0, g.n))
            order = bfs_peripheral_order(g)
            u_sweep = sweep_split(g, order, w, target)
            u_prefix = prefix_split(order, w, target)
            assert check_split_window(w, target, u_sweep)
            assert g.boundary_cost(u_sweep) <= g.boundary_cost(u_prefix) + 1e-9

    def test_empty_graph(self):
        from repro.graphs.graph import Graph

        g = Graph(0, np.zeros((0, 2), dtype=np.int64))
        assert sweep_split(g, np.zeros(0, dtype=np.int64), np.zeros(0), 0.0).size == 0

    @given(st.integers(min_value=2, max_value=7), st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_window_property_random_weights(self, side, frac, seed):
        g = grid_graph(side, side)
        w = np.random.default_rng(seed).exponential(1.0, g.n) + 0.01
        target = frac * w.sum()
        for fn in (prefix_split, lambda o, w_, t: sweep_split(g, o, w_, t)):
            u = fn(bfs_peripheral_order(g), w, target)
            assert check_split_window(w, target, u)

    def test_sweep_incremental_cut_matches_direct(self):
        """The internal incremental sweep must agree with direct evaluation."""
        g = triangulated_mesh(5, 5)
        w = np.ones(g.n)
        order = fiedler_order(g)
        # pick the sweep answer, then verify its cut cost directly
        u = sweep_split(g, order, w, 11.0)
        direct = g.boundary_cost(u)
        # all candidate prefixes within the window
        cum = np.cumsum(w[order])
        ok = np.abs(cum - 11.0) <= 0.5 + 1e-12
        candidates = np.flatnonzero(ok) + 1
        costs = [g.boundary_cost(order[:c]) for c in candidates]
        assert np.isclose(direct, min(costs))


def loop_prefix_cuts(g, order):
    """The prefix sweep as an interpreted running-sum loop — the bitwise
    reference for :func:`_prefix_cuts`."""
    n = order.size
    pos = np.empty(g.n, dtype=np.int64)
    pos[order] = np.arange(n)
    tau = g.cost_degree()
    cut_after = np.empty(n + 1, dtype=np.float64)
    cut_after[0] = 0.0
    earlier_cost = np.zeros(n, dtype=np.float64)
    late = np.maximum(pos[g.edges[:, 0]], pos[g.edges[:, 1]])
    np.add.at(earlier_cost, late, g.costs)
    running = 0.0
    tau_in_order = tau[order]
    for i in range(n):
        running += float(tau_in_order[i]) - 2.0 * float(earlier_cost[i])
        cut_after[i + 1] = running
    return cut_after


def loop_sweep_split(g, order, weights, target):
    """``sweep_split`` over the loop reference sweep (same window logic)."""
    order = np.asarray(order, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    if order.size == 0:
        return order
    t = min(max(float(target), 0.0), float(w.sum()))
    wmax = float(w.max())
    ok = np.abs(np.cumsum(w[order]) - t) <= wmax / 2.0 + 1e-12 * max(1.0, wmax)
    valid_counts = np.flatnonzero(ok) + 1
    if abs(0.0 - t) <= wmax / 2.0 + 1e-12 * max(1.0, wmax):
        valid_counts = np.concatenate([[0], valid_counts])
    if valid_counts.size == 0:
        return prefix_split(order, weights, target)
    cut_after = loop_prefix_cuts(g, order)
    return order[: valid_counts[int(np.argmin(cut_after[valid_counts]))]]


def float_cost_instances():
    rng = np.random.default_rng(7)
    for g in (grid_graph(9, 13), triangulated_mesh(8, 11), random_geometric_graph(150, 0.15, rng=3)):
        g = g.with_costs(rng.lognormal(0.0, 0.8, g.m))
        yield g, rng.exponential(1.0, g.n) + 0.05, rng


class TestSweepMatchesLoopReference:
    def test_prefix_cuts_bitwise(self):
        for g, _, rng in float_cost_instances():
            for order in (fiedler_order(g), bfs_peripheral_order(g), random_order(g, rng=rng)):
                assert _prefix_cuts(g, order).tobytes() == loop_prefix_cuts(g, order).tobytes()

    def test_sweep_split_identical(self):
        for g, w, rng in float_cost_instances():
            order = fiedler_order(g)
            for target in rng.uniform(0.0, w.sum(), 40):
                assert np.array_equal(sweep_split(g, order, w, target),
                                      loop_sweep_split(g, order, w, target))

    def test_empty_window_falls_back_to_prefix(self):
        # a partial order cannot reach the target: no prefix is in the window
        g = grid_graph(4, 4)
        w = np.ones(g.n)
        order = index_order(g)[:5]
        out = sweep_split(g, order, w, 12.0)
        assert np.array_equal(out, prefix_split(order, w, 12.0))
        assert np.array_equal(out, loop_sweep_split(g, order, w, 12.0))

    def test_count_zero_prefix_wins(self):
        # both 0 and 1 vertices lie in the window; the empty prefix cuts nothing
        g = grid_graph(4, 4)
        w = np.ones(g.n)
        order = index_order(g)
        out = sweep_split(g, order, w, 0.5)
        assert out.size == 0
        assert np.array_equal(out, loop_sweep_split(g, order, w, 0.5))

    def test_single_vertex(self):
        g = Graph(1, np.zeros((0, 2), dtype=np.int64))
        order = index_order(g)
        for target in (0.0, 1.0, 2.0):
            assert np.array_equal(sweep_split(g, order, np.array([2.0]), target),
                                  loop_sweep_split(g, order, np.array([2.0]), target))
