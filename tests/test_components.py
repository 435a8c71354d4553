"""Tests for BFS / connectivity helpers, native and numpy paths."""

import numpy as np
import pytest

import repro.graphs.components as C
from repro.graphs import (
    bfs_levels,
    bfs_order,
    connected_components,
    cycle_graph,
    disjoint_union,
    grid_graph,
    is_connected,
    path_graph,
    pseudo_peripheral_vertex,
)
from repro.graphs.graph import Graph


class TestBfsLevels:
    def test_path_distances(self):
        g = path_graph(6)
        lev = bfs_levels(g, [0])
        assert lev.tolist() == [0, 1, 2, 3, 4, 5]

    def test_multi_source(self):
        g = path_graph(7)
        lev = bfs_levels(g, [0, 6])
        assert lev.tolist() == [0, 1, 2, 3, 2, 1, 0]

    def test_unreachable(self):
        g = disjoint_union([path_graph(3), path_graph(3)])
        lev = bfs_levels(g, [0])
        assert np.all(lev[3:] == -1)

    def test_grid_distance_is_l1(self):
        g = grid_graph(5, 5)
        lev = bfs_levels(g, [0])
        expected = g.coords.sum(axis=1)
        assert np.array_equal(lev, expected)

    def test_empty_sources(self):
        g = path_graph(3)
        assert np.all(bfs_levels(g, []) == -1)


class TestBfsOrder:
    def test_covers_all_vertices(self):
        g = disjoint_union([path_graph(4), cycle_graph(5)])
        order = bfs_order(g, 0)
        assert sorted(order.tolist()) == list(range(9))

    def test_starts_at_source(self):
        g = grid_graph(4, 4)
        assert bfs_order(g, 5)[0] == 5

    def test_layers_are_contiguous(self):
        g = grid_graph(4, 4)
        order = bfs_order(g, 0)
        lev = bfs_levels(g, [0])
        assert np.all(np.diff(lev[order]) >= 0)


class TestComponents:
    def test_single_component(self):
        g = grid_graph(3, 4)
        assert np.all(connected_components(g) == 0)
        assert is_connected(g)

    def test_two_components(self):
        g = disjoint_union([path_graph(3), path_graph(4)])
        comp = connected_components(g)
        assert comp[:3].tolist() == [0, 0, 0]
        assert comp[3:].tolist() == [1, 1, 1, 1]
        assert not is_connected(g)

    def test_isolated_vertices(self):
        g = Graph(4, np.zeros((0, 2), dtype=np.int64))
        assert np.unique(connected_components(g)).size == 4

    def test_trivial_graphs_connected(self):
        assert is_connected(Graph(0, np.zeros((0, 2), dtype=np.int64)))
        assert is_connected(Graph(1, np.zeros((0, 2), dtype=np.int64)))


class TestPseudoPeripheral:
    def test_path_endpoint(self):
        g = path_graph(9)
        v = pseudo_peripheral_vertex(g, start=4)
        assert v in (0, 8)

    def test_grid_corner(self):
        g = grid_graph(5, 5)
        v = pseudo_peripheral_vertex(g, start=12)
        # corners are the extremal-eccentricity vertices
        assert tuple(g.coords[v]) in {(0, 0), (0, 4), (4, 0), (4, 4)}


# ----------------------------------------------------------------------
# native traversal vs the numpy reference
# ----------------------------------------------------------------------
def _native_or_skip():
    lib = C._native_lib()
    if lib is None:
        pytest.skip("native module unavailable (no compiler, or REPRO_BUCKET_C=0)")
    return lib


def clustered_graph(rng, n: int) -> Graph:
    """Random edges inside random clusters, plus isolated vertices: several
    components of uneven sizes, ids interleaved across components."""
    if n < 2:
        return Graph(n, np.zeros((0, 2), dtype=np.int64))
    cluster = rng.integers(0, int(rng.integers(1, 5)), size=n)
    cluster[rng.random(n) < 0.15] = -1  # isolated
    uu = rng.integers(0, n, size=3 * n)
    vv = rng.integers(0, n, size=3 * n)
    keep = (uu != vv) & (cluster[uu] == cluster[vv]) & (cluster[uu] >= 0)
    lo = np.minimum(uu[keep], vv[keep])
    hi = np.maximum(uu[keep], vv[keep])
    keys = np.unique(lo * n + hi)
    return Graph(n, np.column_stack([keys // n, keys % n]))


def churned_state_graph(rng):
    """A stream state's graph with soft-deleted (dead, isolated) slots."""
    from repro.stream import GraphState, Mutation

    side = int(rng.integers(4, 9))
    g = grid_graph(side, side)
    state = GraphState.from_graph(g, np.ones(g.n))
    dead = rng.choice(g.n, size=int(rng.integers(1, g.n // 3)), replace=False)
    state.apply([Mutation.remove_vertex(int(v)) for v in dead])
    return state.graph(), state.alive


class TestNativeTraversalDifferential:
    """The compiled traversals are byte-identical to the numpy frontier
    loop they replace: exact distances, (level, id) orders, components
    numbered by lowest vertex id."""

    @pytest.mark.parametrize("trial", range(40))
    def test_random_graphs(self, trial):
        _native_or_skip()
        rng = np.random.default_rng(4000 + trial)
        n = int(rng.choice([0, 1, 2, int(rng.integers(3, 90))]))
        g = clustered_graph(rng, n)
        comp = C.connected_components(g)
        assert comp.dtype == np.int64
        np.testing.assert_array_equal(comp, C._components_numpy(g))
        for size in (0, 1, 2, 5):
            if n == 0 and size:
                continue
            src = rng.integers(0, max(n, 1), size=size)  # repeats allowed
            want = C._bfs_levels_numpy(g, C._check_sources(n, src))
            np.testing.assert_array_equal(C.bfs_levels(g, src), want)
        for s in rng.integers(0, max(n, 1), size=3 if n else 0):
            np.testing.assert_array_equal(C.bfs_order(g, int(s)), C._bfs_order_numpy(g, int(s)))

    @pytest.mark.parametrize("trial", range(12))
    def test_derived_helpers_match_numpy_path(self, trial, monkeypatch):
        _native_or_skip()
        rng = np.random.default_rng(5000 + trial)
        if trial % 2:
            g, alive = churned_state_graph(rng)
        else:
            g = clustered_graph(rng, int(rng.integers(2, 60)))
            alive = rng.random(g.n) < 0.7
        starts = [int(s) for s in rng.integers(0, g.n, size=4)]
        native = (
            [C.pseudo_peripheral_vertex(g, start=s) for s in starts],
            C.is_connected_within(g, alive),
            C.is_connected(g),
            C.connected_components(g),
            C.bfs_order(g, starts[0]),
        )
        monkeypatch.setattr(C, "_native", None)
        reference = (
            [C.pseudo_peripheral_vertex(g, start=s) for s in starts],
            C.is_connected_within(g, alive),
            C.is_connected(g),
            C.connected_components(g),
            C.bfs_order(g, starts[0]),
        )
        assert native[:3] == reference[:3]
        np.testing.assert_array_equal(native[3], reference[3])
        np.testing.assert_array_equal(native[4], reference[4])

    def test_churned_live_set_connected(self):
        _native_or_skip()
        from repro.stream import GraphState, Mutation

        g = grid_graph(5, 5)
        state = GraphState.from_graph(g, np.ones(g.n))
        state.apply([Mutation.remove_vertex(12)])
        gg = state.graph()
        assert not C.is_connected(gg)  # the dead slot is isolated
        assert C.is_connected_within(gg, state.alive)
        # numbered by lowest vertex id: 0..11 found first, then slot 12
        assert C.connected_components(gg)[[0, 12, 13]].tolist() == [0, 1, 0]

    @pytest.mark.parametrize("bad", [[-1], [4], [0, 4], [2, -3]])
    def test_out_of_range_sources_raise_before_native(self, bad, monkeypatch):
        class Trap:
            def __getattr__(self, name):  # any native routine
                raise AssertionError(f"{name} reached native code")

        monkeypatch.setattr(C, "_native", Trap())
        g = path_graph(4)
        with pytest.raises(IndexError):
            C.bfs_levels(g, bad)
        with pytest.raises(IndexError):
            C.bfs_order(g, bad[-1])

    def test_empty_graph(self):
        g = Graph(0, np.zeros((0, 2), dtype=np.int64))
        assert C.bfs_levels(g, []).shape == (0,)
        assert C.connected_components(g).shape == (0,)
        with pytest.raises(IndexError):
            C.bfs_order(g, 0)

    def test_sources_need_not_be_int64_or_contiguous(self):
        g = grid_graph(6, 6)
        strided = np.arange(0, 12, dtype=np.int64)[::6]  # [0, 6]
        want = C._bfs_levels_numpy(g, np.array([0, 6], dtype=np.int64))
        np.testing.assert_array_equal(C.bfs_levels(g, strided), want)
        np.testing.assert_array_equal(C.bfs_levels(g, strided.astype(np.int32)), want)
        np.testing.assert_array_equal(C.bfs_levels(g, [0, 6]), want)
