"""Tests for the window-preserving k-way FM refinement."""

import numpy as np
import pytest

from repro.core import Coloring, kway_refine, run_pair_kernel
from repro.core.refine import _apply_move_deltas, _class_pair_costs
from repro.graphs import grid_graph, triangulated_mesh, unit_weights


class TestKwayRefine:
    def test_strict_balance_preserved(self):
        g = grid_graph(12, 12)
        w = unit_weights(g)
        k = 4
        chi = Coloring(np.random.default_rng(0).integers(0, k, g.n), k)
        # force strict balance first via equal random assignment
        labels = np.repeat(np.arange(k), g.n // k)
        np.random.default_rng(0).shuffle(labels)
        chi = Coloring(labels, k)
        assert chi.is_strictly_balanced(w)
        out = kway_refine(g, chi, w, rounds=3)
        assert out.is_strictly_balanced(w)

    def test_cut_never_increases(self):
        g = triangulated_mesh(10, 10)
        w = unit_weights(g)
        k = 4
        labels = np.repeat(np.arange(k), g.n // k)
        np.random.default_rng(1).shuffle(labels)
        chi = Coloring(labels, k)
        before = chi.max_boundary(g)
        out = kway_refine(g, chi, w, rounds=3)
        assert out.max_boundary(g) <= before + 1e-9

    def test_big_improvement_from_random_start(self):
        g = grid_graph(16, 16)
        w = unit_weights(g)
        k = 4
        labels = np.repeat(np.arange(k), g.n // k)
        np.random.default_rng(2).shuffle(labels)
        chi = Coloring(labels, k)
        out = kway_refine(g, chi, w, rounds=6)
        assert out.max_boundary(g) < 0.6 * chi.max_boundary(g)

    def test_k1_noop(self):
        g = grid_graph(4, 4)
        chi = Coloring.trivial(g.n, 1)
        out = kway_refine(g, chi, unit_weights(g), rounds=2)
        assert np.array_equal(out.labels, chi.labels)

    def test_edgeless_noop(self):
        from repro.graphs.graph import Graph

        g = Graph(6, np.zeros((0, 2), dtype=np.int64))
        chi = Coloring.round_robin(6, 2)
        out = kway_refine(g, chi, np.ones(6), rounds=2)
        assert np.array_equal(out.labels, chi.labels)


class TestPairwiseRefine:
    def test_respects_explicit_bounds(self):
        g = grid_graph(8, 8)
        w = unit_weights(g)
        labels = (g.coords[:, 1] >= 4).astype(np.int64)
        lo, hi = 30.0, 34.0
        run_pair_kernel(g, labels, w, 0, 1, lo, hi)
        cw = np.bincount(labels, weights=w, minlength=2)
        assert np.all(cw >= lo - 1e-9)
        assert np.all(cw <= hi + 1e-9)

    def test_improves_jagged_boundary(self):
        g = grid_graph(10, 10)
        w = unit_weights(g)
        # a deliberately jagged vertical split
        labels = (g.coords[:, 1] + (g.coords[:, 0] % 3) >= 5).astype(np.int64)
        before = g.boundary_cost(np.flatnonzero(labels == 0))
        avg = g.n / 2
        run_pair_kernel(g, labels, w, 0, 1, avg - 3, avg + 3)
        after = g.boundary_cost(np.flatnonzero(labels == 0))
        assert after <= before

    def test_empty_pair(self):
        g = grid_graph(4, 4)
        labels = np.full(g.n, 2, dtype=np.int64)
        assert run_pair_kernel(g, labels, unit_weights(g), 0, 1, 0.0, 100.0) == ([], False)


def loop_apply_move_deltas(g, labels, k, pair_costs, moved, i, j):
    """The pair-cost fold over per-moved-vertex edge slices — the bitwise
    reference for :func:`_apply_move_deltas`."""
    if not moved or g.m == 0:
        return
    mv = np.asarray(moved, dtype=np.int64)
    eids = np.unique(np.concatenate([g.eid[g.indptr[v] : g.indptr[v + 1]] for v in moved]))
    uu = g.edges[eids, 0]
    vv = g.edges[eids, 1]
    cc = g.costs[eids]
    moved_mask = np.zeros(g.n, dtype=bool)
    moved_mask[mv] = True
    lu_new = labels[uu]
    lv_new = labels[vv]
    lu_old = np.where(moved_mask[uu], i + j - lu_new, lu_new)
    lv_old = np.where(moved_mask[vv], i + j - lv_new, lv_new)
    for a, b, sign in ((lu_old, lv_old, -1.0), (lu_new, lv_new, 1.0)):
        sel = (a != b) & (a >= 0) & (b >= 0)
        if not np.any(sel):
            continue
        lo = np.minimum(a[sel], b[sel])
        hi = np.maximum(a[sel], b[sel])
        sums = np.bincount(lo * k + hi, weights=cc[sel] * sign, minlength=k * k)
        for key in np.flatnonzero(sums != 0):
            pair = (int(key) // k, int(key) % k)
            pair_costs[pair] = pair_costs.get(pair, 0.0) + float(sums[key])
    for pair in [p for p, c in pair_costs.items() if c <= 1e-12]:
        del pair_costs[pair]


def random_passes(g, k, seed, passes=10):
    """Labels (a few uncolored) and an iterator of ``passes`` committed
    ``i``<->``j`` move sets, each applied to the labels as it is yielded."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, g.n)
    labels[rng.choice(g.n, 3, replace=False)] = -1

    def moves():
        for _ in range(passes):
            i, j = (int(x) for x in rng.choice(k, 2, replace=False))
            members = np.flatnonzero((labels == i) | (labels == j))
            moved = rng.choice(members, size=int(rng.integers(1, 15)), replace=False)
            labels[moved] = i + j - labels[moved]
            yield moved.tolist(), i, j

    return labels, moves()


class TestMoveDeltaFold:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_loop_fold_bitwise_on_float_costs(self, seed):
        rng = np.random.default_rng(seed)
        g = triangulated_mesh(12, 13)
        g = g.with_costs(rng.lognormal(0.0, 0.8, g.m))
        k = 5
        labels, moves = random_passes(g, k, seed)
        fast = _class_pair_costs(g, labels, k)
        ref = dict(fast)
        for moved, i, j in moves:
            _apply_move_deltas(g, labels, k, fast, moved, i, j)
            loop_apply_move_deltas(g, labels, k, ref, moved, i, j)
            assert {p: c.hex() for p, c in fast.items()} == {p: c.hex() for p, c in ref.items()}

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_full_rescan_on_integer_costs(self, seed):
        rng = np.random.default_rng(seed)
        g = grid_graph(11, 12)
        g = g.with_costs(rng.integers(0, 5, g.m).astype(np.float64))
        k = 4
        labels, moves = random_passes(g, k, seed)
        costs = _class_pair_costs(g, labels, k)
        for moved, i, j in moves:
            _apply_move_deltas(g, labels, k, costs, moved, i, j)
            assert costs == _class_pair_costs(g, labels, k)
