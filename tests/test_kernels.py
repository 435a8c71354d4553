"""Equivalence, tie-breaking, and registry tests for the FM move kernels.

Three kernels share one decision contract: the array-native bucket-queue
kernel (the default), the incremental gain-table kernel, and the historical
recompute-on-pop loop (``reference``).  On integer-valued edge costs every
gain is exact in all three, so equality is literal — same moves, same order,
same kept prefix — including zero-cost edges, ``movable`` masks, uncolored
vertices, singleton classes, negative-gain-only instances, and every
``max_moves`` truncation point.  The bucket kernel's compiled pass and its
no-native fallback (the heap) are both held to that contract (the C pass is
exercised wherever a compiler exists, and disabled by setting ``_bucket_c``
to ``None`` in the fallback tests).
"""

import ctypes

import numpy as np
import pytest

import repro.core.kernels as K
from repro.core import Coloring, kway_refine
from repro.core.kernels import (
    DEFAULT_KERNEL,
    REGISTRY,
    default_kernel,
    fm_pair_pass,
    fm_pair_pass_bucket,
    fm_pair_pass_reference,
    run_pair_kernel,
    use_kernel,
)
from repro.graphs import grid_graph, lognormal_costs, triangulated_mesh
from repro.graphs.graph import Graph
from repro.obs import registry, reset_telemetry

ALL_KERNELS = (fm_pair_pass_reference, fm_pair_pass, fm_pair_pass_bucket)


def random_instance(rng, *, with_uncolored=False, singleton=False):
    """A random simple graph with integer costs/weights and a k-labeling."""
    n = int(rng.integers(12, 48))
    # sample unique undirected pairs
    want = int(rng.integers(n, 3 * n))
    uu = rng.integers(0, n, size=4 * want)
    vv = rng.integers(0, n, size=4 * want)
    keep = uu != vv
    lo = np.minimum(uu[keep], vv[keep])
    hi = np.maximum(uu[keep], vv[keep])
    keys = np.unique(lo * n + hi)[:want]
    edges = np.column_stack([keys // n, keys % n])
    # integer costs, zeros included: gains stay exact in every kernel
    costs = rng.integers(0, 7, size=edges.shape[0]).astype(np.float64)
    g = Graph(n, edges, costs)
    w = rng.integers(1, 6, size=n).astype(np.float64)
    k = int(rng.integers(2, 5))
    labels = rng.integers(0, k, size=n).astype(np.int64)
    if singleton:
        # class 0 collapses to a single vertex
        labels[labels == 0] = 1
        labels[int(rng.integers(0, n))] = 0
    if with_uncolored:
        labels[rng.random(n) < 0.15] = -1
    return g, w, k, labels


def all_kernels(g, labels, w, i, j, lo, hi, **kw):
    """Run every kernel on a private copy of ``labels``."""
    out = []
    for fn in ALL_KERNELS:
        lab = labels.copy()
        res = fn(g, lab, w, i, j, lo, hi, **kw)
        out.append((lab, res))
    return out


def assert_all_equal(runs):
    (la, ra), rest = runs[0], runs[1:]
    for lb, rb in rest:
        assert np.array_equal(la, lb)
        assert ra == rb


class TestPairEquivalence:
    @pytest.mark.parametrize("trial", range(20))
    def test_random_instances(self, trial):
        rng = np.random.default_rng(100 + trial)
        g, w, k, labels = random_instance(
            rng,
            with_uncolored=trial % 3 == 0,
            singleton=trial % 4 == 0,
        )
        total = float(w[labels >= 0].sum())
        avg = total / k
        span = float(w.max()) * (1.0 - 1.0 / k)
        movable = None
        if trial % 2 == 0:
            movable = rng.random(g.n) < 0.6
        i, j = 0, 1
        assert_all_equal(
            all_kernels(g, labels, w, i, j, avg - span, avg + span, movable=movable)
        )

    @pytest.mark.parametrize("trial", range(6))
    def test_random_instances_python_bucket_loop(self, trial, monkeypatch):
        """With native code off, ``bucket`` falls back to the heap under the
        same contract as the compiled pass (and as both heap kernels)."""
        monkeypatch.setattr(K, "_bucket_c", None)
        rng = np.random.default_rng(900 + trial)
        g, w, k, labels = random_instance(rng, with_uncolored=trial % 2 == 0)
        total = float(w[labels >= 0].sum())
        avg = total / k
        span = float(w.max()) * (1.0 - 1.0 / k)
        assert_all_equal(all_kernels(g, labels, w, 0, 1, avg - span, avg + span))

    @pytest.mark.parametrize("trial", range(6))
    def test_sparse_halo_restricted_path(self, trial):
        """Sparse ``movable`` masks (members*8 <= n) take the kernels'
        restricted path; it must match the reference exactly too."""
        from repro.graphs.components import bfs_levels

        rng = np.random.default_rng(600 + trial)
        g = grid_graph(20, 20)
        g = g.with_costs(rng.integers(0, 5, g.m).astype(np.float64))
        w = rng.integers(1, 5, g.n).astype(np.float64)
        k = 3
        labels = rng.integers(0, k, g.n).astype(np.int64)
        seed = int(rng.integers(0, g.n))
        levels = bfs_levels(g, np.asarray([seed]))
        movable = (levels >= 0) & (levels <= 2)
        in_pair = (labels == 0) | (labels == 1)
        assert np.flatnonzero(in_pair & movable).size * 8 <= g.n
        total = float(w.sum())
        avg = total / k
        span = float(w.max()) * (1.0 - 1.0 / k)
        assert_all_equal(
            all_kernels(g, labels, w, 0, 1, avg - span, avg + span, movable=movable)
        )

    @pytest.mark.parametrize("mask", ["halo", "dense"])
    @pytest.mark.parametrize("family", ["grid", "mesh"])
    @pytest.mark.parametrize("trial", range(10))
    def test_lognormal_costs_both_gain_setups(self, trial, family, mask):
        """Float costs: a BFS-radius-2 halo takes the halo gain setup and a
        60% mask the heap's, and both feed the one interpreted move loop;
        the three kernels still keep the same moves."""
        from repro.graphs.components import bfs_levels

        rng = np.random.default_rng(700 + trial)
        g = grid_graph(20, 20) if family == "grid" else triangulated_mesh(20, 20)
        g = g.with_costs(lognormal_costs(g, sigma=0.8, rng=rng))
        w = rng.integers(1, 5, g.n).astype(np.float64)
        k = 3
        labels = rng.integers(0, k, g.n).astype(np.int64)
        if mask == "halo":
            levels = bfs_levels(g, np.asarray([int(rng.integers(0, g.n))]))
            movable = (levels >= 0) & (levels <= 2)
        else:
            movable = rng.random(g.n) < 0.6
        members = np.flatnonzero(((labels == 0) | (labels == 1)) & movable).size
        assert (members * 8 <= g.n) == (mask == "halo")
        avg = float(w.sum()) / k
        span = float(w.max()) * (1.0 - 1.0 / k)
        assert_all_equal(
            all_kernels(g, labels, w, 0, 1, avg - span, avg + span, movable=movable)
        )

    @pytest.mark.parametrize("max_moves", [0, 1, 2, 3, 7, None])
    def test_truncation_determinism(self, max_moves):
        """All kernels agree at every ``max_moves`` truncation point."""
        rng = np.random.default_rng(7)
        g, w, k, labels = random_instance(rng)
        total = float(w.sum())
        avg = total / k
        span = float(w.max()) * (1.0 - 1.0 / k)
        runs = all_kernels(
            g, labels, w, 0, 1, avg - span, avg + span, max_moves=max_moves
        )
        assert_all_equal(runs)
        if max_moves == 0:
            assert runs[0][1] == ([], False)
            assert np.array_equal(runs[0][0], labels)

    def test_zero_cost_edges_only(self):
        """All-zero costs: no gain anywhere, every kernel keeps nothing."""
        g = grid_graph(5, 5)
        g = g.with_costs(np.zeros(g.m))
        labels = (np.arange(g.n) % 2).astype(np.int64)
        w = np.ones(g.n)
        runs = all_kernels(g, labels, w, 0, 1, 0.0, 100.0)
        assert_all_equal(runs)
        assert runs[0][1] == ([], False)

    def test_negative_gains_only(self):
        """A fully interior pair (every gain negative): the kernels still
        explore hill-descending moves identically and keep none of them."""
        # two cliques joined by nothing: moving any vertex only adds cut
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        edges += [(a + 4, b + 4) for a in range(4) for b in range(a + 1, 4)]
        g = Graph(8, np.asarray(edges), np.full(len(edges), 2.0))
        labels = np.asarray([0] * 4 + [1] * 4, dtype=np.int64)
        w = np.ones(8)
        runs = all_kernels(g, labels, w, 0, 1, 0.0, 100.0)
        assert_all_equal(runs)
        kept, improved = runs[0][1]
        assert kept == [] and not improved
        # bucket coverage: every initial gain sits in a negative bucket
        assert np.all(labels == runs[0][0])

    def test_empty_pair(self):
        g = grid_graph(4, 4)
        labels = np.full(g.n, 2, dtype=np.int64)
        for fn in ALL_KERNELS:
            out = fn(g, labels.copy(), np.ones(g.n), 0, 1, 0.0, 100.0)
            assert out == ([], False)

    def test_tie_breaks_on_vertex_id(self):
        """Equal gains pop in ascending vertex order in every kernel."""
        # v0..v3 in two classes; the two cut edges have equal cost, so v0
        # and v1 tie at gain +1 and v0 (the smaller id) must move first.
        edges = [(0, 2), (1, 3)]
        g = Graph(4, np.asarray(edges), np.ones(2))
        labels = np.asarray([0, 0, 1, 1], dtype=np.int64)
        w = np.ones(4)
        for fn in ALL_KERNELS:
            lab = labels.copy()
            kept, improved = fn(g, lab, w, 0, 1, 0.0, 10.0, max_moves=1)
            assert kept == [0]
            assert improved
            assert lab.tolist() == [1, 0, 1, 1]

    def test_non_integral_costs_route_to_gain_table(self):
        """Float costs fall back to the incremental kernel (identical
        labels), so ``bucket`` is safe as the universal default."""
        rng = np.random.default_rng(42)
        g, w, k, labels = random_instance(rng)
        g = g.with_costs(rng.random(g.m) * 3.0)
        assert not g.costs_integral()
        total = float(w[labels >= 0].sum())
        avg = total / k
        span = float(w.max()) * (1.0 - 1.0 / k)
        la, lb = labels.copy(), labels.copy()
        ra = fm_pair_pass_bucket(g, la, w, 0, 1, avg - span, avg + span)
        rb = fm_pair_pass(g, lb, w, 0, 1, avg - span, avg + span)
        assert np.array_equal(la, lb)
        assert ra == rb


def _native_or_skip():
    lib = K._bucket_loop_c()
    if lib is None:
        pytest.skip("native module unavailable (no compiler, or REPRO_BUCKET_C=0)")
    return lib


class _SpyLib:
    """Stands in for the native module; records each native bucket pass's
    ``(nmoves, best_prefix)``, read back from the output pointer."""

    def __init__(self, lib):
        self.lib = lib
        self.calls = []

    def bucket_pass(self, *args):
        nmoves = self.lib.bucket_pass(*args)
        self.calls.append((nmoves, ctypes.c_int64.from_address(args[-1]).value))
        return nmoves


def split_grid_instance(rng, side=12):
    """A grid cut by a balanced row-major prefix, integer costs: the start
    is strictly balanced and near a local optimum, so FM explores many
    moves and rolls most of them back."""
    g = grid_graph(side, side)
    g = g.with_costs(rng.integers(1, 4, g.m).astype(np.float64))
    w = rng.integers(1, 4, g.n).astype(np.float64)
    total = float(w.sum())
    span = float(w.max()) * 0.5
    cum = np.cumsum(w)
    cut = int(np.argmin(np.abs(cum - total / 2)))
    labels = (np.arange(g.n) > cut).astype(np.int64)
    assert abs(cum[cut] - total / 2) <= span
    return g, w, labels, total / 2 - span, total / 2 + span


def native_heap_reference(g, labels, w, lo, hi, monkeypatch, **kw):
    """(native run, heap-fallback run, reference run), each on a copy."""
    spy = _SpyLib(_native_or_skip())
    monkeypatch.setattr(K, "_bucket_c", spy)
    la = labels.copy()
    ra = fm_pair_pass_bucket(g, la, w, 0, 1, lo, hi, **kw)
    monkeypatch.setattr(K, "_bucket_c", None)
    lb = labels.copy()
    rb = fm_pair_pass_bucket(g, lb, w, 0, 1, lo, hi, **kw)
    lc = labels.copy()
    rc = fm_pair_pass_reference(g, lc, w, 0, 1, lo, hi, **kw)
    return spy.calls, [(la, ra), (lb, rb), (lc, rc)]


class TestNativeBucketPass:
    """The one-call native pass (gains, bitmap, loop, rollback in C) against
    the heap fallback and the reference kernel."""

    @pytest.mark.parametrize("trial", range(8))
    def test_rollback_heavy_passes(self, trial, monkeypatch):
        rng = np.random.default_rng(1300 + trial)
        g, w, labels, lo, hi = split_grid_instance(rng)
        calls, runs = native_heap_reference(g, labels, w, lo, hi, monkeypatch)
        assert_all_equal(runs)
        ((nmoves, best_prefix),) = calls
        # most explored moves are undone, in C
        assert nmoves - best_prefix > nmoves // 2
        assert len(runs[0][1][0]) == best_prefix

    @pytest.mark.parametrize("max_moves", [0, 1, 2, 5, 13, 40])
    def test_max_moves_caps(self, max_moves, monkeypatch):
        rng = np.random.default_rng(77)
        g, w, labels, lo, hi = split_grid_instance(rng, side=10)
        calls, runs = native_heap_reference(
            g, labels, w, lo, hi, monkeypatch, max_moves=max_moves)
        assert_all_equal(runs)
        ((nmoves, _),) = calls
        assert nmoves <= max_moves

    def test_out_of_window_start_keeps_best_effort(self, monkeypatch):
        # class 0 holds almost everything: the start is outside the window
        # and two moves cannot reach it, so best_prefix == 0 and every move
        # is kept instead of rolled back to the invalid start
        g = grid_graph(8, 8)
        w = np.ones(g.n)
        labels = np.zeros(g.n, dtype=np.int64)
        labels[[7, 15]] = 1
        calls, runs = native_heap_reference(
            g, labels, w, 30.0, 34.0, monkeypatch, max_moves=2)
        assert_all_equal(runs)
        assert calls == [(2, 0)]
        kept, improved = runs[0][1]
        assert len(kept) == 2 and not improved
        assert int((runs[0][0] == 1).sum()) == 4

    @pytest.mark.parametrize("layout", ["int32", "strided"])
    def test_labels_native_cannot_address_take_python_loop(self, layout, monkeypatch):
        """Labels the C routine cannot address (not int64, or strided) take
        the heap, a Python loop, with the reference kernel's result."""
        _native_or_skip()

        def trap(*args, **kwargs):
            raise AssertionError("native pass reached with unaddressable labels")

        monkeypatch.setattr(K, "_native_pass", trap)
        rng = np.random.default_rng(5)
        g, w, labels, lo, hi = split_grid_instance(rng)
        if layout == "int32":
            lab = labels.astype(np.int32)
        else:
            lab = np.zeros(2 * g.n, dtype=np.int64)[::2]
            lab[:] = labels
        assert lab.dtype != np.int64 or not lab.flags.c_contiguous
        res = fm_pair_pass_bucket(g, lab, w, 0, 1, lo, hi)
        want = labels.copy()
        assert res == fm_pair_pass_reference(g, want, w, 0, 1, lo, hi)
        assert np.array_equal(lab, want)


class TestPassInputs:
    """Integer masks and numpy scalars mean what their bool / Python
    equivalents mean, in every kernel and on the native path too."""

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    @pytest.mark.parametrize("seed", range(3))
    def test_integer_movable_mask_matches_bool(self, dtype, seed):
        rng = np.random.default_rng(seed)
        g = grid_graph(16, 16)
        labels = np.repeat(np.arange(4), g.n // 4).astype(np.int64)
        rng.shuffle(labels)
        movable = rng.random(g.n) < 0.6
        w = np.ones(g.n)
        lo, hi = g.n / 4 - 1.0, g.n / 4 + 1.0
        # the masked members exceed n/8, so this is a dense pass
        assert np.count_nonzero(((labels == 0) | (labels == 1)) & movable) * 8 > g.n
        want = all_kernels(g, labels, w, 0, 1, lo, hi, movable=movable)
        assert want[0][1][0], "the pass should move something"
        got = all_kernels(g, labels, w, 0, 1, lo, hi, movable=movable.astype(dtype))
        assert_all_equal(want + got)

    def test_numpy_scalar_bounds_and_class_ids(self):
        g, w, labels, lo, hi = split_grid_instance(np.random.default_rng(11))
        want = all_kernels(g, labels, w, 0, 1, lo, hi)
        got = all_kernels(
            g, labels, w, np.int64(0), np.int64(1), np.float64(lo), np.float64(hi))
        assert_all_equal(want + got)


@pytest.fixture
def kernel_path_counts(monkeypatch):
    """Telemetry on over an empty registry; yields a reader of the
    ``kernel_passes{path=...}`` counters."""
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    reset_telemetry()

    def counts():
        counters = registry().snapshot()["counters"]
        return {k: v for k, v in counters.items() if k.startswith("kernel_passes")}

    yield counts
    monkeypatch.undo()
    reset_telemetry()


class TestPathTelemetry:
    """Each dispatched pass counts the path it took."""

    def test_integer_costs_count_native(self, kernel_path_counts):
        _native_or_skip()
        g, w, labels, lo, hi = split_grid_instance(np.random.default_rng(3))
        fm_pair_pass_bucket(g, labels.copy(), w, 0, 1, lo, hi)
        assert kernel_path_counts() == {"kernel_passes{path=native}": 1}

    def test_float_costs_and_no_native_count_heap(self, kernel_path_counts, monkeypatch):
        g, w, labels, lo, hi = split_grid_instance(np.random.default_rng(3))
        fm_pair_pass_bucket(g.with_costs(g.costs + 0.5), labels.copy(), w, 0, 1, lo, hi)
        monkeypatch.setattr(K, "_bucket_c", None)
        fm_pair_pass_bucket(g, labels.copy(), w, 0, 1, lo, hi)
        fm_pair_pass(g, labels.copy(), w, 0, 1, lo, hi)
        assert kernel_path_counts() == {"kernel_passes{path=heap}": 3}

    def test_sparse_mask_counts_restricted(self, kernel_path_counts):
        g, w, labels, lo, hi = split_grid_instance(np.random.default_rng(3))
        movable = np.zeros(g.n, dtype=bool)
        movable[: g.n // 16] = True
        fm_pair_pass_bucket(g, labels.copy(), w, 0, 1, lo, hi, movable=movable)
        fm_pair_pass(g, labels.copy(), w, 0, 1, lo, hi, movable=movable)
        assert kernel_path_counts() == {"kernel_passes{path=restricted}": 2}

    def test_nothing_counted_with_telemetry_off(self, kernel_path_counts, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        reset_telemetry()
        g, w, labels, lo, hi = split_grid_instance(np.random.default_rng(3))
        fm_pair_pass_bucket(g, labels.copy(), w, 0, 1, lo, hi)
        fm_pair_pass(g, labels.copy(), w, 0, 1, lo, hi)
        assert kernel_path_counts() == {}


class TestWindowSlack:
    def test_slack_uses_full_pair_not_movable_members(self):
        """A ``movable`` mask must not shrink the one-move overshoot slack.

        The heaviest pair vertex (w=10) is immovable; the movable members
        weigh at most 3.  The improving sequence below stacks two moves into
        class 0 (intermediate weight 22, i.e. hi + 6) before two moves out
        restore the window — legal under the full-pair slack of 10, but
        rejected if the slack were computed over movable members only (3).
        """
        #       v0 (w=10, cls 0, frozen)   v5 (w=1, cls 1, frozen)
        # v1, v2 (w=3, cls 1) pulled into 0; v3, v4 (w=3, cls 0) into 1.
        edges = np.asarray([(0, 1), (0, 2), (3, 5), (4, 5)])
        costs = np.asarray([5.0, 4.0, 3.0, 2.0])
        g = Graph(6, edges, costs)
        w = np.asarray([10.0, 3.0, 3.0, 3.0, 3.0, 1.0])
        labels = np.asarray([0, 1, 1, 0, 0, 1], dtype=np.int64)
        movable = np.asarray([False, True, True, True, True, False])
        lo, hi = 5.0, 16.0
        for fn in ALL_KERNELS:
            lab = labels.copy()
            kept, improved = fn(g, lab, w, 0, 1, lo, hi, movable=movable)
            assert improved
            assert kept == [1, 2, 3, 4]
            assert lab.tolist() == [0, 0, 0, 1, 1, 1]
            # the deep-slack basin removes the whole cut
            assert g.boundary_cost(lab == 0) == 0.0
            cw = np.bincount(lab, weights=w, minlength=2)
            assert lo <= cw[0] <= hi and lo <= cw[1] <= hi


class TestKwayIncrementalPairCosts:
    @pytest.mark.parametrize("trial", range(8))
    def test_matches_full_rescan(self, trial):
        rng = np.random.default_rng(300 + trial)
        g, w, k, _ = random_instance(rng)
        labels = np.repeat(np.arange(k), g.n // k + 1)[: g.n].astype(np.int64)
        rng.shuffle(labels)
        chi = Coloring(labels, k)
        fast = kway_refine(g, chi, w, rounds=3)
        slow = kway_refine(g, chi, w, rounds=3, incremental_pair_costs=False)
        assert np.array_equal(fast.labels, slow.labels)

    def test_mesh_reference_stack_vs_bucket_stack(self):
        """Old stack (reference kernel + rescan) == new stack, end to end."""
        g = triangulated_mesh(9, 9)
        w = np.ones(g.n)
        k = 4
        labels = np.repeat(np.arange(k), g.n // k + 1)[: g.n].astype(np.int64)
        np.random.default_rng(5).shuffle(labels)
        chi = Coloring(labels, k)
        new = kway_refine(g, chi, w, rounds=4)
        old = kway_refine(
            g, chi, w, rounds=4,
            incremental_pair_costs=False, kernel="reference",
        )
        assert np.array_equal(new.labels, old.labels)

    def test_kernel_param_threads_through(self):
        """``kway_refine(kernel=...)`` pins every pass regardless of the
        process default."""
        g = triangulated_mesh(8, 8)
        w = np.ones(g.n)
        k = 3
        labels = np.repeat(np.arange(k), g.n // k + 1)[: g.n].astype(np.int64)
        np.random.default_rng(9).shuffle(labels)
        chi = Coloring(labels, k)
        with use_kernel("reference"):
            pinned = kway_refine(g, chi, w, rounds=2, kernel="bucket")
        default = kway_refine(g, chi, w, rounds=2)
        assert np.array_equal(pinned.labels, default.labels)


class TestKernelRegistry:
    def test_registry_names(self):
        assert set(REGISTRY) == {"bucket", "incremental", "reference"}
        assert DEFAULT_KERNEL == "bucket"
        assert REGISTRY["bucket"] is fm_pair_pass_bucket
        assert REGISTRY["incremental"] is fm_pair_pass
        assert REGISTRY["reference"] is fm_pair_pass_reference

    def test_kernel_objects_are_callable(self):
        g = grid_graph(4, 4)
        labels = (np.arange(g.n) % 2).astype(np.int64)
        w = np.ones(g.n)
        runs = []
        for name in sorted(REGISTRY):
            lab = labels.copy()
            runs.append((lab, REGISTRY[name](g, lab, w, 0, 1, 0.0, 100.0)))
        assert_all_equal(runs)

    def test_default_and_override(self):
        assert default_kernel() == "bucket"
        with use_kernel("reference"):
            assert default_kernel() == "reference"
        assert default_kernel() == "bucket"

    def test_use_kernel_unknown_is_value_error(self):
        with pytest.raises(ValueError, match="unknown FM kernel 'nope'"):
            with use_kernel("nope"):
                pass  # pragma: no cover

    def test_unknown_kernel_rejected_value_error(self):
        g = grid_graph(3, 3)
        with pytest.raises(ValueError, match="unknown FM kernel 'nope'; known: bucket"):
            run_pair_kernel(
                g, np.zeros(g.n, dtype=np.int64), np.ones(g.n), 0, 1, 0.0, 9.0,
                kernel="nope",
            )


class TestSweepRecordsKernel:
    def test_records_name_their_kernel(self):
        from repro.runtime import Scenario, run_scenario
        from repro.runtime.algorithms import resolved_kernel_name

        s = Scenario(family="grid", size=8, k=2, algorithm="minmax")
        assert resolved_kernel_name(s) == "bucket"
        r = run_scenario(s)
        assert r.metrics["kernel"] == "bucket"
        s2 = Scenario(
            family="grid", size=8, k=2, algorithm="minmax",
            params=(("kernel", "reference"),),
        )
        assert resolved_kernel_name(s2) == "reference"
        r2 = run_scenario(s2)
        assert r2.metrics["kernel"] == "reference"
        # byte-identical partitions, only the recorded name differs
        assert r.metrics["max_boundary"] == r2.metrics["max_boundary"]
        s3 = Scenario(family="grid", size=8, k=2, algorithm="greedy")
        assert resolved_kernel_name(s3) is None
        assert "kernel" not in run_scenario(s3).metrics

    def test_unknown_kernel_param_rejected(self):
        from repro.runtime import Scenario
        from repro.runtime.algorithms import resolved_kernel_name

        s = Scenario(
            family="grid", size=8, k=2, algorithm="minmax",
            params=(("kernel", "nope"),),
        )
        with pytest.raises(ValueError, match="unknown FM kernel 'nope'"):
            resolved_kernel_name(s)

    def test_cli_kernel_axis_validated(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown kernel 'nope'"):
            main(["sweep", "--family", "grid", "--size", "8", "--k", "2",
                  "--kernel", "nope"])


def assert_preset_records_match(preset, ablation):
    """``preset`` solved with the default kernel and with ``ablation`` yields
    identical records; only ``metrics["kernel"]`` (the honest name of what
    ran) may differ."""
    from repro.cli import SWEEP_PRESETS
    from repro.runtime import ScenarioGrid, results_to_dict, run_sweep

    scenarios = ScenarioGrid(**SWEEP_PRESETS[preset]).scenarios()
    new = results_to_dict(run_sweep(scenarios, workers=1))
    with use_kernel(ablation):
        old = results_to_dict(run_sweep(scenarios, workers=1))
    for rec in (*new["results"], *old["results"]):
        rec["metrics"].pop("kernel", None)
    assert new == old


class TestGoldenSmokeGrid:
    @pytest.mark.parametrize("ablation", ["incremental", "reference"])
    def test_smoke_grid_byte_identical_across_kernels(self, ablation):
        """The CI smoke grid solved with every kernel yields identical
        records — the golden gate for swapping the default kernel."""
        assert_preset_records_match("smoke", ablation)

    @pytest.mark.parametrize("ablation", ["incremental", "reference"])
    @pytest.mark.parametrize("preset", ["stream", "growth"])
    def test_stream_presets_byte_identical_across_kernels(self, preset, ablation):
        """The streaming presets run heap and halo passes on jittered float
        costs, which the smoke grid (integer costs, native passes only)
        never reaches: their records must not move with the kernel either."""
        assert_preset_records_match(preset, ablation)
