"""Tests for the spectral solve cache, the oracle registry and the
eigensolver behind them.

The load-bearing property under test: records are byte-identical with the
solve cache on or off.  Every eigensolve starts from one fixed vector, so a
Fiedler vector is a function of its graph alone and the cache keys on
``Graph.structural_hash()`` and nothing else.
"""

import hashlib
import io
import json

import numpy as np
import pytest

from repro.core import min_max_partition
from repro.graphs import (
    Graph,
    disjoint_union,
    grid_graph,
    path_graph,
    triangulated_mesh,
    unit_weights,
    zipf_weights,
)
from repro.graphs.components import bfs_levels, pseudo_peripheral_vertex
from repro.obs import events, registry, reset_telemetry, telemetry_enabled
from repro.runtime import Scenario, run_scenario
from repro.separators import (
    REGISTRY,
    SolveCache,
    check_split_window,
    fiedler_order,
    fiedler_vector,
    make_oracle,
    oracle_split,
    process_cache,
    reset_solver_state,
    solver_stats,
)
from repro.separators import orders
from repro.separators.orders import (
    DENSE_CUTOFF,
    EIGSH_TOL,
    RAMP_DELTA,
    _component_fiedler,
    _positive_components,
)
from repro.separators.solve import COUNTERS


@pytest.fixture(autouse=True)
def _fresh_solver_state():
    reset_solver_state()
    yield
    reset_solver_state()


def big_grid(seed=0):
    """A grid large enough for the iterative eigensolver."""
    g = grid_graph(20, 20)
    rng = np.random.default_rng(seed)
    return g.with_costs(rng.uniform(0.5, 2.0, g.m))


class TestSolveCache:
    def test_hit_returns_bitwise_identical_vector(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORACLE_CACHE", "1")
        g = big_grid()
        cold = fiedler_vector(g)
        hit = fiedler_vector(g)
        assert hit.tobytes() == cold.tobytes()
        assert process_cache().stats()["hits"] == 1
        assert process_cache().stats()["misses"] == 1
        assert COUNTERS["solves"] == 1  # the hit skipped the eigensolve

    def test_cached_vectors_are_read_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORACLE_CACHE", "1")
        vec = fiedler_vector(big_grid())
        with pytest.raises(ValueError):
            vec[0] = 1.0

    def test_lru_eviction_accounting(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORACLE_CACHE", "1")
        monkeypatch.setenv("REPRO_ORACLE_CACHE_SIZE", "2")
        reset_solver_state()
        graphs = [big_grid(seed=s) for s in range(3)]
        for g in graphs:
            fiedler_vector(g)
        cache = process_cache()
        assert cache.stats() == {"entries": 2, "maxsize": 2, "hits": 0,
                                 "misses": 3, "evictions": 1}
        # the first graph was evicted; the last two are resident
        assert graphs[0].structural_hash() not in cache
        assert graphs[2].structural_hash() in cache

    def test_one_subgraph_reached_twice_shares_one_entry(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORACLE_CACHE", "1")
        g = big_grid()
        members = np.arange(150, dtype=np.int64)
        first = fiedler_vector(g.subgraph(members).graph)
        second = fiedler_vector(g.subgraph(members.copy()).graph)
        assert second.tobytes() == first.tobytes()
        assert process_cache().stats()["entries"] == 1
        assert COUNTERS["solves"] == 1

    def test_pipeline_keys_are_structural_hashes(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORACLE_CACHE", "1")
        solved, keys = [], []
        real_solve, real_put = orders.fiedler_vector, SolveCache.put

        def recording_solve(g, *args, **kwargs):
            solved.append(g.structural_hash())
            return real_solve(g, *args, **kwargs)

        def recording_put(self, key, vec):
            keys.append(key)
            real_put(self, key, vec)

        monkeypatch.setattr(orders, "fiedler_vector", recording_solve)
        monkeypatch.setattr(SolveCache, "put", recording_put)
        min_max_partition(grid_graph(24, 24), 8)
        assert keys and COUNTERS["iterative"] > 0
        assert set(keys) <= set(solved)
        # a key is put once: a later solve of the same structure is a hit
        assert len(keys) == len(set(keys))
        assert process_cache().stats()["entries"] == len(keys)

    def test_structural_hash_ignores_coords_and_sees_costs(self):
        g = grid_graph(5, 5)
        bare = Graph(g.n, g.edges, g.costs)  # same structure, no coords
        assert g.structural_hash() == bare.structural_hash()
        assert g.structural_hash() != g.with_costs(2.0 * g.costs).structural_hash()

    def test_env_toggle_disables_process_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORACLE_CACHE", "0")
        reset_solver_state()
        assert process_cache() is None
        assert solver_stats() == {"enabled": False,
                                  "counters": dict(COUNTERS), "cache": None}
        monkeypatch.setenv("REPRO_ORACLE_CACHE", "1")
        reset_solver_state()
        assert process_cache() is not None

    def test_env_size_bounds_process_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORACLE_CACHE_SIZE", "3")
        reset_solver_state()
        assert process_cache().maxsize == 3
        monkeypatch.delenv("REPRO_ORACLE_CACHE_SIZE")
        reset_solver_state()
        assert process_cache().maxsize == 256

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5", ""])
    def test_bad_env_size_is_an_error(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_ORACLE_CACHE", "1")
        monkeypatch.setenv("REPRO_ORACLE_CACHE_SIZE", value)
        reset_solver_state()
        with pytest.raises(ValueError, match=f"REPRO_ORACLE_CACHE_SIZE={value!r}"):
            process_cache()


#: sha256 of the int64 label bytes of ``min_max_partition`` with the default
#: oracle and zipf weights (``default_rng(11)``); every cell makes iterative
#: subgraph solves, so these pin the spectral oracle's orders end to end
PINNED_LABEL_DIGESTS = {
    ("grid", 4): "f9b484490a57b21d554d6c83de4649ad99677b11538bdead72f99ef576b4fce2",
    ("grid", 8): "dbe506dc2d503ae1da99cad341347f0bcafaf6ea3ed11e90e256c05f84448cee",
    ("mesh", 4): "2bd044d389498435624c754c5458a74855465a3a1419c5b8daae3709288ec1fa",
    ("mesh", 8): "bb9995ed4e9945a93ee36193ff00ea3a4577152bae8d7453a68ed81d1f7f70f8",
}


class TestPinnedLabels:
    @pytest.mark.parametrize("family, k", sorted(PINNED_LABEL_DIGESTS))
    def test_labels_match_pinned_digest(self, family, k):
        g = grid_graph(24, 24) if family == "grid" else triangulated_mesh(24, 24)
        w = zipf_weights(g, rng=np.random.default_rng(11))
        labels = min_max_partition(g, k, weights=w).labels
        digest = hashlib.sha256(np.ascontiguousarray(labels, dtype=np.int64).tobytes())
        assert COUNTERS["iterative"] > 0
        assert digest.hexdigest() == PINNED_LABEL_DIGESTS[family, k]


class TestDegenerateGraphs:
    def test_disconnected_components_stay_contiguous(self):
        g = disjoint_union([grid_graph(6, 6), path_graph(9), grid_graph(4, 5)])
        order = fiedler_order(g)
        comp_sizes = [36, 9, 20]
        starts = np.cumsum([0] + comp_sizes)
        # vertices of each component occupy one contiguous block of the order
        comp_of = np.searchsorted(starts, order, side="right")
        switches = int(np.count_nonzero(np.diff(comp_of)))
        assert switches == len(comp_sizes) - 1

    def test_disconnected_solve_is_deterministic(self):
        g = disjoint_union([grid_graph(13, 13), grid_graph(12, 12)])
        a = fiedler_vector(g)
        b = fiedler_vector(g)
        assert a.tobytes() == b.tobytes()

    def test_zero_cost_edges_do_not_break_the_solve(self):
        # two grids bridged by a single zero-cost edge: the Laplacian of the
        # full graph is degenerate, but per-positive-component solving is not
        a, b = grid_graph(6, 6), grid_graph(6, 6)
        g = disjoint_union([a, b])
        edges = np.vstack([g.edges, [[0, a.n]]])
        costs = np.concatenate([g.costs, [0.0]])
        bridged = Graph(g.n, edges, costs)
        v1 = fiedler_vector(bridged)
        v2 = fiedler_vector(bridged)
        assert v1.tobytes() == v2.tobytes()
        order = fiedler_order(bridged)
        # the zero-cost bridge must not interleave the two sides
        sides = (order >= a.n).astype(np.int64)
        assert int(np.abs(np.diff(sides)).sum()) == 1

    def test_split_window_holds_on_degenerate_graphs(self):
        g = disjoint_union([grid_graph(5, 5), path_graph(7)])
        w = unit_weights(g)
        for name in ("spectral", "best", "bfs"):
            u = make_oracle(name).split(g, w, g.n / 2.0)
            assert check_split_window(w, g.n / 2.0, u)


class TestRegistry:
    def test_known_names_build_named_oracles(self):
        for name in sorted(REGISTRY):
            oracle = make_oracle(name, seed=1)
            assert isinstance(oracle.name, str) and oracle.name
            assert isinstance(repr(oracle), str)

    def test_unknown_name_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown oracle 'nope'"):
            make_oracle("nope")
        with pytest.raises(ValueError, match="spectral"):
            make_oracle("typo")  # the message lists the known names

    def test_composite_names_reflect_parts(self):
        best = make_oracle("best")
        assert best.name.startswith("best(") and "spectral" in best.name

    def test_grid_oracle_dispatch_with_context(self):
        g = grid_graph(8, 8)
        w = unit_weights(g)
        for name in ("grid", "best", "spectral"):
            u = oracle_split(make_oracle(name, g=g), g, w, 20.0)
            assert check_split_window(w, 20.0, u)

    def test_plain_three_arg_oracles_still_dispatch(self):
        class Plain:
            def split(self, g, weights, target):
                return np.arange(int(round(target)), dtype=np.int64)

        g = grid_graph(4, 4)
        u = oracle_split(Plain(), g, unit_weights(g), 8.0)
        assert u.size == 8


def _smoke_records(scenarios):
    return [run_scenario(s).record() for s in scenarios]


class TestByteIdentity:
    SCENARIOS = [
        Scenario(family="grid", size=16, k=4, algorithm="minmax", weights="zipf"),
        Scenario(family="mesh", size=12, k=3, algorithm="recursive-bisection"),
        Scenario(family="grid", size=16, k=2, algorithm="kst", weights="bimodal"),
        # iterative subgraph solves: recursion paths that reach one subgraph
        # share its cache entry
        Scenario(family="grid", size=24, k=8, algorithm="minmax"),
    ]

    def test_records_identical_cache_on_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_ORACLE_CACHE", "1")
        reset_solver_state()
        hot = _smoke_records(self.SCENARIOS)
        # run the grid twice hot so later runs really are served from cache
        again = _smoke_records(self.SCENARIOS)
        assert hot == again
        monkeypatch.setenv("REPRO_ORACLE_CACHE", "0")
        reset_solver_state()
        cold = _smoke_records(self.SCENARIOS)
        assert cold == hot

    def test_records_name_their_oracle(self):
        recs = _smoke_records(self.SCENARIOS[:1])
        assert recs[0]["metrics"]["oracle"].startswith("best(")

    def test_solver_stats_stay_out_of_records(self):
        r = run_scenario(self.SCENARIOS[0])
        assert r.solver_stats is not None and r.solver_stats["solves"] >= 0
        assert "solver" not in r.record()
        for key in r.record()["metrics"]:
            assert key not in COUNTERS


def components_instance():
    """Float costs over a grid and a mesh bridged by zero-cost edges, with
    zero-cost edges inside each part too: several positive-cost components,
    two of them above ``DENSE_CUTOFF`` (n = 168 + 255 + 40)."""
    rng = np.random.default_rng(5)
    g = disjoint_union([grid_graph(12, 14), triangulated_mesh(15, 17), path_graph(40)])
    costs = rng.lognormal(0.0, 0.8, g.m)
    costs[rng.choice(g.m, 12, replace=False)] = 0.0
    bridges = [[0, 168], [100, 300], [167, 423], [400, 462]]
    return Graph(g.n, np.vstack([g.edges, bridges]), np.concatenate([costs, np.zeros(4)]))


def iterative_components(g):
    comp = _positive_components(g)
    for cid in range(int(comp.max()) + 1):
        members = np.flatnonzero(comp == cid)
        if members.size >= DENSE_CUTOFF:
            yield g.subgraph(members).graph


def dense_reference(g):
    """Second eigenvector of the ramped Laplacian by dense ``eigh``."""
    adj = np.zeros((g.n, g.n))
    adj[g.edges[:, 0], g.edges[:, 1]] = g.costs
    adj += adj.T
    deg = adj.sum(axis=1)
    ramp = RAMP_DELTA * deg.mean() * np.arange(g.n) / (g.n - 1)
    return np.linalg.eigh(np.diag(deg + ramp) - adj)[1][:, 1]


class TestShiftInvertFactorization:
    def test_components_cover_the_cases(self):
        g = components_instance()
        subs = list(iterative_components(g))
        assert len(subs) == 2
        assert all(DENSE_CUTOFF <= s.n <= 600 for s in subs)
        assert all(float(s.costs.min()) == 0.0 for s in subs)
        assert int(_positive_components(g).max()) + 1 > len(subs)

    def test_factor_is_symmetric_without_pivoting(self, monkeypatch):
        import scipy.sparse.linalg as spla

        factors = []
        real_splu = spla.splu

        def recording_splu(*args, **kwargs):
            factors.append(real_splu(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(spla, "splu", recording_splu)
        for sub in iterative_components(components_instance()):
            _component_fiedler(sub, EIGSH_TOL)
        assert len(factors) == 2
        for lu in factors:
            assert np.array_equal(lu.perm_r, lu.perm_c)

    def test_vector_matches_dense_reference(self):
        for sub in iterative_components(components_instance()):
            a = _component_fiedler(sub, EIGSH_TOL)
            b = dense_reference(sub)
            cos = abs(float(a @ b)) / (np.linalg.norm(a) * np.linalg.norm(b))
            assert cos >= 1.0 - 1e-9


@pytest.fixture
def failing_eigsh(monkeypatch):
    """``eigsh`` that never converges, a captured event log, no solve cache
    and a clean telemetry registry."""
    import scipy.sparse.linalg as spla

    def eigsh(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(spla, "eigsh", eigsh)
    monkeypatch.setenv("REPRO_ORACLE_CACHE", "0")
    reset_telemetry()
    log = io.StringIO()
    events.configure(log)
    try:
        yield log
    finally:
        events.configure(None)
        reset_telemetry()


def fallback_events(log):
    return [e for e in map(json.loads, log.getvalue().splitlines())
            if e["event"] == "oracle.fallback"]


class TestEigensolverFallback:
    def test_fallback_order_is_bfs_levels_and_is_reported(self, failing_eigsh):
        g = big_grid()
        levels = bfs_levels(g, [pseudo_peripheral_vertex(g)]).astype(np.float64)
        assert np.array_equal(fiedler_vector(g), levels)
        assert np.array_equal(fiedler_order(g), np.argsort(levels, kind="stable"))
        assert COUNTERS["fallbacks"] == 2
        assert [(e["reason"], e["n"]) for e in fallback_events(failing_eigsh)] == [
            ("ArpackNoConvergence", g.n)] * 2
        if telemetry_enabled():
            counters = registry().snapshot()["counters"]
            assert counters["oracle_fallbacks{reason=ArpackNoConvergence}"] == 2

    def test_records_identical_telemetry_on_off(self, failing_eigsh, monkeypatch):
        scenario = Scenario(family="grid", size=16, k=4, weights="zipf")
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        reset_telemetry()
        on = run_scenario(scenario).record()
        fell_back = COUNTERS["fallbacks"]
        assert fell_back > 0
        counters = registry().snapshot()["counters"]
        assert counters["oracle_fallbacks{reason=ArpackNoConvergence}"] == fell_back
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        reset_telemetry()
        off = run_scenario(scenario).record()
        assert COUNTERS["fallbacks"] == 2 * fell_back
        assert "oracle_fallbacks{reason=ArpackNoConvergence}" not in registry().snapshot()["counters"]
        assert len(fallback_events(failing_eigsh)) == 2 * fell_back
        assert json.dumps(on, sort_keys=True) == json.dumps(off, sort_keys=True)
