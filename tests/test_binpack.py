"""Tests for Appendix A.2's bin-packing procedures (Lemma 15, Prop 12)."""

import numpy as np
import pytest

from repro.core import Coloring, binpack_merge, binpack_strict, extract_chunk
from repro.graphs import grid_graph, path_graph, triangulated_mesh, unit_weights
from repro.separators import BestOfOracle, BfsOracle


@pytest.fixture
def oracle():
    return BestOfOracle([BfsOracle()])


class TestExtractChunk:
    def test_window(self, oracle):
        g = grid_graph(8, 8)
        w = unit_weights(g)
        members = np.arange(g.n, dtype=np.int64)
        x = extract_chunk(g, members, w, 1.0, 2.0, oracle)
        assert 1.0 - 1e-9 <= w[x].sum() <= 2.0 + 1e-9

    def test_single_heavy_vertex_preferred(self, oracle):
        g = path_graph(10)
        w = np.ones(10)
        w[5] = 1.0
        x = extract_chunk(g, np.arange(10), w, 1.0, 2.0, oracle)
        assert x.size in (1, 2)  # heavy vertex or tiny split

    def test_whole_set_when_light(self, oracle):
        g = path_graph(4)
        w = np.ones(4)
        x = extract_chunk(g, np.arange(4), w, 1.0, 10.0, oracle)
        assert x.size == 4

    def test_weighted_window(self, oracle):
        g = grid_graph(6, 6)
        rng = np.random.default_rng(0)
        w = rng.uniform(0.1, 1.0, g.n)
        wmax = float(w.max())
        x = extract_chunk(g, np.arange(g.n), w, wmax / 2, wmax, oracle)
        assert wmax / 2 - 1e-9 <= w[x].sum() <= wmax + 1e-9


class TestBinPackMerge:
    def test_sum_becomes_almost_strict(self, oracle):
        """Lemma 15's contract: χ̃₀ ⊕ χ̂₁ class weights within 2‖w‖∞ of avg."""
        g = grid_graph(10, 10)
        w = unit_weights(g)
        k = 4
        # χ₀ colors all of V unevenly; external per-class weights w1 = 0
        labels = np.zeros(g.n, dtype=np.int64)
        labels[80:] = 1  # class 0 has 80, class 1 has 20, classes 2,3 empty
        chi0 = Coloring(labels, k)
        out = binpack_merge(g, chi0, np.zeros(k), w, oracle)
        cw = out.class_weights(w)
        avg = w.sum() / k
        assert np.all(np.abs(cw - avg) <= 2 * w.max() + 1e-9)

    def test_respects_external_weights(self, oracle):
        g = grid_graph(10, 10)
        w = unit_weights(g)
        k = 4
        chi0 = Coloring.round_robin(g.n, k)
        # class 0 already has 30 outside; Lemma 15 requires w1(i) ≤ w* − ‖w‖∞
        w1 = np.array([30.0, 0.0, 0.0, 0.0])
        out = binpack_merge(g, chi0, w1, w, oracle)
        cw = out.class_weights(w) + w1
        avg = (w.sum() + w1.sum()) / k
        assert np.all(np.abs(cw - avg) <= 2 * w.max() + 1e-9)

    def test_colors_nothing_lost(self, oracle):
        g = triangulated_mesh(6, 6)
        w = unit_weights(g)
        chi0 = Coloring.trivial(g.n, 3)
        out = binpack_merge(g, chi0, np.zeros(3), w, oracle)
        assert out.is_total()


class TestBinPackStrict:
    def test_definition1_contract_unit_weights(self, oracle):
        g = grid_graph(10, 10)
        w = unit_weights(g)
        for k in [2, 3, 4, 7]:
            chi = Coloring.trivial(g.n, k)
            out = binpack_strict(g, chi, w, oracle)
            assert out.is_strictly_balanced(w), k
            assert out.is_total()

    def test_definition1_contract_skewed_weights(self, oracle):
        g = triangulated_mesh(8, 8)
        rng = np.random.default_rng(4)
        w = rng.exponential(1.0, g.n) + 0.01
        w[0] = w.sum() / 3  # a dominant vertex
        for k in [2, 4, 6]:
            chi = Coloring.trivial(g.n, k)
            out = binpack_strict(g, chi, w, oracle)
            assert out.is_strictly_balanced(w), k

    def test_already_strict_stays_strict(self, oracle):
        g = grid_graph(8, 8)
        w = unit_weights(g)
        chi = Coloring.round_robin(g.n, 4)
        out = binpack_strict(g, chi, w, oracle)
        assert out.is_strictly_balanced(w)

    def test_more_classes_than_vertices(self, oracle):
        g = path_graph(3)
        w = np.ones(3)
        chi = Coloring.trivial(3, 5)
        out = binpack_strict(g, chi, w, oracle)
        assert out.is_strictly_balanced(w)

    def test_k1(self, oracle):
        g = path_graph(5)
        chi = Coloring.trivial(5, 1)
        out = binpack_strict(g, chi, np.ones(5), oracle)
        assert np.array_equal(out.labels, chi.labels)

    def test_boundary_growth_bounded(self, oracle):
        """Prop 12: boundary grows by O(existing + π^{1/p} + Δ_c), not blowup."""
        g = grid_graph(12, 12)
        w = unit_weights(g)
        k = 4
        chi = Coloring.round_robin(g.n, k)  # awful boundary but balanced
        # instead use a good starting coloring: quadrant split
        labels = (g.coords[:, 0] >= 6).astype(np.int64) * 2 + (g.coords[:, 1] >= 6).astype(np.int64)
        chi = Coloring(labels, 4)
        before = chi.max_boundary(g)
        out = binpack_strict(g, chi, w, oracle)
        assert out.is_strictly_balanced(w)
        # quadrants were already strictly balanced: nothing should change much
        assert out.max_boundary(g) <= before + 2 * g.max_cost_degree() + 1e-9

    def test_balance_repair_is_counted_and_logged(self, oracle, monkeypatch):
        """Prop 12's safety net is observable: a chunk extractor that finds
        nothing leaves a class overweight, the greedy repair balances it,
        and the use counts in the registry and the event log."""
        import io
        import json

        from repro.core import binpack
        from repro.obs import events, registry

        monkeypatch.setattr(binpack, "extract_chunk",
                            lambda *args: np.zeros(0, dtype=np.int64))
        g = path_graph(8)
        w = np.ones(8)

        def repairs():
            return registry().snapshot()["counters"].get("balance_repairs", 0)

        before = repairs()
        log = io.StringIO()
        events.configure(log)
        try:
            out = binpack_strict(g, Coloring.trivial(8, 2), w, oracle)
        finally:
            events.configure(None)
        assert out.is_strictly_balanced(w)
        assert repairs() - before == 1
        logged = [json.loads(line) for line in log.getvalue().splitlines()]
        assert [(e["event"], e["moves"]) for e in logged] == [("binpack.balance_repair", 4)]
