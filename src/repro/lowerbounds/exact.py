"""Exact solvers for tiny instances (validation + lower-bound certificates).

* :func:`min_balanced_edge_cut` — minimum cost of ``δ(U)`` over all subsets
  with ``w(U) ∈ [⅓, ⅔]·‖w‖₁`` (the floor the Lemma 40 argument charges per
  copy), by vectorized enumeration of all ``2^n`` subsets (n ≤ 22).
* :func:`min_balanced_separator_cost` — minimum ``τ(S)`` over balanced
  separators (Definition 34), by enumerating separator subsets and checking
  two-sided component packing.
* :func:`exact_min_max_boundary` — ``∂^k_∞`` for fixed weights: the optimum
  maximum boundary over *all* strictly balanced k-colorings, by
  branch-and-bound (n ≤ ~14).
"""

from __future__ import annotations

import itertools

import numpy as np

from ..graphs.components import connected_components
from ..graphs.graph import Graph

__all__ = [
    "min_balanced_edge_cut",
    "min_balanced_separator_cost",
    "exact_min_max_boundary",
]


def min_balanced_edge_cut(
    g: Graph,
    weights: np.ndarray,
    lo_frac: float = 1.0 / 3.0,
    hi_frac: float = 2.0 / 3.0,
) -> float:
    """Minimum ``c(δ(U))`` over subsets with ``w(U)/‖w‖₁ ∈ [lo_frac, hi_frac]``.

    Vectorized over all ``2^n`` membership masks; ``n ≤ 22`` enforced.
    Returns ``inf`` when no subset meets the weight window.
    """
    n = g.n
    if n > 22:
        raise ValueError("exact enumeration limited to n <= 22")
    w = np.asarray(weights, dtype=np.float64)
    total = float(w.sum())
    masks = np.arange(1 << n, dtype=np.int64)
    wsum = np.zeros(1 << n, dtype=np.float64)
    for v in range(n):
        wsum += ((masks >> v) & 1) * w[v]
    ok = (wsum >= lo_frac * total - 1e-9) & (wsum <= hi_frac * total + 1e-9)
    if not np.any(ok):
        return np.inf
    cut = np.zeros(1 << n, dtype=np.float64)
    for eid in range(g.m):
        u, v = int(g.edges[eid, 0]), int(g.edges[eid, 1])
        differs = ((masks >> u) & 1) != ((masks >> v) & 1)
        cut += differs * g.costs[eid]
    return float(cut[ok].min())


def min_balanced_separator_cost(g: Graph, weights: np.ndarray, tau: np.ndarray | None = None) -> float:
    """Minimum ``τ(S)`` over balanced separators ``S`` (Definition 34).

    Enumerates candidate separators (n ≤ 16); ``S`` is balanced iff the
    components of ``G − S`` can be packed into two sides of weight
    ≤ (2/3)·‖w‖₁ each — checked by subset-sum over component weights.
    """
    n = g.n
    if n > 16:
        raise ValueError("exact separator enumeration limited to n <= 16")
    w = np.asarray(weights, dtype=np.float64)
    t = g.cost_degree() if tau is None else np.asarray(tau, dtype=np.float64)
    total = float(w.sum())
    bound = 2.0 / 3.0 * total + 1e-9
    best = np.inf
    all_v = np.arange(n, dtype=np.int64)
    for r in range(n + 1):
        if r and t[np.argsort(t)[:r]].sum() >= best:
            break  # cheapest possible r-subset already too expensive
        for sep in itertools.combinations(range(n), r):
            sep = np.asarray(sep, dtype=np.int64)
            cost = float(t[sep].sum()) if sep.size else 0.0
            if cost >= best:
                continue
            rest = np.setdiff1d(all_v, sep)
            if rest.size == 0:
                best = min(best, cost)
                continue
            sub = g.subgraph(rest)
            comp = connected_components(sub.graph)
            comp_w = np.bincount(comp, weights=w[rest])
            if comp_w.max(initial=0.0) > bound:
                continue
            if _packable_two_sides(comp_w, bound):
                best = min(best, cost)
    return best


def _packable_two_sides(comp_w: np.ndarray, bound: float) -> bool:
    """Whether component weights split into two groups each ≤ ``bound``."""
    total = float(comp_w.sum())
    if total <= bound:
        return True
    # subset-sum over achievable side-A weights (floats: use rounded keys)
    sums = {0.0}
    for cw in comp_w:
        sums |= {s + float(cw) for s in sums}
    return any(s <= bound and total - s <= bound for s in sums)


def exact_min_max_boundary(g: Graph, weights: np.ndarray, k: int) -> tuple[float, np.ndarray | None]:
    """``min_χ ‖∂χ⁻¹‖∞`` over strictly balanced k-colorings (fixed weights).

    Branch-and-bound over vertex-by-vertex color assignment with color-order
    symmetry breaking and weight-feasibility pruning; n ≤ 14 enforced.
    Returns ``(inf, None)`` when no strictly balanced coloring exists (it
    always does — greedy scheduling is a witness — so inf flags a bug).
    """
    n = g.n
    if n > 14:
        raise ValueError("exact search limited to n <= 14")
    w = np.asarray(weights, dtype=np.float64)
    total = float(w.sum())
    wmax = float(w.max()) if w.size else 0.0
    window = (1.0 - 1.0 / k) * wmax + 1e-9
    avg = total / k
    labels = np.full(n, -1, dtype=np.int64)
    best_cost = np.inf
    best_labels: np.ndarray | None = None
    # precompute adjacency (edge id, neighbor) per vertex
    inc = [
        list(zip(g.incident_edges(v).tolist(), g.neighbors(v).tolist()))
        for v in range(n)
    ]
    class_w = np.zeros(k)
    class_b = np.zeros(k)
    suffix_w = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]])

    def rec(v: int, used: int) -> None:
        nonlocal best_cost, best_labels
        if class_b.max(initial=0.0) >= best_cost:
            return
        if v == n:
            if np.all(np.abs(class_w - avg) <= window):
                cost = float(class_b.max(initial=0.0))
                if cost < best_cost:
                    best_cost = cost
                    best_labels = labels.copy()
            return
        # feasibility: remaining weight must be able to fill every deficit
        deficits = np.maximum(avg - window - class_w, 0.0)
        if deficits.sum() > suffix_w[v] + 1e-9:
            return
        for color in range(min(used + 1, k)):
            if class_w[color] + w[v] > avg + window:
                continue
            delta = np.zeros(k)
            for eid, u in inc[v]:
                if u < v:
                    cu = labels[u]
                    if cu != color:
                        delta[color] += g.costs[eid]
                        delta[cu] += g.costs[eid]
            labels[v] = color
            class_w[color] += w[v]
            class_b[:] += delta
            rec(v + 1, max(used, color + 1))
            class_b[:] -= delta
            class_w[color] -= w[v]
            labels[v] = -1

    try:
        rec(0, 0)
    finally:
        # rec refers to itself through its closure; dropping the name breaks
        # that cycle, so g and the search state are freed without a full GC
        del rec
    return best_cost, best_labels
