"""§6: splitting sets for d-dimensional grid graphs with arbitrary edge costs.

Procedure ``GridSplit`` (Theorem 19): for a grid graph ``G`` with positive
edge costs ``c`` and any splitting value ``w*``, compute a *monotone*
``w*``-splitting set of boundary cost

    ``O(d · log^(1/d)(φ + 1) · ‖c‖_p)``,   ``p = d/(d−1)``,

where ``φ = max c / min c`` is the cost fluctuation, in time ``O(m log φ)``.

The algorithm coarsens the grid into cubes of side ``ℓ = ⌈(‖c‖₁/d)^(1/d)⌉``
at the cheapest offset (Lemma 20), takes a lexicographic prefix of cubes, and
recurses into the straddling cube with *reduced* costs ``c′ = (c−1)/2``
(edges of cost ≤ 1 are discarded), which caps the recursion depth at
``O(log ‖c‖∞)``.  Lexicographic prefixes keep every level's set monotone
(Lemmas 21–24), bounding the discarded-edge boundary by ``d·ℓ^(d−1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import cumulative_prefix_target
from ..graphs.quotient import cheapest_alpha, coarse_cells
from ..graphs.graph import Graph

__all__ = ["grid_split", "GridOracle", "GridSplitTrace", "is_monotone", "theorem19_bound"]


@dataclass
class GridSplitTrace:
    """Per-level diagnostics of a ``GridSplit`` run (for tests/experiments)."""

    levels: int = 0
    ells: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    cells: list = field(default_factory=list)


def grid_split(
    g: Graph,
    weights: np.ndarray,
    target: float,
    trace: GridSplitTrace | None = None,
) -> np.ndarray:
    """Monotone ``target``-splitting set of the grid graph ``g``.

    ``g`` must carry integer coordinates with all edges at L1-distance 1
    (§6's grid-graph definition).  Costs are scaled internally so the minimum
    edge cost is 1, matching the analysis (``φ = ‖c‖∞`` after scaling).
    """
    if g.coords is None:
        raise ValueError("grid_split requires a graph with coordinates")
    w = np.asarray(weights, dtype=np.float64)
    if w.size != g.n:
        raise ValueError("weights must have one entry per vertex")
    total = float(w.sum())
    t = min(max(float(target), 0.0), total)
    if g.n == 0:
        return np.zeros(0, dtype=np.int64)
    costs = g.costs.astype(np.float64)
    if g.m and float(costs.min()) > 0:
        costs = costs / float(costs.min())
    local = _grid_split_rec(
        g.coords.astype(np.int64),
        g.edges,
        costs,
        w,
        t,
        trace,
    )
    return np.sort(local)


def _grid_split_rec(
    coords: np.ndarray,
    edges: np.ndarray,
    costs: np.ndarray,
    weights: np.ndarray,
    target: float,
    trace: GridSplitTrace | None,
) -> np.ndarray:
    """Recursive core; all arrays are local to the current sub-instance."""
    n, d = coords.shape
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if trace is not None:
        trace.levels += 1
    total_cost = float(costs.sum())
    ell = max(int(np.ceil((total_cost / d) ** (1.0 / d))), 1) if total_cost > 0 else 1

    if ell == 1:
        # Trivial case: lexicographic vertex prefix nearest the target —
        # a monotone set by Lemma 22, within ‖w‖∞/2 of the target.
        order = np.lexsort(tuple(coords[:, a] for a in range(d - 1, -1, -1)))
        if trace is not None:
            trace.ells.append(1)
            trace.alphas.append(1)
            trace.cells.append(n)
        count = cumulative_prefix_target(weights[order], target)
        return order[:count].astype(np.int64)

    alpha = cheapest_alpha(coords, edges, costs, ell)
    coarse = coarse_cells(coords, ell, alpha)
    if trace is not None:
        trace.ells.append(ell)
        trace.alphas.append(alpha)
        trace.cells.append(coarse.num_cells)
    cell_w = coarse.cell_weights(weights)
    cum = np.cumsum(cell_w)
    # S = cells[0..i-1] with w(∪S) ≤ w* < w(∪S) + w(Q_i)
    i = int(np.searchsorted(cum, target, side="right"))
    if i >= coarse.num_cells:
        return np.arange(n, dtype=np.int64)
    below = float(cum[i - 1]) if i > 0 else 0.0
    in_prefix = coarse.cell_of_vertex < i
    in_q = coarse.cell_of_vertex == i
    q_ids = np.flatnonzero(in_q).astype(np.int64)

    # Recurse into the straddling cube Q_i with reduced costs c' = (c-1)/2,
    # discarding edges of cost ≤ 1 (they are paid for by the monotonicity
    # bound |δ(U')| ≤ d·ℓ^(d-1) of Lemma 21).
    if edges.shape[0]:
        both_in_q = in_q[edges[:, 0]] & in_q[edges[:, 1]]
        heavy = both_in_q & (costs > 1.0)
        sub_edges_global = edges[heavy]
        local_id = np.full(n, -1, dtype=np.int64)
        local_id[q_ids] = np.arange(q_ids.size)
        sub_edges = local_id[sub_edges_global]
        sub_costs = (costs[heavy] - 1.0) / 2.0
    else:
        sub_edges = np.zeros((0, 2), dtype=np.int64)
        sub_costs = np.zeros(0, dtype=np.float64)

    u_local = _grid_split_rec(
        coords[q_ids],
        sub_edges,
        sub_costs,
        weights[q_ids],
        target - below,
        trace,
    )
    return np.concatenate([np.flatnonzero(in_prefix).astype(np.int64), q_ids[u_local]])


class GridOracle:
    """Splitting oracle backed by ``GridSplit`` (grids only)."""

    name = "grid"

    def split(self, g: Graph, weights: np.ndarray, target: float) -> np.ndarray:
        return grid_split(g, weights, target)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "GridOracle()"


def is_monotone(coords: np.ndarray, members: np.ndarray, universe: np.ndarray | None = None) -> bool:
    """§6 monotone-set check: ``x ∈ V, y ∈ U, x ≤ y (componentwise) ⇒ x ∈ U``.

    Quadratic reference implementation used by tests (Lemma 24 validation).
    ``universe`` restricts ``V`` to a vertex subset (default: all rows).
    """
    coords = np.asarray(coords, dtype=np.int64)
    n = coords.shape[0]
    uni = np.arange(n) if universe is None else np.asarray(universe, dtype=np.int64)
    member_mask = np.zeros(n, dtype=bool)
    member_mask[np.asarray(members, dtype=np.int64)] = True
    member_ids = np.flatnonzero(member_mask)
    if member_ids.size == 0:
        return True
    for x in uni:
        if member_mask[x]:
            continue
        dominated = np.all(coords[x] <= coords[member_ids], axis=1)
        if np.any(dominated):
            return False
    return True


def theorem19_bound(g: Graph, d: int | None = None) -> float:
    """RHS of Theorem 19: ``d · log^(1/d)(φ + 1) · ‖c‖_p``, ``p = d/(d−1)``.

    The ``O(·)`` constant is taken as 1; experiments report measured/bound
    ratios, so only the *shape* matters.
    """
    if g.coords is None and d is None:
        raise ValueError("need dimension")
    dim = int(d if d is not None else g.coords.shape[1])
    if g.m == 0:
        return 0.0
    cmin = float(g.costs.min())
    phi = float(g.costs.max()) / cmin if cmin > 0 else np.inf
    p = dim / (dim - 1.0) if dim > 1 else np.inf
    from .._util import pnorm

    norm = pnorm(g.costs, p) if dim > 1 else float(g.costs.max())
    return dim * (np.log2(phi + 1.0) ** (1.0 / dim)) * norm
