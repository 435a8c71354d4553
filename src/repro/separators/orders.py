"""Vertex orderings and order-based splitting.

Any total order of the vertices induces valid splitting sets: scanning the
order, prefix sums of ``w`` move in steps of at most ``‖w‖∞``, so some prefix
lands within ``‖w‖∞/2`` of the splitting value (Definition 3's window).  The
*cut quality* of the prefix is what distinguishes orders:

* lexicographic/grid orders — the §6 base case; monotone sets on grids,
* BFS from a pseudo-peripheral vertex — layered separators,
* Fiedler (spectral) order — sweep cuts, the strongest general-purpose order.

``sweep_split`` additionally scans every prefix inside the valid window and
keeps the cheapest cut, computed incrementally in ``O(m)``.
"""

from __future__ import annotations

import numpy as np

from .._util import as_rng, cumulative_prefix_target
from ..graphs.components import bfs_order, connected_components, pseudo_peripheral_vertex
from ..graphs.graph import Graph
from ..obs import events, registry
from .solve import process_cache

__all__ = [
    "index_order",
    "lexicographic_order",
    "bfs_peripheral_order",
    "random_order",
    "fiedler_order",
    "fiedler_vector",
    "prefix_split",
    "sweep_split",
]


# ----------------------------------------------------------------------
# orders
# ----------------------------------------------------------------------
def index_order(g: Graph) -> np.ndarray:
    """Vertices by id — the baseline order."""
    return np.arange(g.n, dtype=np.int64)


def lexicographic_order(g: Graph) -> np.ndarray:
    """Vertices sorted lexicographically by coordinates (grids), else by id.

    On grid graphs every prefix of this order is a *monotone* set
    (Lemma 22), which the §6 analysis exploits.
    """
    if g.coords is None:
        return index_order(g)
    keys = tuple(g.coords[:, a] for a in range(g.coords.shape[1] - 1, -1, -1))
    return np.lexsort(keys).astype(np.int64)


def bfs_peripheral_order(g: Graph) -> np.ndarray:
    """BFS order from a pseudo-peripheral vertex (double-sweep seeded)."""
    if g.n == 0:
        return np.zeros(0, dtype=np.int64)
    return bfs_order(g, pseudo_peripheral_vertex(g))


def random_order(g: Graph, rng=None) -> np.ndarray:
    """Uniformly random order — the control for cut-quality comparisons."""
    return as_rng(rng).permutation(g.n).astype(np.int64)


#: dense eigendecomposition below this size, shift-inverted Lanczos above
DENSE_CUTOFF = 128

#: relative size of the deterministic symmetry-breaking diagonal ramp; large
#: enough to split degenerate Fiedler eigenspaces (symmetric grids have a
#: doubly-degenerate λ₂) far beyond solver tolerance, small enough that the
#: selected vector still sweeps to near-optimal cuts
RAMP_DELTA = 1e-3

#: fixed eigensolver tolerance — tight, so ARPACK converges past any
#: start-vector dependence; with the default ``ncv`` every iterative solve
#: applies the operator 21 times from any start, which is why one fixed start
#: vector loses nothing
EIGSH_TOL = 1e-10


def _canonical_sign(vec: np.ndarray) -> np.ndarray:
    """Flip ``vec`` so its first significantly non-zero entry is positive.

    The threshold is relative, so near-zero leading entries (whose sign is
    solver noise) cannot decide the orientation — this is what kept the
    sweep-cut orientation flipping between SciPy versions.
    """
    if vec.size == 0:
        return vec
    scale = float(np.max(np.abs(vec)))
    if scale == 0.0:
        return vec
    significant = np.flatnonzero(np.abs(vec) > 1e-8 * scale)
    if significant.size and vec[significant[0]] < 0:
        return -vec
    return vec


def _component_fiedler(g: Graph, tol: float) -> np.ndarray:
    """Sign-canonical Fiedler vector of one positively-connected component.

    A deterministic diagonal ramp (``RAMP_DELTA`` relative to the mean cost
    degree) is added to the Laplacian so the second eigenvector is *unique*
    — without it, symmetric instances leave an eigenspace whose basis the
    solver picks start-vector-dependently.  The Lanczos iteration always
    starts from the fixed vector ``cos(i)``, so the result is a function of
    the graph alone — what lets the :class:`~repro.separators.solve.SolveCache`
    key on :meth:`Graph.structural_hash` and nothing else.

    The iterative path factors ``S = L + ramp − σI`` once.  ``σ < 0`` makes
    it symmetric positive definite, so SuperLU runs a symmetric
    minimum-degree ordering with diagonal pivots (about half the fill of the
    default unsymmetric ordering) and ``eigsh`` applies that factor instead
    of building its own.  A solver failure falls back to BFS levels from a
    pseudo-peripheral vertex, reported as an ``oracle.fallback`` event and
    an ``oracle_fallbacks{reason=...}`` counter.  Each solve counts once as
    ``fiedler_solves{path=dense|iterative}``, telemetry on or off.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = g.n
    if n <= 2:
        return np.arange(n, dtype=np.float64)
    # S in CSC straight from the graph's CSR (the Laplacian is symmetric, so
    # rows and columns coincide), a diagonal slot at the head of each column
    indptr = g.indptr
    cols = np.arange(n)
    lap = sp.csc_array(
        (np.insert(g.arc_costs, indptr[:-1], 0.0), np.insert(g.nbr, indptr[:-1], cols),
         indptr + np.arange(n + 1)),
        shape=(n, n),
    )
    # columns in row order, so the degree sums (zero-cost entries included)
    # are bitwise the row sums of the canonical adjacency matrix
    lap.sort_indices()
    on_diag = lap.indices == np.repeat(cols, np.diff(lap.indptr))
    deg = np.add.reduceat(lap.data[~on_diag], indptr[:-1])
    scale = float(deg.mean())
    if scale <= 0.0:
        scale = 1.0
    ramp = RAMP_DELTA * scale * (np.arange(n, dtype=np.float64) / (n - 1))
    sigma = -1e-4 * scale
    dense = n < DENSE_CUTOFF
    registry().counter("fiedler_solves", path="dense" if dense else "iterative").inc()
    np.negative(lap.data, out=lap.data)
    lap.data[on_diag] = deg + ramp if dense else (deg + ramp) - sigma
    lap.eliminate_zeros()
    if dense:
        _, eigvecs = np.linalg.eigh(lap.toarray())
        return _canonical_sign(eigvecs[:, 1])
    v0 = np.cos(np.arange(n, dtype=np.float64))
    try:
        lu = spla.splu(
            lap, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        # with OPinv given, shift-invert eigsh reads only the shape and
        # dtype of its matrix argument and returns eigenvalues of S + σI
        eigvals, eigvecs = spla.eigsh(
            lap, k=2, sigma=sigma, which="LM", v0=v0, tol=tol,
            OPinv=spla.LinearOperator((n, n), matvec=lu.solve, dtype=np.float64),
        )
        order = np.argsort(eigvals)
        return _canonical_sign(eigvecs[:, order[1]])
    except Exception as exc:
        from ..graphs.components import bfs_levels

        reason = type(exc).__name__
        registry().counter("oracle_fallbacks", reason=reason).inc()
        events.emit("oracle.fallback", reason=reason, n=n)
        lev = bfs_levels(g, [pseudo_peripheral_vertex(g)])
        return lev.astype(np.float64)


def _scale01(vec: np.ndarray) -> np.ndarray:
    lo, hi = float(np.min(vec)), float(np.max(vec))
    if hi > lo:
        return (vec - lo) / (hi - lo)
    return np.zeros_like(vec)


def _positive_components(g: Graph) -> np.ndarray:
    """Component labels over *positive-cost* edges only.

    Zero-cost edges do not enter the Laplacian, so a component that is only
    connected through them has a degenerate (multiplicity > 1) kernel and
    no well-defined Fiedler vector; solving per positive component subsumes
    both genuinely disconnected graphs and zero-cost-edge degeneracy.
    """
    if g.m and float(np.min(g.costs)) <= 0.0:
        keep = g.costs > 0.0
        gpos = Graph(g.n, g.edges[keep], g.costs[keep], _validate=False)
        return connected_components(gpos)
    return connected_components(g)


def fiedler_vector(g: Graph, tol: float = EIGSH_TOL) -> np.ndarray:
    """Deterministic Fiedler embedding of the cost-weighted Laplacian.

    Solved per component of the positive-cost edge set (fixed start vector,
    symmetry-breaking ramp, canonical sign — see :func:`_component_fiedler`);
    components are composed into one full-length vector
    ``2·cid + scaled component vector``, so the stable argsort keeps
    components contiguous and each internally in Fiedler order.

    Solves are memoized in the :func:`~repro.separators.solve.process_cache`
    keyed by :meth:`Graph.structural_hash` alone.  The vector depends on
    nothing else, so a hit is bitwise equal to the recomputation it replaces
    and toggling the cache cannot change any downstream record.
    """
    n = g.n
    if n <= 2:
        return np.arange(n, dtype=np.float64)
    cache = process_cache()
    if cache is not None:
        cached = cache.get(g.structural_hash())
        if cached is not None:
            return cached
    comp = _positive_components(g)
    ncomp = int(comp.max()) + 1
    if ncomp == 1:
        vec = _component_fiedler(g, tol)
    else:
        vec = np.empty(n, dtype=np.float64)
        for cid in range(ncomp):
            members = np.flatnonzero(comp == cid).astype(np.int64)
            if members.size <= 2:
                inner = np.arange(members.size, dtype=np.float64)
            else:
                inner = _component_fiedler(g.subgraph(members).graph, tol)
            vec[members] = 2.0 * cid + _scale01(inner)
    vec.setflags(write=False)
    if cache is not None:
        cache.put(g.structural_hash(), vec)
    return vec


def fiedler_order(g: Graph) -> np.ndarray:
    """Vertices sorted by Fiedler value, component by component.

    The component-composed :func:`fiedler_vector` keeps disconnected (and
    zero-cost-bridged) pieces contiguous in the order, so prefixes stay
    cut-free across component boundaries.
    """
    if g.n == 0:
        return np.zeros(0, dtype=np.int64)
    return np.argsort(fiedler_vector(g), kind="stable").astype(np.int64)


# ----------------------------------------------------------------------
# order -> splitting set
# ----------------------------------------------------------------------
def prefix_split(order: np.ndarray, weights: np.ndarray, target: float) -> np.ndarray:
    """The prefix of ``order`` whose weight is nearest ``target``.

    Always a valid Definition 3 splitting set (window ``‖w‖∞/2``).
    """
    order = np.asarray(order, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    count = cumulative_prefix_target(w[order], target)
    return order[:count]


def _prefix_cuts(g: Graph, order: np.ndarray) -> np.ndarray:
    """Cut cost of every prefix of the permutation ``order`` (``n + 1`` values).

    The incremental sweep of :func:`sweep_split`: an edge is internal once
    its later endpoint is placed, and entry ``i + 1`` is the running sum of
    the per-vertex changes, added left to right.
    """
    n = order.size
    pos = np.empty(g.n, dtype=np.int64)
    pos[order] = np.arange(n)
    earlier_cost = np.zeros(n, dtype=np.float64)
    late = np.maximum(pos[g.edges[:, 0]], pos[g.edges[:, 1]])
    np.add.at(earlier_cost, late, g.costs)
    cut_after = np.empty(n + 1, dtype=np.float64)
    cut_after[0] = 0.0
    np.cumsum(g.cost_degree()[order] - 2.0 * earlier_cost, out=cut_after[1:])
    return cut_after


def sweep_split(g: Graph, order: np.ndarray, weights: np.ndarray, target: float) -> np.ndarray:
    """Cheapest-cut prefix among *all* prefixes inside the valid window.

    Incremental sweep: adding vertex ``v`` changes the cut cost by
    ``c(δ(v)) − 2·c(edges from v into the current prefix)``; total ``O(m)``.
    Falls back to the nearest prefix (always valid) when the window is
    empty of alternatives.
    """
    order = np.asarray(order, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    n = order.size
    if n == 0:
        return order
    total = float(w.sum())
    t = min(max(float(target), 0.0), total)
    wmax = float(w.max()) if w.size else 0.0
    cum = np.cumsum(w[order])
    ok = np.abs(cum - t) <= wmax / 2.0 + 1e-12 * max(1.0, wmax)
    valid_counts = np.flatnonzero(ok) + 1
    if abs(0.0 - t) <= wmax / 2.0 + 1e-12 * max(1.0, wmax):
        valid_counts = np.concatenate([[0], valid_counts])
    if valid_counts.size == 0:
        return prefix_split(order, weights, target)
    cut_after = _prefix_cuts(g, order)
    best = valid_counts[int(np.argmin(cut_after[valid_counts]))]
    return order[:best]
