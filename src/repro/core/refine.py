"""Balance-preserving k-way boundary refinement.

A practical post-pass on top of the Theorem 4 pipeline: pairwise
Fiduccia–Mattheyses moves between classes that share boundary, constrained so
every class stays inside Definition 1's strict-balance window.  The theory
never needs this stage; it tightens the constants the experiments report,
the same role FM plays inside multilevel partitioners.  It never raises the
total cut, but it can raise the *maximum* class boundary, the quantity
Theorem 4 bounds: a move from ``i`` to ``j`` carries the vertex's edges to
third classes from ``∂i`` into ``∂j``, so ``j``'s boundary can grow while
the pair's cut shrinks.

Moves are evaluated on the *host* graph: flipping ``v`` from class ``i`` to
``j`` changes the total bichromatic cost by ``c(v→i edges) − c(v→j edges)``
(edges to third classes are unaffected), so a pass can only reduce the total
cut while the per-class weight windows are enforced exactly.

The per-pair move loop itself lives in :mod:`repro.core.kernels` (the
native bucket pass and the gain-table heap, with the historical
recompute-on-pop loop kept as the ``reference`` ablation); this module owns
the k-way orchestration, including incremental maintenance of the pair
boundary costs across rounds — after a pass commits moves, only the pairs
touched by the moved vertices' incident edges are re-aggregated instead of
re-scanning all ``m`` edges every round.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from .coloring import Coloring
from .kernels import run_pair_kernel

__all__ = ["kway_refine", "pairwise_refine"]


def _class_pair_costs(g: Graph, labels: np.ndarray, k: int) -> dict[tuple[int, int], float]:
    """Total edge cost between each pair of distinct classes."""
    out: dict[tuple[int, int], float] = {}
    if g.m == 0:
        return out
    lu = labels[g.edges[:, 0]]
    lv = labels[g.edges[:, 1]]
    sel = (lu != lv) & (lu >= 0) & (lv >= 0)
    lo = np.minimum(lu[sel], lv[sel])
    hi = np.maximum(lu[sel], lv[sel])
    cc = g.costs[sel]
    keys = lo * k + hi
    sums = np.bincount(keys, weights=cc, minlength=k * k)
    for key in np.flatnonzero(sums > 0):
        out[(int(key) // k, int(key) % k)] = float(sums[key])
    return out


def _apply_move_deltas(
    g: Graph,
    labels: np.ndarray,
    k: int,
    pair_costs: dict[tuple[int, int], float],
    moved: list[int],
    i: int,
    j: int,
) -> None:
    """Fold one pass's committed ``i``↔``j`` moves into ``pair_costs``.

    Only edges incident to moved vertices can change pair membership, so the
    update scans those edges once: the old endpoint labels are reconstructed
    (a kept move flipped ``v`` between ``i`` and ``j``, so the previous label
    is ``i + j − labels[v]``), the old pair contributions are subtracted and
    the new ones added.  With integer-valued costs this reproduces a full
    re-aggregation exactly; emptied pairs are dropped like the full scan
    drops zero-cost pairs.
    """
    if not moved or g.m == 0:
        return
    moved_mask = np.zeros(g.n, dtype=bool)
    moved_mask[np.asarray(moved, dtype=np.int64)] = True
    # ascending edge ids, so the folds below sum in the same order as a scan
    eids = np.flatnonzero(moved_mask[g.edges[:, 0]] | moved_mask[g.edges[:, 1]])
    uu = g.edges[eids, 0]
    vv = g.edges[eids, 1]
    cc = g.costs[eids]
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


def pairwise_refine(
    g: Graph,
    labels: np.ndarray,
    weights: np.ndarray,
    i: int,
    j: int,
    lo_bound: float,
    hi_bound: float,
    max_moves: int | None = None,
    movable: np.ndarray | None = None,
    kernel: str | None = None,
) -> bool:
    """One FM pass moving vertices between classes ``i`` and ``j`` in place.

    ``lo_bound``/``hi_bound`` are the global per-class weight limits
    (Definition 1's window around the average); moves violating them are
    skipped.  ``movable`` (optional boolean mask) restricts which vertices
    may change class — the streaming repairer passes the dirty-region halo,
    and the incremental kernel's restricted path keeps that pass's work
    proportional to the halo's degree sum (plus the O(n) class-weight sums
    the window accounting inherently needs) — while the weight window is
    still accounted over the *full* classes, so restricted passes preserve
    strict balance exactly like unrestricted ones.  ``kernel``
    picks the move kernel (see :mod:`repro.core.kernels`; default is the
    incremental gain-table kernel).  Returns True when any move was kept.
    """
    _, improved = run_pair_kernel(
        g, labels, weights, i, j, lo_bound, hi_bound,
        max_moves=max_moves, movable=movable, kernel=kernel,
    )
    return improved


def kway_refine(
    g: Graph,
    coloring: Coloring,
    weights: np.ndarray,
    rounds: int = 2,
    max_pairs_per_round: int | None = None,
    incremental_pair_costs: bool = True,
    kernel: str | None = None,
) -> Coloring:
    """Refine a strictly balanced k-coloring without leaving the window.

    Each round visits class pairs in decreasing shared-boundary order and
    runs one balance-constrained FM pass per pair.  Strict balance
    (Definition 1) is preserved *exactly*: per-class weights never leave
    ``[avg − (1−1/k)‖w‖∞, avg + (1−1/k)‖w‖∞]``.

    Pair boundary costs are aggregated once up front and then maintained
    incrementally from the kernels' committed moves (only pairs touched by
    accepted moves are re-aggregated); ``incremental_pair_costs=False``
    falls back to a full ``_class_pair_costs`` scan every round (the
    pre-kernel behavior, kept for equivalence tests).  Ties in the pair
    order break on the ``(i, j)`` ids, matching the full scan's ascending
    insertion order, so both modes visit pairs identically.  ``kernel``
    names a registry kernel for every pass (default: the module default,
    see :mod:`repro.core.kernels`).
    """
    k = coloring.k
    w = np.asarray(weights, dtype=np.float64)
    if k < 2 or g.m == 0:
        return coloring.copy()
    labels = coloring.labels.copy()
    total = float(w[labels >= 0].sum())
    wmax = float(w.max()) if w.size else 0.0
    avg = total / k
    window = (1.0 - 1.0 / k) * wmax
    # never loosen an already-tighter-than-window input beyond the window
    lo_bound = avg - window
    hi_bound = avg + window
    budget = max_pairs_per_round if max_pairs_per_round is not None else 2 * k
    pair_costs = _class_pair_costs(g, labels, k)
    # one list conversion shared by every pass of every round (csr_lists is
    # deliberately not cached on the graph — see Graph.csr_lists)
    csr = g.csr_lists()
    for _ in range(max(0, rounds)):
        if not pair_costs:
            break
        pairs = sorted(pair_costs.items(), key=lambda kv: (-kv[1], kv[0]))[:budget]
        changed = False
        for (i, j), _cost in pairs:
            kept, improved = run_pair_kernel(
                g, labels, w, i, j, lo_bound, hi_bound, kernel=kernel, csr=csr
            )
            if improved:
                changed = True
            if kept and incremental_pair_costs:
                _apply_move_deltas(g, labels, k, pair_costs, kept, i, j)
        if not changed:
            break
        if not incremental_pair_costs:
            pair_costs = _class_pair_costs(g, labels, k)
    return Coloring(labels, k)
