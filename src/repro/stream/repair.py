"""Incremental repair of a decomposition under graph mutations.

The repair path is the streaming subsystem's hot loop.  Instead of re-running
the full Theorem 4 pipeline after every mutation batch, it

1. restores Definition 1's strict-balance window greedily when weight
   mutations pushed class weights outside it (:func:`restore_window`),
2. runs *localized* Fiduccia–Mattheyses refinement seeded from the dirty
   region — only class pairs that touch mutated vertices are refined, via
   the same window-preserving FM kernel (:mod:`repro.core.kernels`) the
   static pipeline's post-pass uses (:func:`local_repair`), and
3. leaves the recompute decision to a drift monitor: the session triggers a
   full solve when the repaired max boundary cost exceeds ``gamma ×`` the
   last full solve's.
"""

from __future__ import annotations

import numpy as np

from ..core.kernels import run_pair_kernel
from ..graphs.components import bfs_levels
from ..graphs.graph import Graph

__all__ = [
    "restore_window",
    "local_repair",
    "seed_new_vertices",
    "strict_window",
]

#: local_repair's budget: FM rounds over the dirty class pairs, how many of
#: those pairs (costliest shared boundary first), and the BFS radius of the
#: movable halo around the dirty region
_REPAIR_ROUNDS = 2
_REPAIR_PAIRS = 6
_HALO_HOPS = 3


def strict_window(weights: np.ndarray, k: int) -> tuple[float, float]:
    """Definition 1's per-class weight window ``avg ± (1 − 1/k)‖w‖∞``."""
    w = np.asarray(weights, dtype=np.float64)
    total = float(w.sum())
    wmax = float(w.max()) if w.size else 0.0
    avg = total / k
    slack = (1.0 - 1.0 / k) * wmax
    return avg - slack, avg + slack


def _boundary_movers(g: Graph, labels: np.ndarray, cls: int) -> list[tuple[float, int, int]]:
    """Candidate moves out of ``cls``: (boundary-cost delta, vertex, dest).

    Only boundary vertices of ``cls`` qualify; the destination is the
    neighboring class holding the largest share of the vertex's incident
    cost (cheapest to move toward).
    """
    out = []
    members = np.flatnonzero(labels == cls)
    for v in members.tolist():
        s, e = g.indptr[v], g.indptr[v + 1]
        nbr_labels = labels[g.nbr[s:e]]
        ecost = g.arc_costs[s:e]
        foreign = (nbr_labels != cls) & (nbr_labels >= 0)
        if not np.any(foreign):
            continue
        # cost toward each neighboring class
        per: dict[int, float] = {}
        for lab, c in zip(nbr_labels[foreign].tolist(), ecost[foreign].tolist()):
            per[lab] = per.get(lab, 0.0) + c
        dst, toward = max(per.items(), key=lambda kv: (kv[1], -kv[0]))
        own = float(ecost[nbr_labels == cls].sum())
        out.append((own - toward, v, dst))
    out.sort()
    return out


def seed_new_vertices(
    g: Graph,
    labels: np.ndarray,
    weights: np.ndarray,
    k: int,
    fresh,
) -> int:
    """Place uncolored vertices by boundary gain; mutates ``labels``.

    Each vertex of ``fresh`` with label ``-1`` is assigned the class already
    holding the largest share of its incident cost (the class minimizing the
    boundary it creates — the same toward-cost rule by which
    :func:`restore_window` picks a mover's destination), restricted to
    classes the strict window can still accommodate; with no positive pull (no colored
    neighbor, or only zero-cost edges) it falls back to the lightest
    feasible class.  Vertices are seeded in ascending id order and the
    running class weights are updated per placement, so replicas agree
    byte-for-byte.  Returns the number of vertices placed; the caller runs
    :func:`restore_window` + :func:`local_repair` afterwards, which treat
    the seeds as ordinary movable vertices.
    """
    fresh = np.asarray(fresh, dtype=np.int64)
    fresh = fresh[(fresh >= 0) & (fresh < g.n)]
    fresh = np.unique(fresh[labels[fresh] < 0])
    if fresh.size == 0 or k < 1:
        return 0
    w = np.asarray(weights, dtype=np.float64)
    _, hi = strict_window(w, k)
    tol = 1e-9
    cw = np.bincount(labels[labels >= 0], weights=w[labels >= 0], minlength=k)
    for v in fresh.tolist():
        s, e = g.indptr[v], g.indptr[v + 1]
        lab = labels[g.nbr[s:e]]
        sel = lab >= 0
        toward = np.zeros(k, dtype=np.float64)
        if np.any(sel):
            np.add.at(toward, lab[sel], g.arc_costs[s:e][sel])
        feasible = cw + w[v] <= hi + tol
        pool = feasible if np.any(feasible) else np.ones(k, dtype=bool)
        masked = np.where(pool, toward, -np.inf)
        if masked.max() > 0:
            dst = int(np.argmax(masked))  # ties to the smaller class id
        else:
            ids = np.flatnonzero(pool)
            dst = int(ids[np.argmin(cw[ids])])
        labels[v] = dst
        cw[dst] += w[v]
    return int(fresh.size)


def restore_window(
    g: Graph,
    labels: np.ndarray,
    weights: np.ndarray,
    k: int,
) -> bool:
    """Greedily move boundary vertices until every class is back inside the
    strict window.  Mutates ``labels`` in place; returns success.

    Weight mutations move class totals by at most the mutated mass, so a
    handful of cheapest-boundary-delta moves from overweight (resp. into
    underweight) classes restores Definition 1 in the common case.  Failure
    (window still violated after ``4k + 16`` moves) means the perturbation
    was too large for local repair — the caller escalates to a full solve.

    Each move out of an overweight class rescans that class's members for
    candidates (:func:`_boundary_movers`), and the class weights are
    recounted per move: both read the labels as they stand, so no state
    outlives a move and a grown index space needs nothing resized.
    """
    w = np.asarray(weights, dtype=np.float64)
    lo, hi = strict_window(w, k)
    tol = 1e-9
    for _ in range(4 * k + 16):
        cw = np.bincount(labels[labels >= 0], weights=w[labels >= 0], minlength=k)
        over = np.flatnonzero(cw > hi + tol)
        under = np.flatnonzero(cw < lo - tol)
        if over.size == 0 and under.size == 0:
            return True
        moved = False
        if over.size:
            cls = int(over[np.argmax(cw[over])])
            for _, v, dst in _boundary_movers(g, labels, cls):
                # prefer shedding into the lightest feasible destination
                if cw[dst] + w[v] <= hi + tol and cw[cls] - w[v] >= lo - tol:
                    labels[v] = dst
                    moved = True
                    break
        elif under.size:
            cls = int(under[np.argmin(cw[under])])
            # pull the cheapest boundary vertex of a neighboring class in
            u = _pull_candidate(g, labels, w, cw, cls, lo, hi, tol)
            if u is not None:
                labels[u] = cls
                moved = True
        if not moved:
            return False
    cw = np.bincount(labels[labels >= 0], weights=w[labels >= 0], minlength=k)
    return bool(np.all(cw <= hi + tol) and np.all(cw >= lo - tol))


def _pull_candidate(
    g: Graph,
    labels: np.ndarray,
    w: np.ndarray,
    cw: np.ndarray,
    cls: int,
    lo: float,
    hi: float,
    tol: float,
) -> int | None:
    """Best vertex to pull *into* underweight ``cls``.

    Vectorized over the half-edges leaving ``cls`` members, selecting the
    feasible neighbor with the costliest connecting edge (ties to the
    smallest vertex id, matching the legacy ``min((-c, u))`` scan).  Pure
    comparisons and one exact negation, so the pick is byte-identical to
    the legacy loop for arbitrary float costs.
    """
    if g.m == 0:
        return None
    arc_sel = np.repeat(labels == cls, np.diff(g.indptr))
    if not np.any(arc_sel):
        return None
    u = g.nbr[arc_sel]
    c = g.arc_costs[arc_sel]
    lu = labels[u]
    ok = (lu >= 0) & (lu != cls)
    u, c, lu = u[ok], c[ok], lu[ok]
    if u.size == 0:
        return None
    feas = (cw[lu] - w[u] >= lo - tol) & (cw[cls] + w[u] <= hi + tol)
    u, c = u[feas], c[feas]
    if u.size == 0:
        return None
    return int(u[np.lexsort((u, -c))[0]])


def local_repair(
    g: Graph,
    labels: np.ndarray,
    weights: np.ndarray,
    k: int,
    dirty: np.ndarray,
) -> int:
    """Dirty-region-seeded FM refinement; mutates ``labels``, returns the
    number of refined class pairs.

    The seed set is the *classes* of the dirty region (mutated vertices and
    their neighbors): every boundary pair involving a dirty class is a
    candidate, ordered by shared boundary cost, capped at the costliest
    :data:`_REPAIR_PAIRS`.
    Class-level seeding matters: a cost mutation strictly interior to one
    class still changes where that class's boundary *should* sit, which a
    vertex-level cross-edge seed would miss entirely.  Moves are restricted
    to the BFS *halo* of the dirty region (:data:`_HALO_HOPS` hops), so repair
    work scales with the perturbation, not with ``n`` — the strict-balance
    window is still accounted over full classes, so restricted passes never
    break Definition 1.  At most :data:`_REPAIR_ROUNDS` rounds run over the
    pairs, stopping early once a round changes nothing.
    """
    dirty = np.asarray(dirty, dtype=np.int64)
    if dirty.size == 0 or g.m == 0 or k < 2:
        return 0
    w = np.asarray(weights, dtype=np.float64)
    lo, hi = strict_window(w, k)
    dirty = dirty[(dirty >= 0) & (dirty < g.n)]
    # dirty classes: labels of mutated vertices and of their neighbors
    dirty_classes = np.zeros(k, dtype=bool)
    for v in dirty.tolist():
        lv = int(labels[v])
        if lv >= 0:
            dirty_classes[lv] = True
        nbr_labels = labels[g.nbr[g.indptr[v] : g.indptr[v + 1]]]
        dirty_classes[nbr_labels[nbr_labels >= 0]] = True
    # boundary cost between class pairs with a dirty member, vectorized
    lu = labels[g.edges[:, 0]]
    lv = labels[g.edges[:, 1]]
    sel = (lu != lv) & (lu >= 0) & (lv >= 0)
    sel &= dirty_classes[np.where(lu >= 0, lu, 0)] | dirty_classes[np.where(lv >= 0, lv, 0)]
    if not np.any(sel):
        return 0
    lo_lab = np.minimum(lu[sel], lv[sel])
    hi_lab = np.maximum(lu[sel], lv[sel])
    sums = np.bincount(lo_lab * k + hi_lab, weights=g.costs[sel], minlength=k * k)
    order = np.argsort(-sums, kind="stable")
    pairs = [
        (int(key) // k, int(key) % k)
        for key in order[:_REPAIR_PAIRS]
        if sums[key] > 0
    ]
    levels = bfs_levels(g, dirty)
    movable = (levels >= 0) & (levels <= _HALO_HOPS)
    # dense halos route the kernel to its list-based path: convert the CSR
    # once for all rounds x pairs.  Sparse halos (members <= n/8 for every
    # pair, since members ⊆ movable) always take the restricted path, which
    # never reads the lists — skip the O(n + m) boxing entirely.
    csr = g.csr_lists() if int(np.count_nonzero(movable)) * 8 > g.n else None
    refined = 0
    for _ in range(_REPAIR_ROUNDS):
        changed = False
        for i, j in pairs:
            if run_pair_kernel(g, labels, w, i, j, lo, hi, movable=movable, csr=csr)[1]:
                changed = True
                refined += 1
        if not changed:
            break
    return refined
