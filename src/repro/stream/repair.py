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
   full solve when the repaired max boundary cost exceeds
   ``gamma × max(cheap lower bound, last full solve)``.

:func:`cheap_lower_bound` is the quality floor of step 3 — a combinatorial,
O(n + m) bound in the spirit of Träff & Wimmer's cheap lower bounds for
balanced partitioning (arXiv 1410.0462): it certifies a minimum max-boundary
cost any strictly balanced k-partition of the *current* graph must pay, so
"repair stayed near recompute" can be checked without ever recomputing.
"""

from __future__ import annotations

import numpy as np

from ..core.kernels import run_pair_kernel
from ..graphs.components import bfs_levels, is_connected, is_connected_within
from ..graphs.graph import Graph

__all__ = [
    "BoundaryGainTable",
    "cheap_lower_bound",
    "restore_window",
    "local_repair",
    "seed_new_vertices",
    "strict_window",
]

# restore_window's incremental mover table allocates two (n, k) matrices;
# above this element count the rebuild-per-iteration fallback is cheaper
# than the allocation (and the memory is not worth it).
_MOVER_TABLE_CAP = 1 << 22


def strict_window(weights: np.ndarray, k: int) -> tuple[float, float]:
    """Definition 1's per-class weight window ``avg ± (1 − 1/k)‖w‖∞``."""
    w = np.asarray(weights, dtype=np.float64)
    total = float(w.sum())
    wmax = float(w.max()) if w.size else 0.0
    avg = total / k
    slack = (1.0 - 1.0 / k) * wmax
    return avg - slack, avg + slack


def cheap_lower_bound(g: Graph, k: int, weights: np.ndarray, alive=None) -> float:
    """Combinatorial floor on the max boundary cost of any strictly
    balanced k-partition of ``g``.

    Two certificates, both O(n + m); the max of the two is returned:

    * **Quotient connectivity** — contracting the classes of any partition
      of a connected graph leaves a connected quotient on ``k`` vertices,
      so at least ``k − 1`` inter-class edge bundles exist, each costing at
      least ``c_min``; the total boundary is ``2·c(cut) ≥ 2(k−1)c_min`` and
      the max class is at least the average: ``2(k−1)c_min/k``.
    * **Crowded neighborhoods** — if ``w(v) + w(N(v))`` exceeds the strict
      window's upper bound, no class can contain ``v``'s closed
      neighborhood, so the class of ``v`` cuts at least ``v``'s cheapest
      incident edge.  The best such vertex certifies a per-class floor.

    ``alive`` (optional boolean mask) restricts the quotient-connectivity
    certificate to the live vertex set — with soft-deleted slots the whole
    graph is never connected, but the partition only covers live vertices,
    so live connectivity is the right premise.  The crowded-neighborhood
    certificate needs no gate: dead slots have zero weight and no incident
    edges, so they can never be crowded.
    """
    if k < 2 or g.m == 0:
        return 0.0
    w = np.asarray(weights, dtype=np.float64)
    _, hi = strict_window(w, k)
    bound = 0.0
    c_min = float(g.costs.min())
    connected = is_connected(g) if alive is None else is_connected_within(g, alive)
    if c_min > 0 and connected:
        bound = 2.0 * (k - 1) * c_min / k
    # closed-neighborhood weight per vertex, vectorized over half-edges
    closed = w.copy()
    np.add.at(closed, g.edges[:, 0], w[g.edges[:, 1]])
    np.add.at(closed, g.edges[:, 1], w[g.edges[:, 0]])
    crowded = closed > hi + 1e-12
    if np.any(crowded):
        min_inc = np.full(g.n, np.inf)
        np.minimum.at(min_inc, g.edges[:, 0], g.costs)
        np.minimum.at(min_inc, g.edges[:, 1], g.costs)
        vals = min_inc[crowded]
        vals = vals[np.isfinite(vals)]
        if vals.size:
            bound = max(bound, float(vals.max()))
    return bound


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


class BoundaryGainTable:
    """Incremental per-(vertex, class) boundary-cost table for the window
    restorer.

    :func:`restore_window` historically rebuilt its candidate-move list from
    scratch on *every* iteration of its move loop (an O(members × degree)
    Python scan per move).  This table applies the FM kernels' gain-table
    discipline to that loop instead: ``toward[v, c]`` holds the total cost of
    ``v``'s edges into class ``c`` and ``count[v, c]`` the number of such
    edges (counts distinguish "no edges" from "only zero-cost edges", which
    the cost matrix alone cannot).  Both are built once with a vectorized
    scatter over the half-edges and patched in O(deg v) after each move.

    :meth:`movers` reproduces :func:`_boundary_movers` *exactly* on
    integer-valued costs — same destinations (max toward-cost, ties to the
    smaller class id), same deltas, same ``(delta, vertex)`` ordering; the
    equivalence is asserted against churn states in the e15 benchmark.  With
    non-integral costs the scatter's accumulation order could differ from
    the legacy per-vertex sums in the last ulp, so callers gate on
    ``Graph.costs_integral()`` and fall back to the legacy scan.
    """

    __slots__ = ("g", "k", "toward", "count")

    def __init__(self, g: Graph, labels: np.ndarray, k: int):
        self.g = g
        self.k = k
        toward = np.zeros((g.n, k), dtype=np.float64)
        count = np.zeros((g.n, k), dtype=np.int64)
        if g.m:
            src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
            lab = labels[g.nbr]
            sel = lab >= 0
            np.add.at(toward, (src[sel], lab[sel]), g.arc_costs[sel])
            np.add.at(count, (src[sel], lab[sel]), 1)
        self.toward = toward
        self.count = count

    def apply_move(self, v: int, src_cls: int, dst_cls: int) -> None:
        """Fold ``v``'s move ``src_cls → dst_cls`` into its neighbors' rows."""
        g = self.g
        s, e = g.indptr[v], g.indptr[v + 1]
        u = g.nbr[s:e]
        c = g.arc_costs[s:e]
        np.add.at(self.toward, (u, src_cls), -c)
        np.add.at(self.count, (u, src_cls), -1)
        np.add.at(self.toward, (u, dst_cls), c)
        np.add.at(self.count, (u, dst_cls), 1)

    def movers(self, labels: np.ndarray, cls: int) -> list[tuple[float, int, int]]:
        """Candidate moves out of ``cls``; matches :func:`_boundary_movers`."""
        members = np.flatnonzero(labels == cls)
        if members.size == 0:
            return []
        cand = self.count[members] > 0
        cand[:, cls] = False
        has = cand.any(axis=1)
        if not np.any(has):
            return []
        members = members[has]
        cand = cand[has]
        tw = self.toward[members]
        masked = np.where(cand, tw, -np.inf)
        # argmax returns the first maximum → ties go to the smaller class id,
        # exactly like the legacy max(..., key=(cost, -label))
        dst = np.argmax(masked, axis=1)
        delta = tw[:, cls] - masked[np.arange(members.size), dst]
        order = np.argsort(delta, kind="stable")  # members ascending → (delta, v)
        return [
            (float(delta[t]), int(members[t]), int(dst[t]))
            for t in order.tolist()
        ]


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
    boundary it creates — the same toward-cost rule the
    :class:`BoundaryGainTable` movers use), restricted to classes the strict
    window can still accommodate; with no positive pull (no colored
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
    max_moves: int | None = None,
) -> bool:
    """Greedily move boundary vertices until every class is back inside the
    strict window.  Mutates ``labels`` in place; returns success.

    Weight mutations move class totals by at most the mutated mass, so a
    handful of cheapest-boundary-delta moves from overweight (resp. into
    underweight) classes restores Definition 1 in the common case.  Failure
    (window still violated after the move budget) means the perturbation
    was too large for local repair — the caller escalates to a full solve.

    On integer-valued costs the candidate lists come from an incrementally
    maintained :class:`BoundaryGainTable` (built once, patched per move)
    instead of the legacy rebuild-per-iteration scan; the class-weight
    bincount stays per-iteration, as it is the float-exactness anchor the
    feasibility checks hang off.
    """
    w = np.asarray(weights, dtype=np.float64)
    lo, hi = strict_window(w, k)
    budget = max_moves if max_moves is not None else 4 * k + 16
    tol = 1e-9
    table: BoundaryGainTable | None = None
    use_table = g.m > 0 and g.n * k <= _MOVER_TABLE_CAP and g.costs_integral()
    for _ in range(budget):
        cw = np.bincount(labels[labels >= 0], weights=w[labels >= 0], minlength=k)
        over = np.flatnonzero(cw > hi + tol)
        under = np.flatnonzero(cw < lo - tol)
        if over.size == 0 and under.size == 0:
            return True
        moved = False
        if over.size:
            cls = int(over[np.argmax(cw[over])])
            if use_table:
                if table is None:
                    table = BoundaryGainTable(g, labels, k)
                movers = table.movers(labels, cls)
            else:
                movers = _boundary_movers(g, labels, cls)
            for _, v, dst in movers:
                # prefer shedding into the lightest feasible destination
                if cw[dst] + w[v] <= hi + tol and cw[cls] - w[v] >= lo - tol:
                    labels[v] = dst
                    if table is not None:
                        table.apply_move(v, cls, dst)
                    moved = True
                    break
        elif under.size:
            cls = int(under[np.argmin(cw[under])])
            # pull the cheapest boundary vertex of a neighboring class in
            pick = _pull_candidate(g, labels, w, cw, cls, lo, hi, tol)
            if pick is not None:
                u, src = pick
                labels[u] = cls
                if table is not None:
                    table.apply_move(u, src, cls)
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
) -> tuple[int, int] | None:
    """Best vertex to pull *into* underweight ``cls``: ``(vertex, old class)``.

    Vectorized over the half-edges leaving ``cls`` members, selecting the
    feasible neighbor with the costliest connecting edge (ties to the
    smallest vertex id, matching the legacy ``min((-c, u))`` scan).  Pure
    comparisons and one exact negation — byte-identical to the legacy loop
    for arbitrary float costs, so this path needs no integrality gate.
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
    u, c, lu = u[feas], c[feas], lu[feas]
    if u.size == 0:
        return None
    t = np.lexsort((u, -c))[0]
    return int(u[t]), int(lu[t])


def local_repair(
    g: Graph,
    labels: np.ndarray,
    weights: np.ndarray,
    k: int,
    dirty: np.ndarray,
    rounds: int = 2,
    max_pairs: int = 6,
    halo_hops: int = 3,
) -> int:
    """Dirty-region-seeded FM refinement; mutates ``labels``, returns the
    number of refined class pairs.

    The seed set is the *classes* of the dirty region (mutated vertices and
    their neighbors): every boundary pair involving a dirty class is a
    candidate, ordered by shared boundary cost, capped at ``max_pairs``.
    Class-level seeding matters: a cost mutation strictly interior to one
    class still changes where that class's boundary *should* sit, which a
    vertex-level cross-edge seed would miss entirely.  Moves are restricted
    to the BFS *halo* of the dirty region (``halo_hops`` hops), so repair
    work scales with the perturbation, not with ``n`` — the strict-balance
    window is still accounted over full classes, so restricted passes never
    break Definition 1.
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
        for key in order[: max_pairs]
        if sums[key] > 0
    ]
    if dirty.size:
        levels = bfs_levels(g, dirty)
        movable = (levels >= 0) & (levels <= halo_hops)
    else:  # pragma: no cover - guarded above
        movable = np.ones(g.n, dtype=bool)
    # dense halos route the kernel to its list-based path: convert the CSR
    # once for all rounds x pairs.  Sparse halos (members <= n/8 for every
    # pair, since members ⊆ movable) always take the restricted path, which
    # never reads the lists — skip the O(n + m) boxing entirely.
    csr = g.csr_lists() if int(np.count_nonzero(movable)) * 8 > g.n else None
    refined = 0
    for _ in range(max(1, rounds)):
        changed = False
        for i, j in pairs:
            if run_pair_kernel(g, labels, w, i, j, lo, hi, movable=movable, csr=csr)[1]:
                changed = True
                refined += 1
        if not changed:
            break
    return refined
