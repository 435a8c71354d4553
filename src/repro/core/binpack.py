"""Appendix A.2: the two bin-packing procedures.

* ``binpack_merge`` (``BinPack1``, Lemma 15) — the conquer phase: adjust a
  coloring ``χ₀`` of ``W₀`` so that its direct sum with an almost strictly
  balanced ``χ̂₁`` of ``W₁`` is almost strictly balanced.
* ``binpack_strict`` (``BinPack2``, Proposition 12) — turn an almost
  strictly balanced coloring into a **strictly** balanced one
  (Definition 1's ``(1 − 1/k)·‖w‖∞`` window), moving only chunks of weight
  ``Θ(‖w‖∞)`` so each class changes O(1) times and the boundary cost grows
  by ``O(‖∂χ⁻¹‖∞ + ‖πχ⁻¹‖^{1/p}∞ + Δ_c)``.

Both rely on the Claim 4 chunk extractor: any set of weight ≥ ``lo`` yields a
sub-chunk of weight in ``[lo, hi]`` (``hi ≥ 2·lo``) — a single heavy vertex
if one exists, else one oracle split.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..graphs.graph import Graph
from ..obs import events, registry
from ..separators.solve import oracle_split
from .coloring import Coloring

__all__ = ["extract_chunk", "binpack_merge", "binpack_strict"]


def extract_chunk(
    g: Graph,
    members: np.ndarray,
    weights: np.ndarray,
    lo: float,
    hi: float,
    oracle,
) -> np.ndarray:
    """Claim 4 (A.2): a chunk ``X ⊆ members`` with ``w(X) ∈ [lo, hi]``.

    Requires ``hi ≥ 2·lo``.  If the whole set weighs ≤ ``hi`` it is returned
    outright; a single vertex of weight ≥ ``lo`` is preferred (no cut cost);
    otherwise one oracle split at target ``(lo+hi)/2`` lands in the window
    because every vertex then weighs < ``lo ≤ (hi−lo)/2``... (window
    half-width ``‖w|U‖∞/2 < lo/2 ≤ (hi−lo)/2``).
    """
    members = np.asarray(members, dtype=np.int64)
    if members.size == 0:
        return members
    w = np.asarray(weights, dtype=np.float64)
    total = float(w[members].sum())
    if total <= hi:
        return members
    local = w[members]
    heavy = np.flatnonzero(local >= lo)
    if heavy.size:
        # any single vertex in [lo, hi]: vertex weights are ≤ ‖w‖∞ ≤ hi in
        # every caller, so the first heavy vertex qualifies
        candidates = heavy[local[heavy] <= hi]
        if candidates.size:
            return members[[int(candidates[0])]]
        return members[[int(heavy[0])]]
    sub = g.subgraph(members)
    u_local = oracle_split(oracle, sub.graph, local, (lo + hi) / 2.0)
    u = members[np.asarray(u_local, dtype=np.int64)]
    if u.size == 0 or u.size == members.size:
        # defensive: greedy fill by descending weight
        order = members[np.argsort(-local)]
        cum = np.cumsum(w[order])
        count = int(np.searchsorted(cum, lo, side="left")) + 1
        return order[: min(count, members.size)]
    return u


def binpack_merge(
    g: Graph,
    chi0: Coloring,
    w1_class: np.ndarray,
    weights: np.ndarray,
    oracle,
) -> Coloring:
    """``BinPack1`` (Lemma 15): rearrange ``χ₀`` so that adding class weights
    ``w1_class`` (from ``χ̂₁``) yields an almost strictly balanced sum.

    Moves only chunks of weight in ``[‖w‖∞, 2‖w‖∞]``; every class is touched
    O(1) times, so splitting and boundary costs grow by constant factors.
    """
    k = chi0.k
    w = np.asarray(weights, dtype=np.float64)
    support = np.flatnonzero(chi0.labels >= 0)
    wmax = float(w.max()) if w.size else 0.0
    w1 = np.asarray(w1_class, dtype=np.float64)
    total = float(w[support].sum()) + float(w1.sum())
    w_star = total / k
    classes = [chi0.class_members(i) for i in range(k)]
    cw = np.array([float(w[c].sum()) for c in classes])
    if wmax <= 0:
        return chi0.copy()
    buffer: list[np.ndarray] = []

    # step (2.): uncolor chunks from overweight sums
    guard = 0
    while guard < 8 * k + int(total / wmax) + 8:
        guard += 1
        over = np.flatnonzero(cw + w1 > w_star + 1e-12)
        over = over[cw[over] > 0]
        if over.size == 0:
            break
        i = int(over[np.argmax(cw[over] + w1[over])])
        x = extract_chunk(g, classes[i], w, wmax, 2.0 * wmax, oracle)
        if x.size == 0:
            break
        mask = np.zeros(g.n, dtype=bool)
        mask[classes[i]] = True
        mask[x] = False
        classes[i] = np.flatnonzero(mask).astype(np.int64)
        cw[i] -= float(w[x].sum())
        buffer.append(x)

    # step (3.): fill underweight sums from the buffer
    while buffer:
        under = np.flatnonzero(cw + w1 < w_star - 2.0 * wmax - 1e-12)
        if under.size == 0:
            break
        j = int(under[0])
        x = buffer.pop()
        classes[j] = np.concatenate([classes[j], x])
        cw[j] += float(w[x].sum())

    # step (4.): distribute the rest to the lightest sums
    heap = [(cw[i] + w1[i], i) for i in range(k)]
    heapq.heapify(heap)
    while buffer:
        x = buffer.pop()
        load, j = heapq.heappop(heap)
        classes[j] = np.concatenate([classes[j], x])
        cw[j] += float(w[x].sum())
        heapq.heappush(heap, (cw[j] + w1[j], j))

    labels = np.full(g.n, -1, dtype=np.int64)
    for i in range(k):
        labels[classes[i]] = i
    return Coloring(labels, k)


def binpack_strict(
    g: Graph,
    coloring: Coloring,
    weights: np.ndarray,
    oracle,
) -> Coloring:
    """``BinPack2`` (Proposition 12): enforce Definition 1 strict balance.

    Step 2 peels chunks of weight in ``[‖w‖∞/2, ‖w‖∞]`` off classes above
    the average ``w* = ‖w‖₁/k``; step 3 feeds classes below
    ``w* − (1 − 1/k)‖w‖∞``; step 4 deals leftovers to the lightest class
    (which always sits ≤ ``w* − w(X)/k``).  The result satisfies
    ``|w(χ⁻¹(i)) − w*| ≤ (1 − 1/k)·‖w‖∞`` for every class.
    """
    k = coloring.k
    w = np.asarray(weights, dtype=np.float64)
    wmax = float(w.max()) if w.size else 0.0
    if wmax <= 0 or k == 1:
        return coloring.copy()
    total = float(w[coloring.labels >= 0].sum())
    w_star = total / k
    classes = [coloring.class_members(i) for i in range(k)]
    cw = np.array([float(w[c].sum()) for c in classes])
    buffer: list[np.ndarray] = []

    # step (2.): reduce every class to ≤ w*
    guard = 0
    limit = 8 * k + int(2.0 * total / wmax) + 8
    while guard < limit:
        guard += 1
        over = np.flatnonzero(cw > w_star + 1e-12)
        if over.size == 0:
            break
        i = int(over[np.argmax(cw[over])])
        x = extract_chunk(g, classes[i], w, wmax / 2.0, wmax, oracle)
        if x.size == 0:
            break
        mask = np.zeros(g.n, dtype=bool)
        mask[classes[i]] = True
        mask[x] = False
        classes[i] = np.flatnonzero(mask).astype(np.int64)
        cw[i] -= float(w[x].sum())
        buffer.append(x)

    # step (3.): raise every class above w* − (1 − 1/k)‖w‖∞
    low_thr = w_star - (1.0 - 1.0 / k) * wmax
    while buffer:
        under = np.flatnonzero(cw < low_thr - 1e-12)
        if under.size == 0:
            break
        j = int(under[np.argmin(cw[under])])
        x = buffer.pop()
        classes[j] = np.concatenate([classes[j], x])
        cw[j] += float(w[x].sum())

    # step (4.): deal leftovers to the lightest class
    heap = [(cw[i], i) for i in range(k)]
    heapq.heapify(heap)
    while buffer:
        x = buffer.pop()
        while True:
            load, j = heapq.heappop(heap)
            if abs(load - cw[j]) <= 1e-9 * max(1.0, wmax):
                break
        classes[j] = np.concatenate([classes[j], x])
        cw[j] += float(w[x].sum())
        heapq.heappush(heap, (cw[j], j))

    labels = np.full(g.n, -1, dtype=np.int64)
    for i in range(k):
        labels[classes[i]] = i
    out = Coloring(labels, k)
    if not out.is_strictly_balanced(w, tol=1e-7):
        out = _repair_balance(g, out, w)
    return out


def _repair_balance(g: Graph, coloring: Coloring, weights: np.ndarray) -> Coloring:
    """Safety net: greedy single-vertex moves toward strict balance.

    The proven path never needs this; it guards against pathological float
    accumulation.  Moves the lightest vertex of the heaviest class to the
    lightest class while the Definition 1 window is violated.  Each use
    counts once as ``balance_repairs`` in the obs registry, telemetry on or
    off, and emits a ``binpack.balance_repair`` event with its move count.
    """
    w = np.asarray(weights, dtype=np.float64)
    k = coloring.k
    labels = coloring.labels.copy()
    wmax = float(w.max()) if w.size else 0.0
    total = float(w[labels >= 0].sum())
    w_star = total / k
    window = (1.0 - 1.0 / k) * wmax
    cw = Coloring(labels, k).class_weights(w)
    moves = 0
    for _ in range(int(labels.size) + 8):
        hi = int(np.argmax(cw))
        lo = int(np.argmin(cw))
        if cw[hi] - w_star <= window + 1e-9 and w_star - cw[lo] <= window + 1e-9:
            break
        movable = np.flatnonzero((labels == hi) & (w > 0))
        if movable.size == 0:
            break
        v = int(movable[np.argmin(w[movable])])
        labels[v] = lo
        cw[hi] -= w[v]
        cw[lo] += w[v]
        moves += 1
    registry().counter("balance_repairs").inc()
    events.emit("binpack.balance_repair", moves=moves)
    return Coloring(labels, k)
