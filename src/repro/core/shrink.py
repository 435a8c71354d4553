"""§5 + Appendix A.1: the ε-shrinking procedure.

``shrink`` splits a weakly balanced coloring ``χ`` of ``W`` into

* ``χ₀`` on ``W₀`` — class weights pinned near ``ε·Ψ*`` (almost strict), and
* ``χ₁`` on ``W₁`` — still weakly balanced, with the splitting-cost measure,
  the induced size, and the boundary cost all reduced by a constant factor
  (Definition 13's requirements),

using three sub-procedures over a buffer of extracted parts:
``CutDown`` (Corollary 16 parts out of overweight classes), ``AddTo``
(Corollary 17 parts into underweight classes), ``ReduceBuffer``.
The part extractors come from Lemma 28's ``IterativePartition`` plus
pigeonhole selection (Lemma 29) and argmax-union selection (Lemma 30).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs.graph import Graph
from ..separators.solve import oracle_split
from .coloring import Coloring
from .params import DecompositionParams

__all__ = [
    "iterative_partition",
    "extract_light_part",
    "extract_representative_part",
    "shrink",
    "ShrinkDiagnostics",
]


def iterative_partition(
    g: Graph,
    members: np.ndarray,
    psi: np.ndarray,
    psi_star: float,
    oracle,
) -> list[np.ndarray]:
    """Lemma 28's ``IterativePartition``: split ``members`` into parts of
    Ψ-weight in ``[ψ*, ψ* + ‖Ψ|U‖∞]`` (final remainder ≤ 3ψ*).

    Each extraction is one oracle split on the shrinking remainder, so the
    total cut cost is ``O(ℓ · π^{1/p}(U))``.
    """
    members = np.asarray(members, dtype=np.int64)
    parts: list[np.ndarray] = []
    rest = members
    if psi_star <= 0:
        return [rest] if rest.size else []
    guard = 0
    limit = int(float(psi[members].sum()) / psi_star) + 4 if members.size else 0
    while rest.size:
        guard += 1
        rest_w = float(psi[rest].sum())
        if rest_w <= 3.0 * psi_star or guard > limit:
            parts.append(rest)
            break
        local_max = float(psi[rest].max())
        sub = g.subgraph(rest)
        u_local = oracle_split(oracle, sub.graph, psi[rest], psi_star + local_max / 2.0)
        u_mask = np.zeros(rest.size, dtype=bool)
        u_mask[np.asarray(u_local, dtype=np.int64)] = True
        part = rest[u_mask]
        if part.size == 0 or part.size == rest.size:
            parts.append(rest)
            break
        parts.append(part)
        rest = rest[~u_mask]
    return parts


def _boundary_measure(g: Graph, members: np.ndarray) -> np.ndarray:
    """A.1's per-call measure ``Φ(v) = c(δ(v) ∩ δ(U))`` for ``v ∈ U``.

    Lets the corollaries treat the set's *current* boundary cost like a
    vertex measure when choosing which part to peel off.
    """
    phi = np.zeros(g.n, dtype=np.float64)
    if g.m == 0 or members.size == 0:
        return phi
    mask = np.zeros(g.n, dtype=bool)
    mask[members] = True
    u, v = g.edges[:, 0], g.edges[:, 1]
    crossing = mask[u] != mask[v]
    if not np.any(crossing):
        return phi
    cu, cv, cc = u[crossing], v[crossing], g.costs[crossing]
    np.add.at(phi, np.where(mask[cu], cu, cv), cc)
    return phi


def extract_light_part(
    g: Graph,
    members: np.ndarray,
    psi: np.ndarray,
    psi_target: float,
    other_measures: list[np.ndarray],
    oracle,
) -> np.ndarray:
    """Corollaries 16/17 (via Lemma 29): a part ``X ⊆ U`` of Ψ-weight
    ``≈ psi_target`` carrying a *small* share of every other measure and of
    ``U``'s boundary cost.

    Partitions ``U`` into ``≈ Ψ(U)/psi_target`` parts and returns the one
    minimizing the maximum relative load (pigeonhole guarantees a part whose
    every load is ≤ parts-fraction).
    """
    members = np.asarray(members, dtype=np.int64)
    if members.size == 0:
        return members
    total = float(psi[members].sum())
    if total <= psi_target or members.size == 1:
        return members
    parts = iterative_partition(g, members, psi, psi_target, oracle)
    if len(parts) == 1:
        return parts[0]
    loads = np.zeros(len(parts))
    denominators = []
    all_measures = list(other_measures) + [_boundary_measure(g, members)]
    for meas in all_measures:
        tot = float(np.asarray(meas)[members].sum())
        denominators.append(tot if tot > 0 else 1.0)
    for idx, part in enumerate(parts):
        ratios = [
            float(np.asarray(meas)[part].sum()) / den
            for meas, den in zip(all_measures, denominators)
        ]
        loads[idx] = max(ratios) if ratios else 0.0
    return parts[int(np.argmin(loads))]


def extract_representative_part(
    g: Graph,
    members: np.ndarray,
    psi: np.ndarray,
    psi_target: float,
    other_measures: list[np.ndarray],
    oracle,
) -> np.ndarray:
    """Corollary 18 (via Lemma 30): a part ``X ⊆ U`` of Ψ-weight
    ``≈ psi_target`` carrying a *proportional* share of every other measure
    and of the boundary, so the remainder ``U∖X`` shrinks in all of them.

    Builds the union of the per-measure argmax parts of a fine partition,
    topped up by one oracle split to hit the Ψ window.
    """
    members = np.asarray(members, dtype=np.int64)
    if members.size == 0:
        return members
    total = float(psi[members].sum())
    if total <= psi_target or members.size == 1:
        return members
    all_measures = list(other_measures) + [_boundary_measure(g, members)]
    r = max(1, len(all_measures))
    fine = iterative_partition(g, members, psi, max(psi_target / (3.0 * r), 1e-300), oracle)
    chosen: list[np.ndarray] = []
    chosen_ids: set[int] = set()
    for meas in all_measures:
        vals = [float(np.asarray(meas)[part].sum()) for part in fine]
        best = int(np.argmax(vals))
        if best not in chosen_ids:
            chosen_ids.add(best)
            chosen.append(fine[best])
    x_bar = np.concatenate(chosen) if chosen else np.zeros(0, dtype=np.int64)
    got = float(psi[x_bar].sum())
    if got >= psi_target:
        return x_bar
    # top up from the remainder with one splitting set
    mask = np.zeros(g.n, dtype=bool)
    mask[members] = True
    mask[x_bar] = False
    rest = np.flatnonzero(mask).astype(np.int64)
    if rest.size == 0:
        return x_bar
    local_max = float(psi[rest].max())
    sub = g.subgraph(rest)
    s_local = oracle_split(oracle, sub.graph, psi[rest], (psi_target - got) + local_max / 2.0)
    return np.concatenate([x_bar, rest[np.asarray(s_local, dtype=np.int64)]])


@dataclass
class ShrinkDiagnostics:
    """Counters for one ``Shrink`` invocation."""

    cutdowns: int = 0
    addtos: int = 0
    buffer_flushes: int = 0
    donors: set = field(default_factory=set)
    receivers: set = field(default_factory=set)


def shrink(
    g: Graph,
    coloring: Coloring,
    weights: np.ndarray,
    pi: np.ndarray,
    oracle,
    params: DecompositionParams | None = None,
) -> tuple[Coloring, Coloring, ShrinkDiagnostics]:
    """§5 procedure ``Shrink``: split ``χ`` into ``(χ₀, χ₁)``.

    ``χ₀`` colors ``W₀`` with per-class weight ``≈ ε·Ψ*``
    (``Ψ* = w(W)/k``); ``χ₁`` colors ``W₁ = W∖W₀`` weakly balanced with the
    per-class splitting-cost, size, and boundary measures reduced.
    """
    params = params or DecompositionParams()
    k = coloring.k
    w = np.asarray(weights, dtype=np.float64)
    eps = params.epsilon
    chi = coloring.copy()
    diag = ShrinkDiagnostics()
    support = np.flatnonzero(chi.labels >= 0)
    total_w = float(w[support].sum())
    psi_star = total_w / k
    if psi_star <= 0:
        empty = Coloring(np.full(g.n, -1, dtype=np.int64), k)
        return chi, empty, diag

    deg_w = g.degree().astype(np.float64)
    other = [pi, deg_w]

    class_w = chi.class_weights(w)
    m_cap = max(3.0, float(class_w.max()) / psi_star * 1.01)

    classes: list[np.ndarray] = [chi.class_members(i) for i in range(k)]
    cw = class_w.astype(np.float64).copy()
    buffer: list[np.ndarray] = []

    # --- CutDown: bring every class below M/2·Ψ* --------------------------
    guard = 0
    while True:
        guard += 1
        over = np.flatnonzero(cw > m_cap / 2.0 * psi_star + 1e-12)
        if over.size == 0 or guard > 4 * k * int(m_cap / eps + 2):
            break
        i = int(over[0])
        x = extract_light_part(g, classes[i], w, eps * psi_star, other, oracle)
        if x.size == 0 or x.size == classes[i].size:
            break
        mask = np.zeros(g.n, dtype=bool)
        mask[classes[i]] = True
        mask[x] = False
        classes[i] = np.flatnonzero(mask).astype(np.int64)
        cw[i] -= float(w[x].sum())
        buffer.append(x)
        diag.cutdowns += 1
        diag.donors.add(i)

    # --- AddTo: bring every class above ε·Ψ* ------------------------------
    guard = 0
    while True:
        guard += 1
        under = np.flatnonzero(cw < eps * psi_star - 1e-12)
        if under.size == 0 or guard > 4 * k:
            break
        j = int(under[0])
        if buffer:
            x = buffer.pop()
        else:
            donors = np.flatnonzero(cw >= psi_star / 2.0)
            donors = donors[donors != j]
            if donors.size == 0:
                break
            i = int(donors[np.argmax(cw[donors])])
            x = extract_light_part(g, classes[i], w, eps * psi_star, other, oracle)
            if x.size == 0 or x.size == classes[i].size:
                break
            mask = np.zeros(g.n, dtype=bool)
            mask[classes[i]] = True
            mask[x] = False
            classes[i] = np.flatnonzero(mask).astype(np.int64)
            cw[i] -= float(w[x].sum())
            diag.donors.add(i)
        classes[j] = np.concatenate([classes[j], x])
        cw[j] += float(w[x].sum())
        diag.addtos += 1
        diag.receivers.add(j)

    # --- ReduceBuffer: hand leftover parts to light classes ---------------
    while buffer:
        x = buffer.pop()
        j = int(np.argmin(cw))
        classes[j] = np.concatenate([classes[j], x])
        cw[j] += float(w[x].sum())
        diag.buffer_flushes += 1
        diag.receivers.add(j)

    # --- Step 5: peel a representative X_i off each class -----------------
    labels0 = np.full(g.n, -1, dtype=np.int64)
    labels1 = np.full(g.n, -1, dtype=np.int64)
    for i in range(k):
        u = classes[i]
        if u.size == 0:
            continue
        xi = extract_representative_part(g, u, w, eps * psi_star, other, oracle)
        labels0[xi] = i
        mask = np.zeros(g.n, dtype=bool)
        mask[u] = True
        mask[xi] = False
        rest = np.flatnonzero(mask)
        labels1[rest] = i
    return Coloring(labels0, k), Coloring(labels1, k), diag
