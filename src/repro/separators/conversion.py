"""Lemma 37 / Appendix A.3: balanced separators ↔ splitting sets.

The paper relates Definition 3's *splittability* ``σ_p`` to the classical
*separability* ``β_p`` (Definition 35) of well-behaved instances:

    ``β_p/φ_ℓ  ≪_p  σ_p  ≪_p  φ_ℓ · Δ^(1/q) · β_p``.

This module implements both directions constructively:

* ``separation_from_splitting`` — a splitting set plus its cut's outside
  endpoints form a balanced separation (first half of the proof),
* ``SeparatorBasedOracle`` — the recursive ``Split`` procedure: a nested
  dissection order built from balanced separators, swept for the cheapest
  in-window prefix (second half; the alternating π/degree balancing of the
  paper's running-time remark is used to force geometric size decay).

Separator routines provided: weighted-median BFS level (layered separator)
and a Fiedler-cut separator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.components import bfs_levels, connected_components
from ..graphs.graph import Graph
from .orders import fiedler_order, prefix_split, sweep_split
from .solve import oracle_split

__all__ = [
    "vertex_costs",
    "bfs_level_separator",
    "fiedler_separator",
    "Separation",
    "separation_from_splitting",
    "nested_dissection_order",
    "SeparatorBasedOracle",
    "is_balanced_separation",
]


def vertex_costs(g: Graph) -> np.ndarray:
    """A.3's vertex costs ``τ(v) = c(δ(v))`` corresponding to edge costs."""
    return g.cost_degree()


@dataclass(frozen=True)
class Separation:
    """A separation ``(A, B)`` of a graph (Definition 34).

    ``a_only = A∖B``, ``b_only = B∖A``, ``separator = A∩B``; no edge joins
    ``a_only`` and ``b_only``.
    """

    a_only: np.ndarray
    b_only: np.ndarray
    separator: np.ndarray

    def cost(self, tau: np.ndarray) -> float:
        """Separation cost ``τ(A∩B)``."""
        return float(np.asarray(tau)[self.separator].sum()) if self.separator.size else 0.0


def is_balanced_separation(g: Graph, sep: Separation, weights: np.ndarray, slack: float = 1e-9) -> bool:
    """Definition 34 check: no crossing edge and both sides ≤ (2/3)·‖w‖₁."""
    w = np.asarray(weights, dtype=np.float64)
    n = g.n
    side = np.zeros(n, dtype=np.int8)
    side[sep.a_only] = 1
    side[sep.b_only] = 2
    side[sep.separator] = 3
    if np.any(side == 0) or (
        set(sep.a_only) & set(sep.separator) or set(sep.b_only) & set(sep.separator)
    ):
        return False
    if g.m:
        su = side[g.edges[:, 0]]
        sv = side[g.edges[:, 1]]
        if np.any(((su == 1) & (sv == 2)) | ((su == 2) & (sv == 1))):
            return False
    bound = 2.0 / 3.0 * float(w.sum()) + slack
    return float(w[sep.a_only].sum()) <= bound and float(w[sep.b_only].sum()) <= bound


# ----------------------------------------------------------------------
# separator routines
# ----------------------------------------------------------------------
def bfs_level_separator(g: Graph, weights: np.ndarray) -> np.ndarray:
    """Balanced separator via the weighted-median BFS level.

    If the heaviest component already weighs ≤ 2/3 of the total, the empty
    separator is balanced.  Otherwise BFS the heavy component from a
    pseudo-peripheral vertex and remove the weighted-median level: both the
    lower and upper level blocks weigh ≤ ‖w‖₁/2.
    """
    w = np.asarray(weights, dtype=np.float64)
    total = float(w.sum())
    if g.n == 0 or total == 0:
        return np.zeros(0, dtype=np.int64)
    comp = connected_components(g)
    comp_w = np.bincount(comp, weights=w)
    heavy = int(np.argmax(comp_w))
    if comp_w[heavy] <= 2.0 / 3.0 * total + 1e-12:
        return np.zeros(0, dtype=np.int64)
    members = np.flatnonzero(comp == heavy).astype(np.int64)
    start = members[0]
    # pseudo-peripheral start inside the component
    v = start
    for _ in range(2):
        lev = bfs_levels(g, [v])
        reach = lev >= 0
        far = int(np.argmax(np.where(reach, lev, -1)))
        if far == v:
            break
        v = far
    lev = bfs_levels(g, [v])
    lev_members = lev[members]
    max_lev = int(lev_members.max())
    level_w = np.bincount(lev_members, weights=w[members], minlength=max_lev + 1)
    cum = np.cumsum(level_w)
    t = int(np.searchsorted(cum, comp_w[heavy] / 2.0, side="left"))
    t = min(t, max_lev)
    return members[lev_members == t]


def fiedler_separator(g: Graph, weights: np.ndarray) -> np.ndarray:
    """Balanced separator from a Fiedler sweep cut.

    Takes the weight-median prefix ``U`` of the Fiedler order and returns the
    outside endpoints of ``δ(U)`` — a separator because every ``U``-to-rest
    path crosses ``δ(U)``.
    """
    w = np.asarray(weights, dtype=np.float64)
    if g.n <= 1 or g.m == 0:
        return np.zeros(0, dtype=np.int64)
    order = fiedler_order(g)
    u = sweep_split(g, order, w, float(w.sum()) / 2.0)
    if u.size == 0 or u.size == g.n:
        return np.zeros(0, dtype=np.int64)
    mask = np.zeros(g.n, dtype=bool)
    mask[u] = True
    cut = g.cut_edges(u)
    ends = g.edges[cut].ravel()
    outside = ends[~mask[ends]]
    return np.unique(outside).astype(np.int64)


# ----------------------------------------------------------------------
# splitting set -> separation (Lemma 37, first direction)
# ----------------------------------------------------------------------
def separation_from_splitting(g: Graph, weights: np.ndarray, oracle) -> Separation:
    """Build a w-balanced separation from a splitting set (Lemma 37 part 1).

    If some vertex carries more than a third of the weight it is its own
    separator; otherwise a splitting set ``U`` with
    ``w(U) ∈ [‖w‖₁/3, ‖w‖₁/3 + ‖w‖∞]`` is computed and the outside endpoints
    ``X`` of ``δ(U)`` separate ``(U ∪ X, V∖U)``.
    """
    w = np.asarray(weights, dtype=np.float64)
    total = float(w.sum())
    n = g.n
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return Separation(empty, empty, empty)
    wmax = float(w.max())
    if wmax > total / 3.0:
        v = int(np.argmax(w))
        rest = np.setdiff1d(np.arange(n, dtype=np.int64), [v])
        return Separation(np.zeros(0, dtype=np.int64), rest, np.asarray([v], dtype=np.int64))
    u = np.asarray(oracle_split(oracle, g, w, total / 3.0 + wmax / 2.0), dtype=np.int64)
    mask = np.zeros(n, dtype=bool)
    mask[u] = True
    cut = g.cut_edges(u)
    ends = g.edges[cut].ravel() if cut.size else np.zeros(0, dtype=np.int64)
    sep = np.unique(ends[~mask[ends]]).astype(np.int64)
    sep_mask = np.zeros(n, dtype=bool)
    sep_mask[sep] = True
    a_only = u
    b_only = np.flatnonzero(~mask & ~sep_mask).astype(np.int64)
    return Separation(a_only=a_only, b_only=b_only, separator=sep)


# ----------------------------------------------------------------------
# separator -> splitting oracle (Lemma 37, second direction: procedure Split)
# ----------------------------------------------------------------------
def nested_dissection_order(
    g: Graph,
    p: float = 2.0,
    separator_fn=bfs_level_separator,
    leaf_size: int = 8,
    max_depth: int = 64,
) -> np.ndarray:
    """Recursive-separator vertex order (the paper's ``Split`` recursion).

    Levels alternate between π-balanced separations (``π(v) = τ(v)^p``, the
    cost the ``Split`` analysis charges) and degree-balanced separations
    (which force ``|G|`` to decay geometrically — the paper's running-time
    remark).  Any prefix of the order crosses only the separators along one
    root–leaf recursion path, which is what bounds its boundary cost.
    """
    tau = vertex_costs(g)
    pi = tau**p
    deg = g.degree().astype(np.float64)

    def rec(members: np.ndarray, depth: int) -> list[np.ndarray]:
        if members.size <= leaf_size or depth >= max_depth:
            return [members]
        sub = g.subgraph(members)
        bal = pi[members] if depth % 2 == 0 else np.maximum(deg[members], 1.0)
        if float(bal.sum()) == 0.0:
            bal = np.ones(members.size)
        sep_local = separator_fn(sub.graph, bal)
        sep_mask = np.zeros(members.size, dtype=bool)
        sep_mask[sep_local] = True
        rest_local = np.flatnonzero(~sep_mask)
        if sep_local.size == 0 or rest_local.size == 0:
            # separator failed to make progress; fall back to a plain split
            half = members.size // 2
            if half == 0 or half == members.size:
                return [members]
            return rec(members[:half], depth + 1) + rec(members[half:], depth + 1)
        rest_sub = sub.graph.subgraph(rest_local)
        comp = connected_components(rest_sub.graph)
        ncomp = int(comp.max()) + 1 if rest_local.size else 0
        comp_bal = np.bincount(comp, weights=bal[rest_local], minlength=ncomp)
        # greedy 2-side packing of components, heaviest first
        side_tot = [0.0, 0.0]
        side_of_comp = np.zeros(ncomp, dtype=np.int8)
        for cid in np.argsort(-comp_bal):
            s = 0 if side_tot[0] <= side_tot[1] else 1
            side_of_comp[cid] = s
            side_tot[s] += float(comp_bal[cid])
        side = side_of_comp[comp]
        a_local = rest_local[side == 0]
        b_local = rest_local[side == 1]
        out: list[np.ndarray] = []
        if a_local.size:
            out.extend(rec(members[a_local], depth + 1))
        out.append(members[sep_local])
        if b_local.size:
            out.extend(rec(members[b_local], depth + 1))
        return out

    try:
        blocks = rec(np.arange(g.n, dtype=np.int64), 0)
    finally:
        # rec refers to itself through its closure; dropping the name breaks
        # that cycle, so g is freed without a full GC
        del rec
    return np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int64)


class SeparatorBasedOracle:
    """Splitting oracle built from a balanced-separator routine (Lemma 37).

    The nested dissection order is swept for the cheapest in-window prefix;
    the Definition 3 weight window holds unconditionally.
    """

    def __init__(self, separator_fn=bfs_level_separator, p: float = 2.0, leaf_size: int = 8):
        self.separator_fn = separator_fn
        self.p = p
        self.leaf_size = leaf_size

    @property
    def name(self) -> str:
        return f"separator({getattr(self.separator_fn, '__name__', 'custom')})"

    def split(self, g: Graph, weights: np.ndarray, target: float) -> np.ndarray:
        order = nested_dissection_order(
            g, p=self.p, separator_fn=self.separator_fn, leaf_size=self.leaf_size
        )
        if g.m:
            return sweep_split(g, order, weights, target)
        return prefix_split(order, weights, target)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SeparatorBasedOracle({getattr(self.separator_fn, '__name__', self.separator_fn)!r})"
