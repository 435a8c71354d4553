"""§3: multi-balanced colorings (Lemmas 6, 8, 9).

* :func:`multi_balanced_bicolor` — Lemma 8: a 2-coloring of ``G[W]``
  simultaneously balanced with respect to ``r`` measures, by recursive
  bisection (split by the last measure, recurse on each side for the rest,
  swap labels to satisfy the paper's condition (5)).
* :func:`rebalance` — Lemma 9: given any coloring, make it balanced with
  respect to a *primary* measure while approximately preserving balance in
  the others, via the ``Move`` procedure over Light/Medium/Heavy colors.
* :func:`multi_balanced_coloring` — Lemma 6: fold :func:`rebalance` over the
  measure list (induction on ``r``), starting from the trivial coloring.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..graphs.graph import Graph
from ..separators.solve import oracle_split
from .coloring import Coloring
from .measures import dynamic_mono_measure
from .params import DecompositionParams

__all__ = [
    "multi_balanced_bicolor",
    "rebalance",
    "multi_balanced_coloring",
    "RebalanceStats",
]


def multi_balanced_bicolor(
    g: Graph,
    members: np.ndarray,
    measures: list[np.ndarray],
    oracle,
) -> tuple[np.ndarray, np.ndarray]:
    """Lemma 8: 2-color ``G[members]`` balanced w.r.t. every measure.

    Guarantees (with ``r = len(measures)``): cut cost ≤ ``(2^r − 1)·σ_p‖c|W‖_p``
    oracle-splits, each class's ``Φ^(j)`` at most
    ``(3/4)(Φ^(j)(W) + 2^(r−j)‖Φ^(j)‖∞)``, and for the *first* measure at most
    ``(1/2)(Φ^(1)(W) + 2^(r−1)‖Φ^(1)‖∞)``.

    Returns host-id arrays ``(part1, part2)`` partitioning ``members``.
    """
    members = np.asarray(members, dtype=np.int64)
    if not measures:
        raise ValueError("need at least one measure")
    if members.size == 0:
        return members, members.copy()
    phi_last = measures[-1]
    sub = g.subgraph(members)
    local_w = phi_last[members]
    u_local = oracle_split(oracle, sub.graph, local_w, float(local_w.sum()) / 2.0)
    u_mask = np.zeros(members.size, dtype=bool)
    u_mask[np.asarray(u_local, dtype=np.int64)] = True
    side1 = members[u_mask]
    side2 = members[~u_mask]
    if len(measures) == 1:
        return side1, side2
    a1, b1 = multi_balanced_bicolor(g, side1, measures[:-1], oracle)
    a2, b2 = multi_balanced_bicolor(g, side2, measures[:-1], oracle)
    # Condition (5): within side b, the class that keeps color b must carry at
    # most half of side b's Φ^(r)-mass; swap child labels when violated.
    if float(phi_last[a1].sum()) > float(phi_last[side1].sum()) / 2.0:
        a1, b1 = b1, a1
    if float(phi_last[b2].sum()) > float(phi_last[side2].sum()) / 2.0:
        a2, b2 = b2, a2
    return np.concatenate([a1, a2]), np.concatenate([b1, b2])


@dataclass
class RebalanceStats:
    """Diagnostics of one Lemma 9 run (the F-forest of ``Move`` calls)."""

    moves: int = 0
    splits: int = 0
    anomalies: int = 0
    arcs: list = field(default_factory=list)

    def forest_depth(self) -> int:
        """Depth of the deepest F-component (Claim 5 predicts ``O(log k)``)."""
        if not self.arcs:
            return 0
        depth: dict[int, int] = {}
        for parent, child in self.arcs:
            depth[child] = depth.get(parent, 0) + 1
        return max(depth.values(), default=0)


def rebalance(
    g: Graph,
    coloring: Coloring,
    primary: np.ndarray,
    others: list[np.ndarray],
    oracle,
    params: DecompositionParams | None = None,
    mono_edge: np.ndarray | None = None,
) -> tuple[Coloring, RebalanceStats]:
    """Lemma 9: balance ``primary`` (Ψ) while roughly preserving ``others``.

    Implements the ``Move`` procedure: tentative classes, the
    Light/Medium/Heavy partition of colors by Ψ-weight, and the in/out vertex
    flows whose F-forest drives the analysis.  When ``mono_edge`` is given
    (Proposition 7), each ``Move`` additionally balances the dynamic
    monochromatic measure ``Φ^(r+1)`` of the incoming set.

    Returns the rebalanced coloring and run statistics.
    """
    params = params or DecompositionParams()
    k = coloring.k
    psi = np.asarray(primary, dtype=np.float64)
    stats = RebalanceStats()
    total = float(psi.sum())
    if k <= 1 or total <= 0.0 or coloring.n == 0:
        return coloring.copy(), stats
    avg = total / k
    psi_max = float(psi.max())
    r_eff = min(1 + len(others) + (1 if mono_edge is not None else 0), params.max_slack_exponent)
    heavy_thr = params.heavy_factor * avg + params.heavy_slack_scale * (2.0**r_eff) * psi_max

    UNTOUCHED, PENDING, FINISHED = 0, 1, 2
    status = np.full(k, UNTOUCHED, dtype=np.int8)
    tent: list[np.ndarray] = [coloring.class_members(i) for i in range(k)]
    vin: list[np.ndarray] = [np.zeros(0, dtype=np.int64) for _ in range(k)]
    psi_tent = np.array([float(psi[t].sum()) for t in tent])

    pending: deque[int] = deque()
    for i in range(k):
        if psi_tent[i] >= heavy_thr and psi_tent[i] > 0:
            status[i] = PENDING
            pending.append(i)

    def light_colors(exclude: set[int]) -> list[int]:
        out = [
            i
            for i in range(k)
            if status[i] == UNTOUCHED and psi_tent[i] < avg and i not in exclude
        ]
        out.sort(key=lambda i: psi_tent[i])
        return out

    guard = 0
    while pending:
        guard += 1
        if guard > 8 * k + 16:
            stats.anomalies += 1
            break
        i = pending.popleft()
        stats.moves += 1
        if psi_tent[i] < heavy_thr:
            status[i] = FINISHED  # Move step (1.): pending & medium -> finish
            continue
        lights = light_colors(exclude={i})
        if len(lights) < 2:
            # Claim 1 rules this out under the invariants; fall back to the
            # two lightest untouched colors, else finish as-is.
            fallback = [j for j in range(k) if status[j] == UNTOUCHED and j != i]
            fallback.sort(key=lambda j: psi_tent[j])
            lights = fallback
            if len(lights) < 2:
                status[i] = FINISHED
                stats.anomalies += 1
                continue
        x1, x2 = lights[0], lights[1]
        # Move step (3.): split off the final class U with Ψ(U) ∈ [avg, avg+Ψmax]
        x_set = tent[i]
        sub = g.subgraph(x_set)
        local_psi = psi[x_set]
        u_local = oracle_split(oracle, sub.graph, local_psi, avg + psi_max / 2.0)
        u_mask = np.zeros(x_set.size, dtype=bool)
        u_mask[np.asarray(u_local, dtype=np.int64)] = True
        u_set = x_set[u_mask]
        w_set = x_set[~u_mask]
        # Move step (4.): Lemma 8 bicolor of the outgoing set W
        bicolor_measures = [psi] + [np.asarray(m, dtype=np.float64) for m in others]
        if mono_edge is not None:
            bicolor_measures.append(dynamic_mono_measure(g, vin[i], mono_edge))
        p1, p2 = multi_balanced_bicolor(g, w_set, bicolor_measures, oracle)
        # Move steps (5.)-(6.): finalize i, hand the halves to x1, x2
        tent[i] = u_set
        psi_tent[i] = float(psi[u_set].sum())
        status[i] = FINISHED
        stats.splits += 1
        for xb, part in ((x1, p1), (x2, p2)):
            vin[xb] = part
            tent[xb] = np.concatenate([tent[xb], part])
            psi_tent[xb] = float(psi[tent[xb]].sum())
            status[xb] = PENDING
            pending.append(xb)
            stats.arcs.append((i, xb))

    labels = np.full(coloring.n, -1, dtype=np.int64)
    for i in range(k):
        labels[tent[i]] = i
    # vertices uncolored in the input stay uncolored
    labels[coloring.labels < 0] = -1
    return Coloring(labels, k), stats


def multi_balanced_coloring(
    g: Graph,
    k: int,
    measures: list[np.ndarray],
    oracle,
    params: DecompositionParams | None = None,
    initial: Coloring | None = None,
) -> tuple[Coloring, list[RebalanceStats]]:
    """Lemma 6: a k-coloring balanced w.r.t. every measure with small
    average boundary cost.

    Fold of Lemma 9 from the last measure to the first, starting from the
    trivial (single-class) coloring whose average boundary cost is 0; the
    *first* measure ends up with the tightest balance (the paper's remark:
    ``‖Φ^(1)χ⁻¹‖∞ ≤ 3‖Φ^(1)‖_avg + O_r(‖Φ^(1)‖∞)``).
    """
    params = params or DecompositionParams()
    chi = initial.copy() if initial is not None else Coloring.trivial(g.n, k)
    all_stats: list[RebalanceStats] = []
    for j in range(len(measures) - 1, -1, -1):
        chi, stats = rebalance(
            g,
            chi,
            primary=measures[j],
            others=list(measures[j + 1 :]),
            oracle=oracle,
            params=params,
        )
        all_stats.append(stats)
    return chi, all_stats
