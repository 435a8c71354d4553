"""Kiwi–Spielman–Teng-style min-max boundary partitioner ([4], §1).

KST bound the *maximum* boundary cost via recursive bisection in which every
separator divides the vertices evenly with respect to **all** tracked weight
functions simultaneously — the weights *and* a running boundary-cost proxy.
The paper notes such multi-way-even separators "are increasingly difficult to
find when the number of weight functions grows larger" and that KST's
guarantee matches Theorem 4 only for at most two weight functions; with a
balance-relaxation ``ε`` their maximum-boundary bound inflates by
``(1/ε)^{1−1/p}`` (unit weights) or ``(log(k/ε²)/ε)^{2−2/p}`` (arbitrary
weights).

This implementation performs recursive bisection where each split balances
the pair (weight, boundary proxy) by splitting on the *combined* normalized
measure, with a tolerance knob ``eps`` reproducing the balance/boundary
trade-off the paper eliminates.
"""

from __future__ import annotations

import numpy as np

from .._util import as_float_array
from ..core.coloring import Coloring
from ..graphs.graph import Graph
from ..separators.solve import oracle_split

__all__ = ["kst_partition"]


def kst_partition(
    g: Graph,
    k: int,
    weights=None,
    oracle=None,
    eps: float = 0.0,
) -> Coloring:
    """Recursive bisection balancing (weight, boundary-proxy) pairs.

    ``eps`` relaxes the per-split weight share by a factor ``(1 ± eps)`` in
    favor of the cheaper side — the KST knob trading balance for boundary.
    The proxy ``τ(v) = c(δ(v))`` tracks accumulated boundary potential, and
    each split targets the midpoint of the *combined* normalized measure,
    emulating KST's simultaneous-division separators for two functions.
    """
    if oracle is None:
        from ..separators.oracles import make_oracle

        oracle = make_oracle("default", g=g)
    w = as_float_array(weights if weights is not None else 1.0, g.n, name="weights")
    tau = g.cost_degree()
    labels = np.full(g.n, -1, dtype=np.int64)
    # explicit worklist, left piece first: the recursion's split order
    # without a self-referencing closure keeping g alive
    work = [(np.arange(g.n, dtype=np.int64), range(k))]
    while work:
        members, colors = work.pop()
        kk = len(colors)
        if kk == 1 or members.size == 0:
            labels[members] = colors.start
            continue
        k_left = kk // 2
        share = k_left / kk
        local_w = w[members]
        local_tau = tau[members]
        wt = float(local_w.sum())
        tt = float(local_tau.sum())
        combined = local_w / wt if wt > 0 else np.zeros(members.size)
        if tt > 0:
            combined = combined + local_tau / tt
        sub = g.subgraph(members)
        lo = share * (1.0 - eps)
        hi = share * (1.0 + eps)
        best_u = None
        best_cost = np.inf
        for s in {lo, share, hi}:
            u_local = oracle_split(oracle, sub.graph, combined, s * float(combined.sum()))
            cost = sub.graph.boundary_cost(u_local)
            got = float(local_w[np.asarray(u_local, dtype=np.int64)].sum())
            # keep within the relaxed weight share
            if wt > 0 and not (lo * wt - local_w.max() <= got <= hi * wt + local_w.max()):
                continue
            if cost < best_cost:
                best_u, best_cost = u_local, cost
        if best_u is None:
            best_u = oracle_split(oracle, sub.graph, local_w, share * wt)
        u_mask = np.zeros(members.size, dtype=bool)
        u_mask[np.asarray(best_u, dtype=np.int64)] = True
        work.append((members[~u_mask], range(colors.start + k_left, colors.stop)))
        work.append((members[u_mask], range(colors.start, colors.start + k_left)))
    return Coloring(labels, k)
