"""Simon–Teng recursive bisection (§1 "Previous Work", [8]).

Recursive bisection with weight-balanced splits: partition the vertex set by
repeatedly splitting the current piece's weight in proportion to the number
of colors each side will receive.  Simon & Teng showed this bounds the number
of removed edges — i.e. the *average* boundary cost — by
``O(k^{1−1/p} n^{1/p})`` for bounded-degree graphs with a p-separator
theorem.  It makes no attempt to balance the *maximum* boundary cost, which
is what the paper improves.
"""

from __future__ import annotations

import numpy as np

from .._util import as_float_array
from ..core.coloring import Coloring
from ..graphs.graph import Graph
from ..separators.solve import oracle_split

__all__ = ["recursive_bisection"]


def recursive_bisection(g: Graph, k: int, weights=None, oracle=None) -> Coloring:
    """Partition into ``k`` classes by recursive weight-proportional splits.

    Each split hands ``⌊k'/2⌋`` of the piece's ``k'`` colors to one side with
    the proportional share of the weight, using the splitting oracle.  The
    weight of each class ends within the window guaranteed by the oracle's
    per-split ``‖w‖∞/2`` accuracy compounded over ``log k`` levels.
    """
    if oracle is None:
        from ..separators.oracles import make_oracle

        oracle = make_oracle("default", g=g)
    w = as_float_array(weights if weights is not None else 1.0, g.n, name="weights")
    labels = np.full(g.n, -1, dtype=np.int64)
    # an explicit worklist instead of a self-referencing closure (which
    # would keep g and the oracle alive until a full GC), left piece first
    work = [(np.arange(g.n, dtype=np.int64), range(k))]
    while work:
        members, colors = work.pop()
        kk = len(colors)
        if kk == 1 or members.size == 0:
            labels[members] = colors.start
            continue
        k_left = kk // 2
        sub = g.subgraph(members)
        local_w = w[members]
        target = float(local_w.sum()) * (k_left / kk)
        u_local = oracle_split(oracle, sub.graph, local_w, target)
        u_mask = np.zeros(members.size, dtype=bool)
        u_mask[np.asarray(u_local, dtype=np.int64)] = True
        work.append((members[~u_mask], range(colors.start + k_left, colors.stop)))
        work.append((members[u_mask], range(colors.start, colors.start + k_left)))
    return Coloring(labels, k)
