"""§4 Proposition 11: "improving balancedness at no cost".

``improve_balance`` transforms a weakly balanced coloring into an *almost
strictly* balanced one (every class within ``2‖w‖∞`` of the average) via the
shrink-and-conquer recursion:

1. While ``‖w‖∞`` is small relative to the average class weight, §5's
   ``Shrink`` peels off a pinned-weight coloring ``χ₀`` and recurses on the
   weakly balanced remainder ``χ₁`` — whose splitting/boundary costs have
   decayed geometrically, so the per-level conquer costs form a convergent
   series.
2. The conquer phase (``BinPack1``) merges the recursive result with ``χ₀``.
3. The base case (large ``‖w‖∞`` or exhausted recursion) applies
   ``BinPack1`` directly with an empty remainder.
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from .binpack import binpack_merge
from .coloring import Coloring
from .measures import splitting_cost_measure
from .params import DecompositionParams
from .shrink import shrink

__all__ = ["improve_balance"]


def improve_balance(
    g: Graph,
    coloring: Coloring,
    weights: np.ndarray,
    oracle,
    params: DecompositionParams | None = None,
    pi: np.ndarray | None = None,
) -> Coloring:
    """Proposition 11: weakly balanced → almost strictly balanced, with the
    maximum splitting and boundary costs growing by O(1) factors."""
    params = params or DecompositionParams()
    w = np.asarray(weights, dtype=np.float64)
    if pi is None:
        pi = splitting_cost_measure(g, params.p, params.sigma_p)
    return _improve(g, coloring, w, oracle, params, pi, level=0)


def _improve(
    g: Graph,
    coloring: Coloring,
    w: np.ndarray,
    oracle,
    params: DecompositionParams,
    pi: np.ndarray,
    level: int,
) -> Coloring:
    k = coloring.k
    support = np.flatnonzero(coloring.labels >= 0)
    if support.size == 0 or k == 1:
        return coloring.copy()
    total = float(w[support].sum())
    avg_class = total / k
    wmax_support = float(w[support].max()) if support.size else 0.0
    # Base case: heavy vertices relative to the class average, or recursion
    # budget exhausted — conquer directly (W₀ = W, W₁ = ∅; Lemma 15).
    if (
        wmax_support > params.shrink_threshold * avg_class
        or level >= params.max_shrink_levels
        or avg_class <= 0
    ):
        return binpack_merge(g, coloring, np.zeros(k), w, oracle)
    chi0, chi1, _diag = shrink(g, coloring, w, pi, oracle, params)
    support1 = np.flatnonzero(chi1.labels >= 0)
    if support1.size == 0:
        return binpack_merge(g, chi0, np.zeros(k), w, oracle)
    if support1.size >= support.size:
        # shrink made no progress (degenerate weights); conquer directly
        return binpack_merge(g, coloring, np.zeros(k), w, oracle)
    chi1_hat = _improve(g, chi1, w, oracle, params, pi, level + 1)
    w1_class = chi1_hat.class_weights(w)
    chi0_tilde = binpack_merge(g, chi0, w1_class, w, oracle)
    return chi0_tilde.direct_sum(chi1_hat)
