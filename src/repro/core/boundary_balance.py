"""Proposition 7: multi-balanced colorings with small *maximum* boundary.

The boundary cost function is not a vertex measure, but it almost is: after
a Lemma 6 coloring ``χ``, the bichromatic-edge measure
``Ψ(v) = c({uv ∈ E : χ(u) ≠ χ(v)})`` satisfies ``‖∂χ⁻¹‖∞ = ‖Ψχ⁻¹‖∞`` and
``‖Ψ‖∞ ≤ Δ_c``, so running Lemma 9 with Ψ as the primary measure balances
the boundary.  Two refinements from the paper:

* the Lemma 6 stage pre-balances the splitting-cost measure π so that any
  later ``Move`` splits cheaply (inequality (10)), and
* each ``Move`` also balances the *dynamic* measure ``Φ^(r+1)`` tracking the
  χ-monochromatic boundary of the incoming set, which makes ``∂′V_in``
  decay geometrically along the F-forest (Claims 9–11).
"""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from .coloring import Coloring
from .measures import splitting_cost_measure
from .multibalance import RebalanceStats, multi_balanced_coloring, rebalance
from .params import DecompositionParams

__all__ = ["boundary_balanced_coloring"]


def boundary_balanced_coloring(
    g: Graph,
    k: int,
    measures: list[np.ndarray],
    oracle,
    params: DecompositionParams | None = None,
    use_dynamic_measure: bool = True,
) -> tuple[Coloring, dict]:
    """Proposition 7: a coloring balanced w.r.t. ``measures`` (and π) whose
    *maximum* boundary cost is ``O_r(σ_p(q·k^(−1/p)‖c‖_p + Δ_c))``.

    ``use_dynamic_measure=False`` drops the Φ^(r+1) refinement (the E7
    ablation).  Returns the coloring and a diagnostics dict.
    """
    params = params or DecompositionParams()
    pi = splitting_cost_measure(g, params.p, params.sigma_p)
    # Lemma 6 stage: user's measures first (tightest balance), then π.
    base_measures = [np.asarray(m, dtype=np.float64) for m in measures] + [pi]
    initial = None
    if params.seed_with_bisection and k >= 2 and g.n > k:
        from ..baselines.recursive_bisection import recursive_bisection

        initial = recursive_bisection(g, k, base_measures[0], oracle=oracle)
    chi, stage1_stats = multi_balanced_coloring(
        g, k, base_measures, oracle, params, initial=initial
    )
    psi = g.bichromatic_vertex_cost(chi.labels)
    diagnostics: dict = {
        "avg_boundary_after_lemma6": chi.avg_boundary(g),
        "max_boundary_after_lemma6": chi.max_boundary(g),
        "lemma6_stats": stage1_stats,
    }
    if float(psi.sum()) == 0.0:
        diagnostics["rebalance_stats"] = RebalanceStats()
        return chi, diagnostics
    mono_edge = None
    if use_dynamic_measure and g.m:
        lu = chi.labels[g.edges[:, 0]]
        lv = chi.labels[g.edges[:, 1]]
        mono_edge = (lu == lv) & (lu >= 0)
    chi_hat, stats = rebalance(
        g,
        chi,
        primary=psi,
        others=base_measures,
        oracle=oracle,
        params=params,
        mono_edge=mono_edge,
    )
    diagnostics["rebalance_stats"] = stats
    diagnostics["max_boundary_after_prop7"] = chi_hat.max_boundary(g)
    return chi_hat, diagnostics
