"""Theorem 4: the full min-max boundary decomposition pipeline.

``min_max_partition`` composes the three stages of the proof:

1. **Proposition 7** — a coloring balanced w.r.t. the weights, the
   splitting-cost measure π, and any user measures, with maximum boundary
   cost ``O_p(σ_p(k^(−1/p)‖c‖_p + Δ_c))``;
2. **Proposition 11** — shrink-and-conquer to *almost strict* balance at
   constant-factor boundary growth;
3. **Proposition 12** — ``BinPack2`` to **strict** balance
   (Definition 1's ``(1 − 1/k)‖w‖∞`` window, enforced unconditionally).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import as_float_array
from ..graphs.graph import Graph
from ..obs import span
from .balance import strict_balance_margin
from .binpack import binpack_strict
from .boundary_balance import boundary_balanced_coloring
from .coloring import Coloring
from .measures import splitting_cost_measure
from .params import DecompositionParams
from .strictify import improve_balance

__all__ = ["min_max_partition", "DecompositionResult", "theorem4_bound"]


@dataclass
class DecompositionResult:
    """Outcome of :func:`min_max_partition` with per-stage audit metrics."""

    coloring: Coloring
    weights: np.ndarray
    params: DecompositionParams
    stage_max_boundary: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    # convenience accessors -------------------------------------------------
    @property
    def labels(self) -> np.ndarray:
        return self.coloring.labels

    @property
    def k(self) -> int:
        return self.coloring.k

    def max_boundary(self, g: Graph) -> float:
        return self.coloring.max_boundary(g)

    def avg_boundary(self, g: Graph) -> float:
        return self.coloring.avg_boundary(g)

    def class_weights(self) -> np.ndarray:
        return self.coloring.class_weights(self.weights)

    def balance_margin(self) -> float:
        """Definition 1 slack (≥ 0 means strictly balanced)."""
        w = self.weights
        return strict_balance_margin(
            self.class_weights(), float(w.sum()), float(w.max()) if w.size else 0.0, self.k
        )

    def is_strictly_balanced(self) -> bool:
        return self.coloring.is_strictly_balanced(self.weights, tol=1e-7)


def min_max_partition(
    g: Graph,
    k: int,
    weights=None,
    oracle=None,
    measures: list[np.ndarray] | None = None,
    params: DecompositionParams | None = None,
) -> DecompositionResult:
    """Partition ``g`` into ``k`` strictly weight-balanced classes with small
    maximum boundary cost (Theorem 4).

    Parameters
    ----------
    g:
        Host graph with edge costs.
    k:
        Number of classes.
    weights:
        Vertex weights ``w`` (scalar/array); default unit weights.
    oracle:
        A :class:`~repro.separators.interface.SplittingOracle`; defaults to
        the grid-aware best-of portfolio.
    measures:
        Extra vertex measures to balance simultaneously (the multi-balanced
        Theorem 4 variant sketched in the conclusion).
    params:
        Pipeline constants; see :class:`DecompositionParams`.

    Every oracle split goes through
    :func:`~repro.separators.solve.oracle_split`; spectral solves are
    memoized in the process-local solve cache, so subgraphs that several
    stages reach are solved once.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    params = params or DecompositionParams()
    w = as_float_array(weights if weights is not None else 1.0, g.n, name="weights")
    if oracle is None:
        from ..separators.oracles import make_oracle

        oracle = make_oracle("default", g=g)
    extra = [np.asarray(m, dtype=np.float64) for m in (measures or [])]

    stage_max: dict = {}
    # Stage 1: Proposition 7 — boundary-balanced multi-balanced coloring.
    with span("pipeline.prop7"):
        chi, diagnostics = boundary_balanced_coloring(g, k, [w] + extra, oracle, params)
    stage_max["prop7"] = chi.max_boundary(g)

    # Stage 2: Proposition 11 — almost strict balance at no (asymptotic) cost.
    pi = splitting_cost_measure(g, params.p, params.sigma_p)
    if params.improve_balance and not chi.is_almost_strictly_balanced(w):
        with span("pipeline.prop11"):
            chi = improve_balance(g, chi, w, oracle, params, pi=pi)
        stage_max["prop11"] = chi.max_boundary(g)

    # Stage 3: Proposition 12 — strict balance, unconditionally.
    if params.strictify:
        with span("pipeline.prop12"):
            chi = binpack_strict(g, chi, w, oracle)
        stage_max["prop12"] = chi.max_boundary(g)

    # Stage 4 (engineering): window-preserving pairwise FM refinement.
    if params.final_refine and params.strictify and g.n <= 50_000:
        from .refine import kway_refine

        with span("pipeline.refine"):
            chi = kway_refine(g, chi, w, rounds=params.refine_rounds)
        stage_max["refine"] = chi.max_boundary(g)

    return DecompositionResult(
        coloring=chi,
        weights=w,
        params=params,
        stage_max_boundary=stage_max,
        diagnostics=diagnostics,
    )


def theorem4_bound(g: Graph, k: int, p: float = 2.0, sigma_p: float = 1.0) -> float:
    """RHS of Theorem 4, ``σ_p·(k^(−1/p)·‖c‖_p + Δ_c)``, with O-constant 1.

    Experiments report measured/bound ratios; only the shape (scaling in
    ``k``, ``n``, ``p``) is asserted.
    """
    return sigma_p * (k ** (-1.0 / p) * g.cost_norm(p) + g.max_cost_degree())
