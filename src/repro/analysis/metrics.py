"""Partition quality metrics used by tests, examples, and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.balance import strict_balance_margin
from ..core.coloring import Coloring
from ..graphs.graph import Graph
from .bounds import theorem5_rhs

__all__ = ["PartitionMetrics", "evaluate_coloring", "record_metrics"]


@dataclass(frozen=True)
class PartitionMetrics:
    """All the numbers the paper's statements talk about, for one coloring."""

    k: int
    max_boundary: float
    avg_boundary: float
    total_cut: float
    max_class_weight: float
    min_class_weight: float
    avg_class_weight: float
    balance_margin: float
    strictly_balanced: bool

    @property
    def weight_spread(self) -> float:
        return self.max_class_weight - self.min_class_weight

    @property
    def boundary_imbalance(self) -> float:
        """``‖∂χ⁻¹‖∞ / ‖∂χ⁻¹‖_avg`` (1.0 = perfectly even boundaries)."""
        return self.max_boundary / self.avg_boundary if self.avg_boundary > 0 else 1.0


def evaluate_coloring(g: Graph, coloring: Coloring, weights: np.ndarray) -> PartitionMetrics:
    """Compute the full metric panel for a coloring."""
    w = np.asarray(weights, dtype=np.float64)
    per = coloring.boundary_per_class(g)
    cw = coloring.class_weights(w)
    total = float(w[coloring.labels >= 0].sum())
    wmax = float(w.max()) if w.size else 0.0
    # total cut cost (each bichromatic edge once)
    if g.m:
        lu = coloring.labels[g.edges[:, 0]]
        lv = coloring.labels[g.edges[:, 1]]
        total_cut = float(g.costs[(lu != lv)].sum())
    else:
        total_cut = 0.0
    return PartitionMetrics(
        k=coloring.k,
        max_boundary=float(per.max()) if per.size else 0.0,
        avg_boundary=float(per.sum()) / coloring.k,
        total_cut=total_cut,
        max_class_weight=float(cw.max()) if cw.size else 0.0,
        min_class_weight=float(cw.min()) if cw.size else 0.0,
        avg_class_weight=total / coloring.k,
        balance_margin=strict_balance_margin(cw, total, wmax, coloring.k),
        strictly_balanced=coloring.is_strictly_balanced(w, tol=1e-7),
    )


def record_metrics(g: Graph, coloring: Coloring, weights: np.ndarray, k: int) -> dict:
    """The six metrics every sweep record and stream snapshot carries:
    ``max_boundary``, ``avg_boundary``, ``total_cut``, ``balance_margin``,
    ``strictly_balanced`` and ``bound_ratio_thm5`` (the max boundary over
    Theorem 5's right-hand side at ``p = 2``)."""
    m = evaluate_coloring(g, coloring, weights)
    rhs5 = theorem5_rhs(g, k, p=2.0)
    return {
        "max_boundary": float(m.max_boundary),
        "avg_boundary": float(m.avg_boundary),
        "total_cut": float(m.total_cut),
        "balance_margin": float(m.balance_margin),
        "strictly_balanced": bool(m.strictly_balanced),
        "bound_ratio_thm5": float(m.max_boundary / rhs5) if rhs5 > 0 else 0.0,
    }
