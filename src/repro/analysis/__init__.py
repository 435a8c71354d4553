"""Metrics, theoretical bound evaluators, and experiment reporting."""

from .adversarial import AdversarialEstimate, estimate_decomposition_cost
from .bounds import (
    SplittabilityEstimate,
    estimate_splittability,
    theorem4_rhs,
    theorem5_rhs,
)
from .metrics import PartitionMetrics, evaluate_coloring, record_metrics
from .reporting import Table

__all__ = [
    "AdversarialEstimate",
    "estimate_decomposition_cost",
    "PartitionMetrics",
    "evaluate_coloring",
    "record_metrics",
    "theorem4_rhs",
    "theorem5_rhs",
    "estimate_splittability",
    "SplittabilityEstimate",
    "Table",
]
