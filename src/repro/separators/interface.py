"""Oracle interface: Definition 3 splitting sets.

A *splitting set* for weights ``w`` and splitting value ``w*`` is a vertex
set ``U`` with ``|w(U) − w*| ≤ ‖w‖∞/2``.  The ``p``-splittability ``σ_p`` of
an instance is the least constant such that every induced subgraph admits
splitting sets of boundary cost ``σ_p·‖c|W‖_p`` for every weight/value pair.

Theorem 4 consumes any routine producing splitting sets; this module fixes
the calling convention all oracles in :mod:`repro.separators` follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..graphs.graph import Graph

__all__ = ["SplittingOracle", "SplitResult", "check_split_window", "split_result"]


@runtime_checkable
class SplittingOracle(Protocol):
    """Callable producing Definition 3 splitting sets on (sub)graphs.

    Implementations must return a vertex-index array ``U`` over ``g``'s local
    ids satisfying ``|w(U) − target| ≤ ‖w‖∞ / 2`` (after clamping ``target``
    to ``[0, ‖w‖₁]``).  Cut quality is best-effort; the weight window is a
    hard contract.  Callers dispatch through
    :func:`repro.separators.solve.oracle_split`, which times the call under
    the ``oracle.split`` span.
    """

    def split(self, g: Graph, weights: np.ndarray, target: float) -> np.ndarray:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class SplitResult:
    """A splitting set with its audit quantities."""

    members: np.ndarray
    weight: float
    target: float
    cut_cost: float
    wmax: float

    @property
    def window_violation(self) -> float:
        """``max(0, |w(U) − w*| − ‖w‖∞/2)`` — 0 for a valid splitting set."""
        return max(0.0, abs(self.weight - self.target) - self.wmax / 2.0)

    @property
    def is_valid(self) -> bool:
        return self.window_violation <= 1e-9 * max(1.0, self.wmax)


def split_result(g: Graph, weights: np.ndarray, target: float, members: np.ndarray) -> SplitResult:
    """Audit a candidate splitting set ``members`` of ``g``."""
    w = np.asarray(weights, dtype=np.float64)
    total = float(w.sum())
    t = min(max(float(target), 0.0), total)
    return SplitResult(
        members=np.asarray(members, dtype=np.int64),
        weight=float(w[members].sum()) if len(members) else 0.0,
        target=t,
        cut_cost=g.boundary_cost(members),
        wmax=float(w.max()) if w.size else 0.0,
    )


def check_split_window(weights: np.ndarray, target: float, members: np.ndarray, tol: float = 1e-9) -> bool:
    """Definition 3 check: ``|w(U) − w*| ≤ ‖w‖∞/2`` with ``w*`` clamped."""
    w = np.asarray(weights, dtype=np.float64)
    total = float(w.sum())
    t = min(max(float(target), 0.0), total)
    got = float(w[np.asarray(members, dtype=np.int64)].sum()) if len(members) else 0.0
    wmax = float(w.max()) if w.size else 0.0
    return abs(got - t) <= wmax / 2.0 + tol * max(1.0, wmax)
