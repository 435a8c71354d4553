"""Edge-cost generators.

The paper's novelty over prior work is handling *arbitrary* edge costs
``c : E → R+``; these generators produce the cost regimes the experiments
sweep, in particular fluctuation-controlled costs for the §6 grid separator
theorem (``φ = max c / min c`` is the dial).
"""

from __future__ import annotations

import numpy as np

from .._util import as_rng
from .graph import Graph

__all__ = [
    "unit_costs",
    "uniform_costs",
    "lognormal_costs",
    "fluctuation_costs",
    "axis_costs",
    "fluctuation",
    "local_fluctuation",
]


def unit_costs(g: Graph) -> np.ndarray:
    """``c ≡ 1`` — the setting of all prior work the paper improves on."""
    return np.ones(g.m, dtype=np.float64)


def uniform_costs(g: Graph, low: float = 0.5, high: float = 1.5, rng=None) -> np.ndarray:
    """i.i.d. uniform costs in ``[low, high]``."""
    if not (0 < low <= high):
        raise ValueError("need 0 < low <= high")
    return as_rng(rng).uniform(low, high, size=g.m)


def lognormal_costs(g: Graph, sigma: float = 1.0, rng=None) -> np.ndarray:
    """Heavy-tailed log-normal costs (median 1)."""
    return np.exp(as_rng(rng).normal(0.0, sigma, size=g.m))


def fluctuation_costs(g: Graph, phi: float, rng=None) -> np.ndarray:
    """Costs with *exact* fluctuation ``max/min = phi``.

    Costs are ``exp(U[0, ln φ])`` then the extremes are pinned so the
    realized fluctuation equals ``phi`` (needed for clean E4/E11 sweeps).
    """
    if phi < 1:
        raise ValueError("fluctuation must be >= 1")
    gen = as_rng(rng)
    if g.m == 0:
        return np.zeros(0, dtype=np.float64)
    c = np.exp(gen.uniform(0.0, np.log(phi) if phi > 1 else 0.0, size=g.m))
    if g.m >= 2 and phi > 1:
        c[int(gen.integers(g.m))] = 1.0
        idx = int(gen.integers(g.m - 1))
        c[idx if c[idx] != 1.0 or idx != 0 else g.m - 1] = phi
        c[np.argmin(c)] = 1.0
        c[np.argmax(c)] = phi
    return c


def axis_costs(g: Graph, axis_scale: np.ndarray | list[float]) -> np.ndarray:
    """Per-axis cost multipliers for grid graphs (anisotropic coupling).

    Models e.g. climate grids where east-west coupling is stronger than
    north-south.  Requires coordinates.
    """
    if g.coords is None:
        raise ValueError("axis_costs requires a grid graph with coordinates")
    scale = np.asarray(axis_scale, dtype=np.float64)
    d = g.coords.shape[1]
    if scale.size != d:
        raise ValueError(f"need one scale per axis ({d})")
    diffs = np.abs(g.coords[g.edges[:, 0]] - g.coords[g.edges[:, 1]])
    axis = np.argmax(diffs, axis=1) if g.m else np.zeros(0, dtype=np.int64)
    return scale[axis]


def fluctuation(costs: np.ndarray) -> float:
    """``φ = ‖c‖∞ · ‖1/c‖∞`` — global cost fluctuation (§6)."""
    c = np.asarray(costs, dtype=np.float64)
    if c.size == 0:
        return 1.0
    lo = float(np.min(c))
    if lo <= 0:
        raise ValueError("fluctuation undefined for non-positive costs")
    return float(np.max(c)) / lo


def local_fluctuation(g: Graph, costs: np.ndarray | None = None) -> float:
    """``φ_ℓ(c) = max_{u ∈ e} τ(u)/c(e)`` — A.3's local fluctuation.

    Bounded φ_ℓ plus bounded degree is the paper's "well-behaved" premise;
    for unit costs φ_ℓ equals the maximum degree.
    """
    c = g.costs if costs is None else np.asarray(costs, dtype=np.float64)
    if g.m == 0:
        return 0.0
    gg = g if costs is None else g.with_costs(c)
    tau = gg.cost_degree()
    u, v = g.edges[:, 0], g.edges[:, 1]
    with np.errstate(divide="ignore"):
        ratios = np.maximum(tau[u], tau[v]) / c
    return float(np.max(ratios))
