"""Concrete splitting oracles and the string-keyed oracle registry.

All oracles honor Definition 3's weight window *unconditionally*; they differ
in cut quality and cost model:

================  ====================================================
``IndexOracle``   id-order prefix — the "any order works" control
``LexOracle``     lexicographic/grid order prefix (monotone on grids)
``BfsOracle``     BFS-layer sweep from a pseudo-peripheral vertex
``SpectralOracle``Fiedler-order sweep cut (default general-purpose)
``BestOfOracle``  min-cut over a portfolio of oracles
``GridOracle``    §6 ``GridSplit`` (see :mod:`repro.separators.grid`)
================  ====================================================

Construction is unified behind :data:`REGISTRY` / :func:`make_oracle` — the
same names the sweep grid's ``oracle=`` param accepts.  Every oracle carries
a stable ``name`` (the registry-style key, recorded in result records) and a
constructor-shaped ``__repr__``.

Every oracle is a plain ``split(g, weights, target)``; callers go through
:func:`repro.separators.solve.oracle_split`, which opens the ``oracle.split``
span.  The spectral oracle's eigensolves consult the process-local solve
cache on their own (:func:`repro.separators.orders.fiedler_vector`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..graphs.graph import Graph
from .orders import (
    bfs_peripheral_order,
    fiedler_order,
    index_order,
    lexicographic_order,
    prefix_split,
    random_order,
    sweep_split,
)
from .solve import oracle_split

__all__ = [
    "IndexOracle",
    "LexOracle",
    "BfsOracle",
    "SpectralOracle",
    "RandomOracle",
    "BestOfOracle",
    "REGISTRY",
    "make_oracle",
]


class _OrderOracle:
    """Base for oracles that split a fixed vertex order."""

    #: whether to sweep for the cheapest in-window prefix (vs nearest prefix)
    sweep: bool = True
    #: stable registry-style identifier, overridden per subclass
    name: str = "order"

    def order(self, g: Graph) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def split(self, g: Graph, weights: np.ndarray, target: float) -> np.ndarray:
        order = self.order(g)
        if self.sweep and g.m:
            return sweep_split(g, order, weights, target)
        return prefix_split(order, weights, target)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class IndexOracle(_OrderOracle):
    """Prefix of the identity order (no structure exploited)."""

    sweep = False
    name = "index"

    def order(self, g: Graph) -> np.ndarray:
        return index_order(g)


class LexOracle(_OrderOracle):
    """Prefix of the coordinate-lexicographic order.

    On grid graphs prefixes are monotone sets (Lemma 22); this is the ℓ = 1
    base case of ``GridSplit``.
    """

    name = "lex"

    def order(self, g: Graph) -> np.ndarray:
        return lexicographic_order(g)


class BfsOracle(_OrderOracle):
    """Sweep over the BFS order from a pseudo-peripheral vertex."""

    name = "bfs"

    def order(self, g: Graph) -> np.ndarray:
        return bfs_peripheral_order(g)


class SpectralOracle(_OrderOracle):
    """Sweep cut over the Fiedler order of the cost-weighted Laplacian.

    The only oracle that solves an eigenproblem; its solves are memoized in
    the process-local solve cache.
    """

    name = "spectral"

    def order(self, g: Graph) -> np.ndarray:
        return fiedler_order(g)


class RandomOracle(_OrderOracle):
    """Prefix of a seeded random order — the quality floor."""

    sweep = False
    name = "random"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def order(self, g: Graph) -> np.ndarray:
        return random_order(g, rng=self.seed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomOracle(seed={self.seed})"


class BestOfOracle:
    """Run a portfolio of oracles, keep the cheapest valid cut."""

    def __init__(self, oracles: Sequence | None = None):
        self.oracles = list(oracles) if oracles is not None else [BfsOracle(), SpectralOracle(), LexOracle()]

    @property
    def name(self) -> str:
        return "best(" + ",".join(o.name for o in self.oracles) + ")"

    def split(self, g: Graph, weights: np.ndarray, target: float) -> np.ndarray:
        best = None
        best_cost = np.inf
        for oracle in self.oracles:
            u = oracle_split(oracle, g, weights, target)
            cost = g.boundary_cost(u)
            if cost < best_cost:
                best, best_cost = u, cost
        assert best is not None
        return best

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BestOfOracle({self.oracles!r})"


# ----------------------------------------------------------------------
# registry — the one place oracle names resolve to instances
# ----------------------------------------------------------------------
def _grid_oracle():
    from .grid import GridOracle  # lazy: grid imports from this package

    return GridOracle()


def _default_portfolio(seed: int = 0, g: Graph | None = None):
    oracles = [BfsOracle(), SpectralOracle()]
    if g is not None and g.coords is not None:
        oracles.append(_grid_oracle())
        oracles.append(LexOracle())
    return BestOfOracle(oracles)


#: ``name -> builder(seed=..., g=...)``; the sweep grid's ``oracle=`` param
#: and :func:`make_oracle` resolve here
REGISTRY = {
    "best": lambda seed=0, g=None: BestOfOracle([BfsOracle(), SpectralOracle()]),
    "best3": lambda seed=0, g=None: BestOfOracle([BfsOracle(), SpectralOracle(), _grid_oracle()]),
    "bfs": lambda seed=0, g=None: BfsOracle(),
    "spectral": lambda seed=0, g=None: SpectralOracle(),
    "lex": lambda seed=0, g=None: LexOracle(),
    "index": lambda seed=0, g=None: IndexOracle(),
    "grid": lambda seed=0, g=None: _grid_oracle(),
    "random": lambda seed=0, g=None: RandomOracle(seed=seed),
    "default": _default_portfolio,
}


def make_oracle(name: str, seed: int = 0, g: Graph | None = None):
    """Build an oracle from its registry name.

    ``seed`` feeds seeded oracles (``random``); ``g`` lets instance-aware
    builders (``default``) adapt — grids get ``GridSplit`` in the mix.
    """
    try:
        builder = REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown oracle {name!r}; known: {', '.join(sorted(REGISTRY))}") from None
    return builder(seed=seed, g=g)
