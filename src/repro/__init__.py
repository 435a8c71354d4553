"""repro — Min-max boundary decomposition of weighted graphs.

A from-scratch reproduction of D. Steurer, *Tight Bounds on the Min-Max
Boundary Decomposition Cost of Weighted Graphs* (SPAA 2006, arXiv cs/0606001).

Quickstart::

    import repro
    g = repro.grid_graph(32, 32)
    result = repro.min_max_partition(g, k=8)
    assert result.is_strictly_balanced()
    print(result.max_boundary(g))

The headline entry point :func:`min_max_partition` computes a strictly
weight-balanced ``k``-coloring with provably small maximum boundary cost
(Theorem 4), on top of pluggable splitting-set oracles including the §6
``GridSplit`` separator for d-dimensional grids with arbitrary edge costs.
"""

from .graphs import (
    Graph,
    disjoint_union,
    grid_graph,
    path_graph,
    triangulated_mesh,
)
from .core import (
    Coloring,
    DecompositionParams,
    DecompositionResult,
    min_max_partition,
    theorem4_bound,
)
from .separators import (
    REGISTRY,
    BestOfOracle,
    BfsOracle,
    GridOracle,
    SpectralOracle,
    grid_split,
    make_oracle,
)

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "grid_graph",
    "path_graph",
    "triangulated_mesh",
    "disjoint_union",
    "Coloring",
    "DecompositionParams",
    "DecompositionResult",
    "min_max_partition",
    "theorem4_bound",
    "BestOfOracle",
    "BfsOracle",
    "SpectralOracle",
    "GridOracle",
    "REGISTRY",
    "make_oracle",
    "grid_split",
    "__version__",
]
