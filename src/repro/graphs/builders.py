"""Constructors and converters for :class:`~repro.graphs.graph.Graph`."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .graph import Graph

__all__ = [
    "from_edges",
    "disjoint_union",
    "relabel",
]


def from_edges(n: int, edges: Iterable[tuple[int, int]], costs=None, coords=None) -> Graph:
    """Build a graph from an iterable of ``(u, v)`` pairs."""
    edge_arr = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    return Graph(n, edge_arr, costs, coords=coords)


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Disjoint union ``G⁽¹⁾ ∪̇ … ∪̇ G⁽ᵗ⁾`` (Theorem 5's copy construction).

    Vertex ids are offset blockwise; coordinates are kept only when every
    part has coordinates of the same dimension (offset along axis 0 so the
    union is again a valid grid when the parts are grids).
    """
    if not graphs:
        return Graph(0, np.zeros((0, 2), dtype=np.int64))
    n = 0
    edges = []
    costs = []
    keep_coords = all(g.coords is not None for g in graphs) and len(
        {g.coords.shape[1] for g in graphs if g.coords is not None}
    ) == 1
    coords = [] if keep_coords else None
    axis0_offset = 0
    for g in graphs:
        if g.m:
            edges.append(g.edges + n)
            costs.append(g.costs)
        if keep_coords:
            shifted = g.coords.copy()
            if g.n:
                shifted[:, 0] += axis0_offset - int(g.coords[:, 0].min())
                axis0_offset += int(g.coords[:, 0].max() - g.coords[:, 0].min()) + 2
            coords.append(shifted)
        n += g.n
    edge_arr = np.vstack(edges) if edges else np.zeros((0, 2), dtype=np.int64)
    cost_arr = np.concatenate(costs) if costs else np.zeros(0, dtype=np.float64)
    coord_arr = np.vstack(coords) if keep_coords and coords else None
    return Graph(n, edge_arr, cost_arr, coords=coord_arr, _validate=False)


def relabel(g: Graph, perm: np.ndarray) -> Graph:
    """Relabel vertices by permutation ``perm`` (old id -> new id)."""
    perm = np.asarray(perm, dtype=np.int64)
    if perm.size != g.n or np.unique(perm).size != g.n:
        raise ValueError("perm must be a permutation of 0..n-1")
    new_edges = perm[g.edges] if g.m else g.edges
    coords = None
    if g.coords is not None:
        coords = np.empty_like(g.coords)
        coords[perm] = g.coords
    return Graph(g.n, new_edges, g.costs.copy(), coords=coords)
