"""Connectivity helpers: components, BFS orders, pseudo-peripheral vertices.

The traversals run in the repo's runtime-compiled native module
(:mod:`repro.core._bucketc`: a FIFO BFS over the CSR arrays, loaded lazily on
the first call).  Each output is pinned exactly, so the native and numpy
paths are interchangeable byte for byte:

* :func:`bfs_levels` — exact hop distances from a source set, ``-1`` when
  unreachable;
* :func:`bfs_order` — each component's vertices sorted by ``(level, id)``;
* :func:`connected_components` — component ids numbered by lowest vertex id.

Sources are validated here (int64, contiguous, ``0 ≤ s < n``) before any
address reaches native code.  The level-synchronous numpy frontier loop
(``_*_numpy`` below) is the fallback for hosts without a C compiler or with
``REPRO_BUCKET_C=0``, and the reference the differential tests hold the
native path to (``tests/test_components.py``).
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = [
    "connected_components",
    "bfs_levels",
    "bfs_order",
    "pseudo_peripheral_vertex",
    "is_connected",
    "is_connected_within",
]

#: lazily-loaded native module (``None`` = unavailable, use numpy)
_NATIVE_UNSET = object()
_native = _NATIVE_UNSET


def _native_lib():
    global _native
    if _native is _NATIVE_UNSET:
        from ..core._bucketc import load_bucket_loop

        _native = load_bucket_loop()
    return _native


def _check_sources(n: int, sources) -> np.ndarray:
    """Sources as a contiguous int64 array inside ``[0, n)`` — or raise."""
    src = np.ascontiguousarray(np.asarray(sources, dtype=np.int64).ravel())
    if src.size and (int(src.min()) < 0 or int(src.max()) >= n):
        raise IndexError(f"BFS source out of range for a graph with {n} vertices")
    return src


def _checked(status: int) -> None:
    if status < 0:
        raise MemoryError("BFS: native scratch allocation failed")


def bfs_levels(g: Graph, sources) -> np.ndarray:
    """BFS distance from the source set; ``-1`` for unreachable vertices."""
    src = _check_sources(g.n, sources)
    lib = _native_lib()
    if lib is None:
        return _bfs_levels_numpy(g, src)
    level = np.empty(g.n, dtype=np.int64)
    _checked(lib.bfs_levels(g.n, g.indptr.ctypes.data, g.nbr.ctypes.data,
                            src.ctypes.data, src.size, level.ctypes.data))
    return level


def bfs_order(g: Graph, source: int) -> np.ndarray:
    """Vertices in BFS order from ``source``; unreachable vertices appended
    component by component (each started from its lowest-id vertex).
    Within a component, vertices are sorted by ``(level, id)``."""
    (s,) = _check_sources(g.n, [source])
    lib = _native_lib()
    if lib is None:
        return _bfs_order_numpy(g, int(s))
    order = np.empty(g.n, dtype=np.int64)
    _checked(lib.bfs_order(g.n, g.indptr.ctypes.data, g.nbr.ctypes.data,
                           int(s), order.ctypes.data))
    return order


def connected_components(g: Graph) -> np.ndarray:
    """Component id per vertex (0-based, numbered by lowest vertex id)."""
    lib = _native_lib()
    if lib is None:
        return _components_numpy(g)
    comp = np.empty(g.n, dtype=np.int64)
    _checked(lib.components(g.n, g.indptr.ctypes.data, g.nbr.ctypes.data,
                            comp.ctypes.data))
    return comp


def is_connected(g: Graph) -> bool:
    """True when the graph has at most one connected component."""
    if g.n <= 1:
        return True
    return bool(np.all(bfs_levels(g, [0]) >= 0))


def is_connected_within(g: Graph, members) -> bool:
    """Connectivity of the subgraph induced by a boolean member mask.

    The streaming layer soft-deletes vertices (dead slots stay in the index
    space with no incident edges), so whole-graph :func:`is_connected` is
    always false once anything was removed; this checks the live vertex set
    only, without materializing the induced subgraph.  Edges leaving the
    member set are assumed absent (the :class:`GraphState` invariant).
    """
    members = np.asarray(members, dtype=bool)
    live = np.flatnonzero(members)
    if live.size <= 1:
        return True
    return bool(np.all(bfs_levels(g, live[:1])[live] >= 0))


def pseudo_peripheral_vertex(g: Graph, start: int = 0, sweeps: int = 2) -> int:
    """A vertex of (near-)maximal eccentricity via repeated BFS sweeps.

    The classic double-sweep heuristic; used to seed BFS orders so the
    resulting prefix splitting sets behave like layered separators.
    """
    if g.n == 0:
        return 0
    v = int(start)
    for _ in range(max(1, sweeps)):
        lev = bfs_levels(g, [v])
        reach = lev >= 0
        far = int(np.argmax(np.where(reach, lev, -1)))
        if far == v:
            break
        v = far
    return v


# ----------------------------------------------------------------------
# numpy reference: level-synchronous frontier expansion over the CSR
# ----------------------------------------------------------------------
def _bfs_levels_numpy(g: Graph, sources: np.ndarray) -> np.ndarray:
    level = np.full(g.n, -1, dtype=np.int64)
    frontier = sources
    if frontier.size == 0:
        return level
    level[frontier] = 0
    depth = 0
    while frontier.size:
        depth += 1
        # gather all CSR neighbor ranges of the frontier
        starts = g.indptr[frontier]
        stops = g.indptr[frontier + 1]
        counts = stops - starts
        total = int(counts.sum())
        if total == 0:
            break
        take = np.repeat(starts, counts) + _ragged_arange(counts)
        nxt = g.nbr[take]
        nxt = nxt[level[nxt] < 0]
        if nxt.size == 0:
            break
        nxt = np.unique(nxt)
        level[nxt] = depth
        frontier = nxt
    return level


def _bfs_order_numpy(g: Graph, source: int) -> np.ndarray:
    order = []
    visited = np.zeros(g.n, dtype=bool)
    pending = [int(source)] + [v for v in range(g.n)]
    for s in pending:
        if visited[s]:
            continue
        lev = _bfs_component(g, s, visited)
        order.append(lev)
    return np.concatenate(order) if order else np.zeros(0, dtype=np.int64)


def _bfs_component(g: Graph, source: int, visited: np.ndarray) -> np.ndarray:
    """BFS order of one component, marking ``visited`` in place."""
    out = [np.asarray([source], dtype=np.int64)]
    visited[source] = True
    frontier = out[0]
    while frontier.size:
        starts = g.indptr[frontier]
        counts = g.indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        take = np.repeat(starts, counts) + _ragged_arange(counts)
        nxt = g.nbr[take]
        nxt = nxt[~visited[nxt]]
        if nxt.size == 0:
            break
        nxt = np.unique(nxt)
        visited[nxt] = True
        out.append(nxt)
        frontier = nxt
    return np.concatenate(out)


def _components_numpy(g: Graph) -> np.ndarray:
    comp = np.full(g.n, -1, dtype=np.int64)
    visited = np.zeros(g.n, dtype=bool)
    cid = 0
    for v in range(g.n):
        if visited[v]:
            continue
        members = _bfs_component(g, v, visited)
        comp[members] = cid
        cid += 1
    return comp


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(c)`` for each ``c`` in ``counts``."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(counts)
    out = np.arange(total, dtype=np.int64)
    out -= np.repeat(ends - counts, counts)
    return out
