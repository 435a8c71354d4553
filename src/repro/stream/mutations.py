"""Mutation log and mutable graph state for the streaming subsystem.

:class:`Graph` is deliberately immutable (the hot paths are CSR-vectorized),
so the streaming layer keeps its own mutable source of truth — a
:class:`GraphState` holding the live edge set, edge costs, and vertex
weights — and materializes an immutable :class:`Graph` per *version*.

The vertex set is dynamic: besides edge insert/delete and cost/weight
updates, ``add_vertex`` / ``remove_vertex`` mutations grow and shrink the
*live* index space (remeshing and node arrival/departure, the workload the
paper's min-max decompositions are built for).  Removal is a soft delete —
the slot stays in the index space with an ``alive`` bit cleared, weight
zeroed, and every incident edge detached — so vertex ids in the journal
stay stable and a removed id can be revived by a later ``add_vertex``.
``add_vertex`` of a brand-new id must use the next free index (``n``),
keeping materialization deterministic across replicas.

Every applied batch bumps an integer ``version``; :meth:`GraphState.graph`
is maintained *incrementally* (a CSR patch against the last materialized
graph when the structural delta is small, a full rebuild otherwise — both
byte-identical).  :meth:`GraphState.structural_hash` is a content hash of
the full live state (edges, costs, weights, and — only when some vertex is
dead — the alive mask), so two replicas that applied the same mutation log
agree on the hash byte-for-byte — the versioning primitive the service's
snapshot byte-identity contract is built on.  States with every vertex
alive hash exactly as they did before the vertex set became dynamic, so
pre-growth journals and baselines stay valid.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..graphs.graph import Graph
from ..graphs.incremental import patch_graph

__all__ = [
    "Mutation",
    "MutationError",
    "UnknownMutationError",
    "GraphState",
    "DirtyRegion",
    "replay",
]

#: mutation kinds and their wire arity (excluding the kind tag)
_KINDS = {
    "add": 3,
    "remove": 2,
    "cost": 3,
    "weight": 2,
    "add_vertex": 2,
    "remove_vertex": 1,
}

#: kinds whose payload is a single vertex in ``u`` (no u < v canonicalization)
_VERTEX_KINDS = frozenset({"weight", "add_vertex", "remove_vertex"})

#: threshold below which materialization patches the previous CSR in place
#: of a full rebuild (structural churn per batch is tiny next to m)
_PATCH_FRACTION = 4


class MutationError(ValueError):
    """An inconsistent mutation (duplicate edge, missing edge, bad value)."""


class UnknownMutationError(MutationError):
    """A mutation kind this build does not understand.

    Raised during wire decode, so a journal written by a *newer* build and
    replayed by an older host (a mid-upgrade ring handoff) fails closed with
    a typed error the service layer maps to ``session lost: unknown
    mutation`` — instead of a bare ``KeyError`` that would be reported as an
    internal fault and retried.
    """


@dataclass(frozen=True)
class Mutation:
    """One atomic change to the live state.

    ``kind`` is one of ``add`` (u, v, cost), ``remove`` (u, v), ``cost``
    (u, v, new cost), ``weight`` (v, new weight), ``add_vertex`` (v, weight)
    or ``remove_vertex`` (v).  Edge endpoints are stored canonically
    (``u < v``); single-vertex kinds put the vertex in ``u``.
    """

    kind: str
    u: int
    v: int = -1
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UnknownMutationError(f"unknown mutation kind {self.kind!r}")
        if self.kind not in _VERTEX_KINDS:
            if self.u == self.v:
                raise MutationError("self-loops are not allowed")
            if self.u > self.v:
                lo, hi = self.v, self.u
                object.__setattr__(self, "u", lo)
                object.__setattr__(self, "v", hi)

    @classmethod
    def add(cls, u: int, v: int, cost: float = 1.0) -> "Mutation":
        return cls("add", min(u, v), max(u, v), float(cost))

    @classmethod
    def remove(cls, u: int, v: int) -> "Mutation":
        return cls("remove", min(u, v), max(u, v))

    @classmethod
    def set_cost(cls, u: int, v: int, cost: float) -> "Mutation":
        return cls("cost", min(u, v), max(u, v), float(cost))

    @classmethod
    def set_weight(cls, v: int, weight: float) -> "Mutation":
        return cls("weight", int(v), -1, float(weight))

    @classmethod
    def add_vertex(cls, v: int, weight: float = 1.0) -> "Mutation":
        return cls("add_vertex", int(v), -1, float(weight))

    @classmethod
    def remove_vertex(cls, v: int) -> "Mutation":
        return cls("remove_vertex", int(v))

    # wire form: compact JSON-ready lists, ["add", u, v, c] / ["weight", v, w]
    # / ["add_vertex", v, w] / ["remove_vertex", v]
    def to_wire(self) -> list:
        if self.kind == "remove":
            return [self.kind, self.u, self.v]
        if self.kind in ("weight", "add_vertex"):
            return [self.kind, self.u, self.value]
        if self.kind == "remove_vertex":
            return [self.kind, self.u]
        return [self.kind, self.u, self.v, self.value]

    @classmethod
    def from_wire(cls, item) -> "Mutation":
        if not isinstance(item, (list, tuple)) or not item:
            raise MutationError(f"mutation must be a non-empty list, got {item!r}")
        kind = item[0]
        if kind not in _KINDS:
            raise UnknownMutationError(f"unknown mutation kind {kind!r}")
        args = item[1:]
        if len(args) != _KINDS[kind]:
            raise MutationError(f"{kind} mutation takes {_KINDS[kind]} args, got {len(args)}")
        try:
            if kind == "add":
                return cls.add(int(args[0]), int(args[1]), float(args[2]))
            if kind == "remove":
                return cls.remove(int(args[0]), int(args[1]))
            if kind == "cost":
                return cls.set_cost(int(args[0]), int(args[1]), float(args[2]))
            if kind == "add_vertex":
                return cls.add_vertex(int(args[0]), float(args[1]))
            if kind == "remove_vertex":
                return cls.remove_vertex(int(args[0]))
            return cls.set_weight(int(args[0]), float(args[1]))
        except (TypeError, ValueError) as exc:
            if isinstance(exc, MutationError):
                raise
            raise MutationError(f"bad {kind} mutation {item!r}: {exc}") from exc


def _no_vertices() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class DirtyRegion:
    """What one applied batch touched — the seed set for local repair."""

    vertices: np.ndarray  #: endpoints of changed edges + reweighted vertices
    added: np.ndarray = field(default_factory=_no_vertices)  #: vertices that came alive
    removed: np.ndarray = field(default_factory=_no_vertices)  #: vertices that went dead


class GraphState:
    """Mutable (edges, costs, weights) over a dynamic vertex set, versioned.

    The live edge set is a dict ``(u, v) -> cost`` with ``u < v``; ``alive``
    is a boolean mask over the index space ``0..n-1`` (removed slots stay
    indexed but dead).  :meth:`graph` materializes an immutable
    :class:`Graph` over the full index space (cached per version, edges in
    sorted key order, maintained incrementally against the previous
    materialization when the structural delta is small).
    """

    def __init__(self, n: int, edges: dict, weights: np.ndarray, coords=None):
        self.n = int(n)
        self._edges = dict(edges)
        self.weights = np.asarray(weights, dtype=np.float64).copy()
        if self.weights.size != self.n:
            raise ValueError("weights must have one entry per vertex")
        self.alive = np.ones(self.n, dtype=bool)
        self.coords = coords
        self.version = 0
        self._graph: Graph | None = None
        # incremental materialization: the last materialized graph plus the
        # first-touch pre-image of every edge key changed since (None =
        # absent), so graph() can patch the CSR instead of rebuilding
        self._base_graph: Graph | None = None
        self._delta: dict[tuple[int, int], float | None] = {}

    @classmethod
    def from_graph(cls, g: Graph, weights) -> "GraphState":
        edges = {
            (int(u), int(v)): float(c)
            for (u, v), c in zip(g.edges.tolist(), g.costs.tolist())
        }
        return cls(g.n, edges, weights, coords=g.coords)

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        return len(self._edges)

    @property
    def n_alive(self) -> int:
        """Number of live vertices (``n`` minus soft-deleted slots)."""
        return int(np.count_nonzero(self.alive))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._edges

    def edge_items(self) -> list[tuple[tuple[int, int], float]]:
        """Live edges in canonical (sorted-key) order."""
        return sorted(self._edges.items())

    def graph(self) -> Graph:
        """The current state as an immutable graph (cached per version)."""
        if self._graph is None:
            g = self._materialize()
            self._graph = g
            self._base_graph = g
            self._delta = {}
        return self._graph

    def _materialize(self) -> Graph:
        base = self._base_graph
        if base is not None:
            removed, added, updated = [], [], []
            for key, old in self._delta.items():
                new = self._edges.get(key)
                if old is None:
                    if new is not None:
                        added.append((key, new))
                elif new is None:
                    removed.append(key)
                elif new != old:
                    updated.append((key, new))
            if len(removed) + len(added) <= max(32, base.m // _PATCH_FRACTION):
                return patch_graph(base, self.n, removed, added, updated)
        items = self.edge_items()
        if items:
            edges = np.array([k for k, _ in items], dtype=np.int64)
            costs = np.array([c for _, c in items], dtype=np.float64)
        else:
            edges = np.zeros((0, 2), dtype=np.int64)
            costs = np.zeros(0, dtype=np.float64)
        return Graph(self.n, edges, costs, coords=self.coords, _validate=False)

    def structural_hash(self) -> str:
        """Content hash of the live state (edges + costs + weights + alive).

        Two replicas that applied the same mutation log to the same base
        agree on this hash exactly — it is the snapshot version identifier
        the service's cross-shard byte-identity check compares.  The alive
        mask is hashed only when some vertex is dead, so fixed-vertex-set
        states (every journal and baseline written before growth existed)
        keep their historical hashes.
        """
        h = hashlib.sha256()
        g = self.graph()
        h.update(np.int64(self.n).tobytes())
        h.update(g.edges.tobytes())
        h.update(g.costs.tobytes())
        h.update(self.weights.tobytes())
        if not bool(self.alive.all()):
            h.update(self.alive.tobytes())
        return h.hexdigest()[:16]

    # ------------------------------------------------------------------
    def _record_delta(self, key: tuple[int, int]) -> None:
        # first-touch pre-image since the last materialization; without a
        # base graph there is nothing to patch against
        if self._base_graph is not None and key not in self._delta:
            self._delta[key] = self._edges.get(key)

    def apply(self, mutations) -> DirtyRegion:
        """Apply one batch atomically; returns the dirty region.

        The whole batch is validated against the live state *before* any
        change lands, so a bad mutation mid-batch cannot leave the state
        half-applied (the service surfaces it as one failed request).
        """
        batch = [m if isinstance(m, Mutation) else Mutation.from_wire(m) for m in mutations]
        # edges_after / alive_over / n_after track the staged state so
        # intra-batch conflicts (add-then-add, an edge on a vertex removed
        # two entries earlier) are validated against the state each
        # mutation will actually see
        edges_after = None
        alive_over: dict[int, bool] = {}
        n_after = self.n

        def staged_alive(v: int) -> bool:
            if v in alive_over:
                return alive_over[v]
            return 0 <= v < self.n and bool(self.alive[v])

        def check_endpoint(v: int) -> None:
            if not (0 <= v < n_after):
                raise MutationError(f"vertex {v} out of range [0, {n_after})")
            if not staged_alive(v):
                raise MutationError(f"vertex {v} is not alive")

        for mut in batch:
            if mut.kind == "add_vertex":
                if mut.value < 0:
                    raise MutationError("vertex weights must be non-negative")
                if mut.u == n_after:
                    alive_over[mut.u] = True
                    n_after += 1
                elif 0 <= mut.u < n_after and not staged_alive(mut.u):
                    alive_over[mut.u] = True
                else:
                    raise MutationError(
                        f"add_vertex {mut.u}: must be the next index {n_after}"
                        " or a removed vertex"
                    )
                continue
            if mut.kind == "remove_vertex":
                check_endpoint(mut.u)
                alive_over[mut.u] = False
                if edges_after is None:
                    edges_after = set(self._edges)
                edges_after -= {k for k in edges_after if mut.u in k}
                continue
            check_endpoint(mut.u)
            if mut.kind != "weight":
                check_endpoint(mut.v)
            key = (mut.u, mut.v)
            if mut.kind == "add":
                if edges_after is None:
                    edges_after = set(self._edges)
                if key in edges_after:
                    raise MutationError(f"edge {key} already exists")
                if mut.value < 0:
                    raise MutationError("edge costs must be non-negative")
                edges_after.add(key)
            elif mut.kind in ("remove", "cost"):
                if edges_after is None:
                    edges_after = set(self._edges)
                if key not in edges_after:
                    raise MutationError(f"edge {key} does not exist")
                if mut.kind == "remove":
                    edges_after.discard(key)
                elif mut.value < 0:
                    raise MutationError("edge costs must be non-negative")
            elif mut.value < 0:
                raise MutationError("vertex weights must be non-negative")
        dirty: set[int] = set()
        added_v: list[int] = []
        removed_v: list[int] = []
        # an edge inserted, deleted or re-costed, or a new index slot, makes
        # the materialized graph stale (weights and liveness live outside it)
        stale = False
        for mut in batch:
            if mut.kind == "add":
                self._record_delta((mut.u, mut.v))
                self._edges[(mut.u, mut.v)] = mut.value
                stale = True
                dirty.update((mut.u, mut.v))
            elif mut.kind == "remove":
                self._record_delta((mut.u, mut.v))
                del self._edges[(mut.u, mut.v)]
                stale = True
                dirty.update((mut.u, mut.v))
            elif mut.kind == "cost":
                self._record_delta((mut.u, mut.v))
                self._edges[(mut.u, mut.v)] = mut.value
                stale = True
                dirty.update((mut.u, mut.v))
            elif mut.kind == "add_vertex":
                if mut.u == self.n:
                    self.n += 1
                    self.weights = np.append(self.weights, mut.value)
                    self.alive = np.append(self.alive, True)
                    # coordinates annotate the original index space only
                    self.coords = None
                    stale = True
                else:
                    self.alive[mut.u] = True
                    self.weights[mut.u] = mut.value
                added_v.append(mut.u)
                dirty.add(mut.u)
            elif mut.kind == "remove_vertex":
                for key in [k for k in self._edges if mut.u in k]:
                    self._record_delta(key)
                    del self._edges[key]
                    stale = True
                    dirty.update(key)
                self.alive[mut.u] = False
                self.weights[mut.u] = 0.0
                removed_v.append(mut.u)
                dirty.add(mut.u)
            else:
                self.weights[mut.u] = mut.value
                dirty.add(mut.u)
        if batch:
            self.version += 1
            if stale:
                self._graph = None
        return DirtyRegion(
            vertices=np.array(sorted(dirty), dtype=np.int64),
            added=np.array(added_v, dtype=np.int64),
            removed=np.array(removed_v, dtype=np.int64),
        )

    def copy(self) -> "GraphState":
        out = GraphState(self.n, self._edges, self.weights, coords=self.coords)
        out.alive = self.alive.copy()
        out.version = self.version
        # materialized graphs are immutable, so the cache and the patch
        # base can be shared; the delta dict is copied (it is per-state)
        out._graph = self._graph
        out._base_graph = self._base_graph
        out._delta = dict(self._delta)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphState(n={self.n}, m={self.m}, version={self.version})"


def replay(base: GraphState, batches) -> GraphState:
    """Pure mutation-log replay: apply ``batches`` to a copy of ``base``.

    ``batches`` is an iterable of explicit mutation batches, each a list of
    :class:`Mutation` objects or wire-form lists (the ``mutations`` shape of
    a mutate request).  The result is a fresh :class:`GraphState` whose
    ``version`` and :meth:`~GraphState.structural_hash` match a state that
    applied the same batches live, at every prefix — the determinism that
    makes crash recovery by replay sound (the min-max boundary cost of the
    rebuilt state is a pure function of the mutation sequence).  A batch
    whose kind this build does not know raises
    :class:`UnknownMutationError` (never a bare ``KeyError``), so an older
    host replaying a newer journal fails closed.  ``base`` is never
    touched.  Session-level journal logs, whose op entries may also be
    trace-driven (``{"steps": n}``), are replayed one level up by
    :func:`~repro.stream.session.replay_session`, which re-derives the
    trace from the scenario; this function is the state-layer primitive
    under it.
    """
    state = base.copy()
    for batch in batches:
        state.apply(batch)
    return state
