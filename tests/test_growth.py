"""Differential tests for dynamic vertex sets (growth/remeshing mutations).

The contract under test: a :class:`GraphState` grown through any sequence of
``add_vertex`` / ``remove_vertex`` / edge mutations is *structurally
identical* — same structural hash, same CSR arrays, same weights — to a
:class:`Graph` built from scratch from the final edge set over the final
index space.  Property-tested over seeded random mutation programs, plus
directed cases for the incremental CSR patcher and the repair-path seeding
of arrived vertices.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.graphs import grid_graph, zipf_weights
from repro.graphs.components import is_connected, is_connected_within
from repro.graphs.graph import Graph
from repro.graphs.incremental import patch_graph
from repro.stream import (
    GraphState,
    Mutation,
    MutationError,
    StreamSession,
    UnknownMutationError,
    cheap_lower_bound,
    replay,
    seed_new_vertices,
)
from repro.stream.traces import make_trace
from repro.runtime import Scenario, build_instance


def small_state(side: int = 6) -> GraphState:
    g = grid_graph(side, side)
    return GraphState.from_graph(g, zipf_weights(g, rng=0))


def from_scratch(state: GraphState) -> Graph:
    """An independent Graph over the state's final edge set + index space."""
    items = state.edge_items()
    if items:
        edges = np.array([k for k, _ in items], dtype=np.int64)
        costs = np.array([c for _, c in items], dtype=np.float64)
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
        costs = np.zeros(0, dtype=np.float64)
    return Graph(state.n, edges, costs)


def assert_csr_identical(got: Graph, want: Graph) -> None:
    assert got.n == want.n
    np.testing.assert_array_equal(got.edges, want.edges)
    np.testing.assert_array_equal(got.costs, want.costs)
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.nbr, want.nbr)
    np.testing.assert_array_equal(got.arc_costs, want.arc_costs)
    np.testing.assert_array_equal(got.eid, want.eid)


def random_program(rng: np.random.Generator, state: GraphState, batches: int,
                   ops: int) -> list[list[Mutation]]:
    """A seeded hostile mutation program mixing every kind.

    Deliberately includes remove-then-re-add of the same vertex id, zero-cost
    edges, weight updates of revived slots, and growth past the initial
    index space.
    """
    program = []
    for _ in range(batches):
        batch = []
        for _ in range(ops):
            kinds = ["add", "remove", "cost", "weight", "add_vertex", "remove_vertex"]
            kind = kinds[int(rng.integers(len(kinds)))]
            live = np.flatnonzero(state.alive)
            if kind == "add_vertex":
                dead = np.flatnonzero(~state.alive)
                if dead.size and rng.random() < 0.5:
                    vid = int(dead[int(rng.integers(dead.size))])  # revive
                else:
                    vid = state.n  # append
                batch.append(Mutation.add_vertex(vid, float(rng.uniform(0.5, 2.0))))
                state.apply([batch[-1]])
                continue
            if kind == "remove_vertex" and live.size > 4:
                vid = int(live[int(rng.integers(live.size))])
                batch.append(Mutation.remove_vertex(vid))
                state.apply([batch[-1]])
                continue
            if kind == "weight" and live.size:
                vid = int(live[int(rng.integers(live.size))])
                batch.append(Mutation.set_weight(vid, float(rng.uniform(0.1, 3.0))))
                state.apply([batch[-1]])
                continue
            if kind == "add" and live.size >= 2:
                u, v = rng.choice(live, size=2, replace=False)
                if not state.has_edge(int(u), int(v)):
                    # ~1 in 6 inserts carries a zero-cost edge
                    cost = 0.0 if rng.random() < 0.17 else float(rng.uniform(0.5, 2.0))
                    batch.append(Mutation.add(int(u), int(v), cost))
                    state.apply([batch[-1]])
                continue
            items = state.edge_items()
            if not items:
                continue
            (u, v), _ = items[int(rng.integers(len(items)))]
            if kind == "remove":
                batch.append(Mutation.remove(u, v))
            else:
                batch.append(Mutation.set_cost(u, v, float(rng.uniform(0.5, 2.0))))
            state.apply([batch[-1]])
        if batch:
            program.append(batch)
    return program


# ----------------------------------------------------------------------
# tentpole differential: grown state == from-scratch build


@pytest.mark.parametrize("seed", range(6))
def test_grown_state_matches_from_scratch_build(seed):
    """Property: after any mutation program, the incrementally maintained
    graph is byte-identical (CSR + costs + hash) to a from-scratch build."""
    driver = small_state()
    program = random_program(np.random.default_rng(seed), driver, batches=5, ops=6)
    state = small_state()
    for i, batch in enumerate(program):
        state.apply(batch)
        if i % 2 == 0:
            state.graph()  # force periodic materialization → patch path
    want = from_scratch(state)
    assert_csr_identical(state.graph(), want)
    # and an independent replica replaying the same log agrees on the hash
    twin = replay(small_state(), program)
    assert twin.structural_hash() == state.structural_hash()
    np.testing.assert_array_equal(twin.weights, state.weights)
    np.testing.assert_array_equal(twin.alive, state.alive)


def test_remove_then_readd_same_id_and_singletons():
    state = small_state(4)
    n0 = state.n
    state.apply([Mutation.remove_vertex(5)])
    assert not state.alive[5] and state.weights[5] == 0.0
    assert all(5 not in k for k in dict(state.edge_items()))
    # re-add the same id with a new weight, then isolate it (singleton)
    state.apply([Mutation.add_vertex(5, 2.5)])
    assert state.alive[5] and state.weights[5] == 2.5 and state.n == n0
    # grow the index space: only n is a valid fresh id
    with pytest.raises(MutationError):
        state.apply([Mutation.add_vertex(state.n + 3)])
    state.apply([Mutation.add_vertex(state.n, 1.0)])
    assert state.n == n0 + 1 and state.coords is None
    assert_csr_identical(state.graph(), from_scratch(state))


def test_all_alive_hash_is_backward_compatible():
    """Growth then full removal back to all-alive must hash exactly like a
    state that never had a dynamic vertex set (legacy journals stay valid)."""
    state = small_state(4)
    legacy = state.structural_hash()
    state.apply([Mutation.remove_vertex(3)])
    dead_hash = state.structural_hash()
    assert dead_hash != legacy
    state.apply([Mutation.add_vertex(3, float(small_state(4).weights[3]))])
    # alive again everywhere, same edges missing though — re-add them
    restore = [
        Mutation.add(u, v, c)
        for (u, v), c in small_state(4).edge_items()
        if not state.has_edge(u, v)
    ]
    state.apply(restore)
    assert state.structural_hash() == legacy


def test_unknown_mutation_kind_is_typed():
    with pytest.raises(UnknownMutationError):
        Mutation.from_wire(["teleport_vertex", 3])
    with pytest.raises(UnknownMutationError):
        Mutation("teleport_vertex", 3)
    # and it is catchable as the base MutationError (service path relies on it)
    with pytest.raises(MutationError):
        Mutation.from_wire(["teleport_vertex", 3])


def test_growth_wire_roundtrip():
    for mut in (Mutation.add_vertex(7, 1.5), Mutation.remove_vertex(4)):
        assert Mutation.from_wire(mut.to_wire()) == mut


def test_batch_validation_is_atomic_across_growth():
    state = small_state(4)
    before = state.structural_hash()
    # an edge on a vertex removed earlier in the same batch must fail the
    # whole batch, leaving the state untouched
    with pytest.raises(MutationError):
        state.apply([Mutation.remove_vertex(2), Mutation.add(2, 9, 1.0)])
    assert state.structural_hash() == before
    # intra-batch: append then connect is valid in one atomic batch
    state.apply([Mutation.add_vertex(state.n, 1.0),
                 Mutation.add(0, state.n, 0.0)])  # zero-cost attach
    assert_csr_identical(state.graph(), from_scratch(state))


# ----------------------------------------------------------------------
# incremental CSR patcher


def test_patch_graph_matches_rebuild_directed_cases():
    # canonical base: a GraphState materialization (lex-sorted edges)
    g = GraphState.from_graph(grid_graph(5, 5), np.ones(25)).graph()
    # cost-only update
    patched = patch_graph(g, g.n, updated=[((0, 1), 9.0)])
    want = Graph(g.n, g.edges.copy(), np.where(
        (g.edges[:, 0] == 0) & (g.edges[:, 1] == 1), 9.0, g.costs))
    assert_csr_identical(patched, want)
    # pure growth: new vertices, no edge change, shares the CSR arrays
    grown = patch_graph(g, g.n + 3)
    assert grown.n == g.n + 3 and grown.m == g.m
    assert grown.indptr.size == g.n + 4
    np.testing.assert_array_equal(grown.indptr[g.n:], g.indptr[-1])
    # structural: remove one edge, add two touching a fresh vertex
    new_n = g.n + 1
    v = g.n
    patched = patch_graph(
        g, new_n, removed=[(0, 1)],
        added=[((0, v), 2.0), ((3, v), 0.0)],
    )
    state = GraphState.from_graph(g, np.ones(g.n))
    state.apply([Mutation.remove(0, 1), Mutation.add_vertex(v),
                 Mutation.add(0, v, 2.0), Mutation.add(3, v, 0.0)])
    assert_csr_identical(patched, from_scratch(state))


def test_patch_graph_rejects_unknown_edges_and_unsorted_base():
    g = GraphState.from_graph(grid_graph(4, 4), np.ones(16)).graph()
    with pytest.raises(ValueError):
        patch_graph(g, g.n, removed=[(0, 15)])
    with pytest.raises(ValueError):
        patch_graph(g, g.n, updated=[((0, 15), 1.0)])
    # generator graphs are not in canonical order: patching one fails loudly
    raw = grid_graph(4, 4)
    with pytest.raises(ValueError):
        patch_graph(raw, raw.n, removed=[(0, 1)])


# ----------------------------------------------------------------------
# repair seeding + alive-aware bounds


def test_seed_new_vertices_prefers_toward_cost_then_lightest():
    g = grid_graph(4, 4)
    state = GraphState.from_graph(g, np.ones(g.n))
    state.apply([Mutation.add_vertex(16, 1.0), Mutation.add(5, 16, 4.0),
                 Mutation.add_vertex(17, 1.0)])
    gg = state.graph()
    labels = np.zeros(18, dtype=np.int64)
    labels[8:16] = 1
    labels[16] = labels[17] = -1
    w = state.weights
    placed = seed_new_vertices(gg, labels, w, 2, np.array([16, 17]))
    assert placed == 2
    assert labels[16] == 0  # pulled toward vertex 5's class by the 4.0 edge
    # isolated vertex 17 falls back to the lightest feasible class
    assert labels[17] == 1
    # idempotent: already-colored vertices are never reseeded
    assert seed_new_vertices(gg, labels, w, 2, np.array([16, 17])) == 0


def test_is_connected_within_and_alive_lower_bound():
    g = grid_graph(4, 4)
    state = GraphState.from_graph(g, np.ones(g.n))
    assert is_connected_within(g, state.alive) == is_connected(g)
    state.apply([Mutation.remove_vertex(5)])
    gg = state.graph()
    assert not is_connected(gg)  # the dead slot is isolated in index space
    assert is_connected_within(gg, state.alive)
    # the alive-aware bound keeps the connectivity certificate
    full = cheap_lower_bound(gg, 4, state.weights)
    live = cheap_lower_bound(gg, 4, state.weights, alive=state.alive)
    assert live >= full
    assert live > 0


# ----------------------------------------------------------------------
# end-to-end: sessions over growth traces stay deterministic per policy


@pytest.mark.parametrize("trace", ["growth", "remesh", "arrival-departure"])
def test_growth_traces_deterministic_and_policy_agnostic_hash(trace):
    base = Scenario(
        family="grid", size=6, k=3, algorithm="stream", weights="zipf",
        params={"trace": trace, "steps": 4, "ops": 5},
    )
    inst = build_instance(base)
    runs = []
    for params in (base.param_dict,
                   {**base.param_dict, "policy": "recompute"},
                   base.param_dict):
        session = StreamSession(inst, base.with_(params=params))
        while session.trace_remaining:
            session.step()
        runs.append(session)
    rep, rec, rep2 = runs
    # same trace replayed twice through the same policy: identical snapshots
    assert rep.snapshot() == rep2.snapshot()
    # policies solve the same final state (same mutation history)
    assert rep.state.structural_hash() == rec.state.structural_hash()
    assert rep.state.n > inst.graph.n  # the trace actually grew the instance
    assert rep.metrics()["strictly_balanced"]
    # dead slots are uncolored, live ones colored
    labels = np.asarray(rep.coloring.labels)
    assert np.all(labels[rep.state.alive] >= 0)
    assert np.all(labels[~rep.state.alive] == -1)


# ----------------------------------------------------------------------
# remesh traces: a batch never touches a midpoint it collapses


@pytest.mark.parametrize("side, seed", [(24, 26), (16, 40), (4, 12)])
def test_remesh_batches_skip_midpoints_they_collapse(side, seed):
    # (24, 26) and (16, 40) drew a weight jitter on a midpoint the same
    # batch removed; (4, 12) collapsed onto such a midpoint.  Both used to
    # fail with "vertex N is not alive" inside the generator.
    g = grid_graph(side, side)
    batches = make_trace("remesh", GraphState.from_graph(g, np.ones(g.n)), 8, 6, seed)
    assert len(batches) == 8
    for batch in batches:
        removed = set()
        for mut in batch:
            touched = {mut.u} if mut.kind in ("weight", "remove_vertex") else {mut.u, mut.v}
            assert not touched & removed, mut
            if mut.kind == "remove_vertex":
                removed.add(mut.u)


#: digests of traces that generated before the collapse/jitter guards; the
#: guards only skip what used to fail, so these must not move
REMESH_DIGESTS = {
    (16, 1): "100d0bac5aafc1a8",
    (20, 2): "2549c9fb0a8a8745",
    (24, 3): "3537400516970256",
    (6, 4): "22611b81aea1d316",
    (10, 5): "dd265a8f845b8296",
}


@pytest.mark.parametrize("side, seed", sorted(REMESH_DIGESTS))
def test_remesh_traces_that_generated_before_are_unchanged(side, seed):
    g = grid_graph(side, side)
    batches = make_trace("remesh", GraphState.from_graph(g, np.ones(g.n)), 8, 6, seed)
    wire = json.dumps([[m.to_wire() for m in batch] for batch in batches]).encode()
    assert hashlib.sha256(wire).hexdigest()[:16] == REMESH_DIGESTS[(side, seed)]
