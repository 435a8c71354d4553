"""Mutation-trace generators: the streaming workload families.

A *trace* is a deterministic list of mutation batches against a base
instance — the streaming analogue of a scenario's graph family.  Four
families cover the churn regimes the adaptive-computing motivation cares
about:

* ``random-churn`` — per step, delete a few random (non-bridging) edges,
  insert the same number of fresh edges between nearby vertices, and jitter
  a few vertex weights.  The steady-state workload.
* ``sliding-window`` — FIFO churn: the oldest surviving inserted edge
  leaves as every new edge arrives, modelling a moving time window over an
  edge stream.
* ``hotspot`` — no structural changes: edge costs and vertex weights near a
  focus vertex grow geometrically for the first half of the trace and decay
  back for the second, modelling a refinement front passing through.
* ``adversarial-cut`` — churn aimed at a fixed reference bisection of the
  vertex set: crossing edges get their costs inflated and extra crossing
  edges are inserted, deliberately dragging load onto whatever boundary a
  decomposition chose near that cut.

Three further families exercise the *dynamic vertex set* (``add_vertex`` /
``remove_vertex`` mutations):

* ``growth`` — monotone node arrival: every step a few vertices arrive,
  each attached by ``attach`` edges to a live anchor's neighborhood, plus
  weight jitter on the old vertices.  The mesh-refinement workload.
* ``remesh`` — edge subdivision and collapse: the first half of the trace
  splits edges ``(u, v)`` into ``(u, w), (w, v)`` through a fresh midpoint
  vertex; the second half collapses earlier splits (remove the midpoint,
  restore the bypass edge), so the index space grows and then hollows out.
* ``arrival-departure`` — arrivals as in ``growth``, but from one third of
  the way in, earlier arrivals also *depart* (connectivity-checked), and
  new arrivals revive departed slots before extending the index space —
  the remove-then-re-add id reuse the journal must replay exactly.

Generators take a :class:`GraphState` *copy* and simulate on it, so the
emitted batches are always consistent (no double-inserts, no deletes of
missing edges) and depend only on ``(base state, steps, ops, seed)`` — a
trace is as deterministic as the instance it mutates.  Connectivity checks
are over the *live* vertex set (soft-deleted slots are isolated by
construction).
"""

from __future__ import annotations

import numpy as np

from ..graphs.components import bfs_levels, is_connected_within
from .mutations import GraphState, Mutation

__all__ = ["GROWTH_TRACES", "TRACES", "make_trace"]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed))


def _candidate_pairs(state: GraphState, rng, count: int) -> list[tuple[int, int]]:
    """Up to ``count`` fresh vertex pairs (non-edges), locality-biased.

    Pairs are sampled as (random vertex, random vertex at small index
    offset) so inserted edges look like remeshing edges, not random
    long-range shortcuts; falls back to uniform pairs when the local probe
    keeps colliding with existing edges.
    """
    out: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    n = state.n
    attempts = 0
    while len(out) < count and attempts < 40 * count + 40:
        attempts += 1
        u = int(rng.integers(n))
        if attempts % 3 == 2:  # periodic uniform fallback
            v = int(rng.integers(n))
        else:
            v = u + int(rng.integers(1, max(2, n // 16)))
        if not (0 <= v < n) or u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen or state.has_edge(*key):
            continue
        seen.add(key)
        out.append(key)
    return out


def _removable_edges(state: GraphState, rng, count: int) -> list[tuple[int, int]]:
    """Up to ``count`` random live edges whose removal keeps G connected.

    Keeping the state connected keeps full recompute well-posed (the
    separator oracles assume one component), so repair-vs-recompute quality
    ratios compare like with like.  Connectivity is rechecked after each
    accepted removal on the staged state.
    """
    out: list[tuple[int, int]] = []
    scratch = state.copy()
    items = [k for k, _ in scratch.edge_items()]
    if not items:
        return out
    order = rng.permutation(len(items))
    for idx in order:
        if len(out) >= count:
            break
        u, v = items[int(idx)]
        if not scratch.has_edge(u, v):
            continue
        scratch.apply([Mutation.remove(u, v)])
        if is_connected_within(scratch.graph(), scratch.alive):
            out.append((u, v))
        else:
            scratch.apply([Mutation.add(u, v, 1.0)])
    return out


def _cost_scale(state: GraphState, rng) -> float:
    """A plausible cost for a fresh edge: a jittered live-cost quantile."""
    costs = [c for _, c in state.edge_items()]
    base = float(np.median(costs)) if costs else 1.0
    return base * float(rng.uniform(0.5, 2.0))


def _trace_random_churn(state: GraphState, steps: int, ops: int, seed: int, **params):
    rng = _rng(seed)
    batches = []
    structural = max(1, ops // 2)
    for _ in range(int(steps)):
        batch: list[Mutation] = []
        for u, v in _removable_edges(state, rng, structural):
            batch.append(Mutation.remove(u, v))
        for u, v in _candidate_pairs(state, rng, structural):
            batch.append(Mutation.add(u, v, _cost_scale(state, rng)))
        for _ in range(max(0, ops - 2 * structural)):
            v = int(rng.integers(state.n))
            batch.append(Mutation.set_weight(v, float(rng.uniform(0.25, 4.0))))
        state.apply(batch)
        batches.append(batch)
    return batches


def _trace_sliding_window(state: GraphState, steps: int, ops: int, seed: int, **params):
    rng = _rng(seed)
    batches = []
    window: list[tuple[int, int]] = []  # FIFO of our own insertions
    for _ in range(int(steps)):
        batch: list[Mutation] = []
        fresh = _candidate_pairs(state, rng, max(1, ops))
        for u, v in fresh:
            batch.append(Mutation.add(u, v, _cost_scale(state, rng)))
            window.append((u, v))
        while len(window) > 4 * max(1, ops):
            u, v = window.pop(0)
            if state.has_edge(u, v):
                batch.append(Mutation.remove(u, v))
        state.apply(batch)
        batches.append(batch)
    return batches


def _trace_hotspot(state: GraphState, steps: int, ops: int, seed: int, **params):
    rng = _rng(seed)
    focus = int(rng.integers(state.n))
    g = state.graph()
    dist = bfs_levels(g, [focus])
    radius = int(params.get("radius", 3))
    near = np.flatnonzero((dist >= 0) & (dist <= radius))
    near_set = set(int(v) for v in near)
    hot_edges = [
        (u, v) for (u, v), _ in state.edge_items() if u in near_set and v in near_set
    ]
    growth = float(params.get("growth", 1.6))
    batches = []
    half = max(1, int(steps) // 2)
    for step in range(int(steps)):
        factor = growth if step < half else 1.0 / growth
        batch: list[Mutation] = []
        picks = min(len(hot_edges), max(1, ops))
        if picks:
            chosen = rng.choice(len(hot_edges), size=picks, replace=False)
            live = {k: c for k, c in state.edge_items()}
            for idx in chosen:
                u, v = hot_edges[int(idx)]
                batch.append(Mutation.set_cost(u, v, live[(u, v)] * factor))
        verts = rng.choice(near, size=min(near.size, max(1, ops // 2)), replace=False)
        for v in verts:
            batch.append(Mutation.set_weight(int(v), float(state.weights[int(v)]) * factor))
        state.apply(batch)
        batches.append(batch)
    return batches


def _trace_adversarial_cut(state: GraphState, steps: int, ops: int, seed: int, **params):
    rng = _rng(seed)
    # fixed reference bisection: geometric halves when coords exist (the cut
    # a grid decomposition is likely to sit near), index halves otherwise
    if state.coords is not None:
        axis = state.coords[:, 0]
        side = axis >= np.median(axis)
    else:
        side = np.arange(state.n) >= state.n // 2
    inflate = float(params.get("inflate", 1.5))
    batches = []
    for _ in range(int(steps)):
        batch: list[Mutation] = []
        live = state.edge_items()
        crossing = [(u, v) for (u, v), _ in live if side[u] != side[v]]
        picks = min(len(crossing), max(1, ops))
        if picks:
            chosen = rng.choice(len(crossing), size=picks, replace=False)
            costs = dict(live)
            for idx in chosen:
                u, v = crossing[int(idx)]
                batch.append(Mutation.set_cost(u, v, costs[(u, v)] * inflate))
        # plus fresh crossing edges, to keep dragging cost onto the cut
        added = 0
        attempts = 0
        while added < max(1, ops // 2) and attempts < 40 * ops + 40:
            attempts += 1
            u = int(rng.integers(state.n))
            v = int(rng.integers(state.n))
            if u == v or side[u] == side[v] or state.has_edge(u, v):
                continue
            if any(m.kind == "add" and (m.u, m.v) == (min(u, v), max(u, v)) for m in batch):
                continue
            batch.append(Mutation.add(u, v, _cost_scale(state, rng) * inflate))
            added += 1
        state.apply(batch)
        batches.append(batch)
    return batches


def _attach_batch(state: GraphState, g, rng, vid: int, attach: int) -> list[Mutation]:
    """Arrival mutations for vertex ``vid``: add_vertex + ``attach`` edges
    into a live anchor's closed neighborhood (locality-biased, so arrivals
    look like mesh refinement, not random shortcuts)."""
    live = np.flatnonzero(state.alive)
    anchor = int(live[int(rng.integers(live.size))])
    nbrs = g.nbr[g.indptr[anchor] : g.indptr[anchor + 1]]
    nbrs = nbrs[state.alive[nbrs]] if nbrs.size else nbrs
    pool = np.unique(np.concatenate([np.asarray([anchor], dtype=np.int64), nbrs]))
    picks = rng.choice(pool, size=min(attach, pool.size), replace=False)
    out = [Mutation.add_vertex(vid, float(rng.uniform(0.5, 2.0)))]
    for t in np.sort(picks).tolist():
        out.append(Mutation.add(vid, int(t), _cost_scale(state, rng)))
    return out


def _trace_growth(state: GraphState, steps: int, ops: int, seed: int, **params):
    rng = _rng(seed)
    attach = max(1, int(params.get("attach", 2)))
    batches = []
    for _ in range(int(steps)):
        batch: list[Mutation] = []
        g = state.graph()
        arrivals = max(1, ops // 3)
        next_id = state.n
        for _ in range(arrivals):
            batch.extend(_attach_batch(state, g, rng, next_id, attach))
            next_id += 1
        live = np.flatnonzero(state.alive)
        for _ in range(max(0, ops - arrivals)):
            v = int(live[int(rng.integers(live.size))])
            batch.append(Mutation.set_weight(v, float(rng.uniform(0.25, 4.0))))
        state.apply(batch)
        batches.append(batch)
    return batches


def _trace_remesh(state: GraphState, steps: int, ops: int, seed: int, **params):
    rng = _rng(seed)
    batches = []
    splits: list[tuple[int, int, int, float]] = []  # (midpoint, u, v, cost)
    half = (int(steps) + 1) // 2
    for step in range(int(steps)):
        batch: list[Mutation] = []
        removed: set[int] = set()  # midpoints this batch collapses
        count = max(1, ops // 3)
        if step < half:
            items = state.edge_items()
            order = rng.permutation(len(items)) if items else []
            used: set[int] = set()
            next_id = state.n
            done = 0
            for idx in order:
                if done >= count:
                    break
                (u, v), c = items[int(idx)]
                if u in used or v in used:
                    continue
                mid = next_id
                next_id += 1
                batch += [
                    Mutation.add_vertex(mid, float(rng.uniform(0.5, 1.5))),
                    Mutation.add(u, mid, c),
                    Mutation.add(mid, v, c),
                    Mutation.remove(u, v),
                ]
                splits.append((mid, u, v, c))
                used.update((u, v))
                done += 1
        else:
            done = 0
            while splits and done < count:
                mid, u, v, c = splits.pop(0)
                # a later split may have consumed the bypass slot or the
                # midpoint's edges, and an endpoint may be the midpoint of
                # an earlier split that this batch already collapsed; the
                # collapse itself always preserves live connectivity (every
                # split vertex keeps a non-midpoint edge), so only staleness
                # needs checking
                if not (state.alive[mid] and state.alive[u] and state.alive[v]):
                    continue
                if u in removed or v in removed or state.has_edge(u, v):
                    continue
                batch += [Mutation.remove_vertex(mid), Mutation.add(u, v, c)]
                removed.add(mid)
                done += 1
        live = np.flatnonzero(state.alive)
        for _ in range(max(1, ops // 4)):
            t = int(live[int(rng.integers(live.size))])
            weight = float(rng.uniform(0.5, 2.0))
            # a collapsed midpoint is drawn like any live vertex (the draws
            # keep the random stream of every other trace) but not jittered
            if t not in removed:
                batch.append(Mutation.set_weight(t, weight))
        state.apply(batch)
        batches.append(batch)
    return batches


def _trace_arrival_departure(state: GraphState, steps: int, ops: int, seed: int, **params):
    rng = _rng(seed)
    attach = max(1, int(params.get("attach", 2)))
    batches = []
    settled: list[int] = []  # applied arrivals, FIFO departure candidates
    warm = max(1, int(steps) // 3)
    for step in range(int(steps)):
        batch: list[Mutation] = []
        g = state.graph()
        arrivals = max(1, ops // 3)
        # revive departed slots first (id reuse), then extend the index space
        dead_pool = np.flatnonzero(~state.alive).tolist()
        next_id = state.n
        fresh: list[int] = []
        for _ in range(arrivals):
            if dead_pool:
                vid = int(dead_pool.pop(0))
            else:
                vid = next_id
                next_id += 1
            batch.extend(_attach_batch(state, g, rng, vid, attach))
            fresh.append(vid)
        if step >= warm:
            budget = max(1, ops // 4)
            done = 0
            j = 0
            while done < budget and j < len(settled):
                cand = settled[j]
                if not state.alive[cand]:
                    j += 1
                    continue
                trial = state.copy()
                trial.apply(batch + [Mutation.remove_vertex(cand)])
                if is_connected_within(trial.graph(), trial.alive):
                    batch.append(Mutation.remove_vertex(cand))
                    settled.pop(j)
                    done += 1
                else:
                    j += 1
        state.apply(batch)
        settled.extend(fresh)
        batches.append(batch)
    return batches


#: trace kind -> generator(state_copy, steps, ops, seed, **params)
TRACES = {
    "random-churn": _trace_random_churn,
    "sliding-window": _trace_sliding_window,
    "hotspot": _trace_hotspot,
    "adversarial-cut": _trace_adversarial_cut,
    "growth": _trace_growth,
    "remesh": _trace_remesh,
    "arrival-departure": _trace_arrival_departure,
}

#: the dynamic-vertex-set families (index-space growth); benches gate these
#: separately from the fixed-vertex edge-churn families
GROWTH_TRACES = ("growth", "remesh", "arrival-departure")


def make_trace(
    kind: str,
    base: GraphState,
    steps: int,
    ops: int,
    seed: int,
    **params,
) -> list[list[Mutation]]:
    """Generate ``steps`` mutation batches of ``kind`` against ``base``.

    ``base`` is not modified (the generator simulates on a copy).  The
    result is a pure function of the arguments.
    """
    if kind not in TRACES:
        raise KeyError(f"unknown trace kind {kind!r} (have {', '.join(sorted(TRACES))})")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    return TRACES[kind](base.copy(), steps, max(1, int(ops)), seed, **params)
