"""Seeded mutation-program fuzzer for dynamic vertex sets.

Generates *hostile* but valid mutation programs — remove-then-re-add of the
same vertex id, batches that gut a region (driving classes toward empty),
growth runs that cross the journal's fsync batch boundary, zero-cost attach
edges — and drives each program through three layers, asserting the
determinism contracts the streaming subsystem promises:

* **state** — replaying the program twice produces byte-identical structural
  hashes, and the incrementally maintained CSR equals a from-scratch build
  of the final edge set;
* **journal** — a session journaled op-by-op (batched fsync) replays through
  :func:`repro.stream.replay_session` with every ``(version, hash)``
  fingerprint verified, to a byte-identical snapshot;
* **service** — the same program fired over the wire yields byte-identical
  snapshot bodies on an inline (``shards=0``) and a 2-process server.

Run as a script (the CI streaming-smoke job runs a reduced budget)::

    PYTHONPATH=src python tests/fuzz_mutations.py --programs 4
    PYTHONPATH=src python tests/fuzz_mutations.py --programs 12 --service

Every program derives from ``--seed``, so a failure report names the exact
program seed to replay under a debugger.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile

import numpy as np

from repro.graphs import grid_graph, zipf_weights
from repro.graphs.components import is_connected_within
from repro.runtime import Scenario, build_instance
from repro.service import DecompositionService, ServiceClient, serve
from repro.service.protocol import canonical_record
from repro.stream import (
    GraphState,
    JournalStore,
    Mutation,
    StreamSession,
    replay,
    replay_session,
)

__all__ = ["hostile_program", "check_state", "check_journal", "check_service",
           "run_fuzz"]

#: never shrink the live set below this (solvers need room for k classes)
_MIN_LIVE = 8


def _base_state(side: int) -> GraphState:
    g = grid_graph(side, side)
    return GraphState.from_graph(g, zipf_weights(g, rng=0))


def _try_remove(state: GraphState, victim: int) -> bool:
    """Remove ``victim`` only if the live graph stays connected."""
    trial = state.copy()
    trial.apply([Mutation.remove_vertex(victim)])
    if not is_connected_within(trial.graph(), trial.alive):
        return False
    state.apply([Mutation.remove_vertex(victim)])
    return True


def hostile_program(seed: int, side: int = 5, batches: int = 6,
                    ops: int = 5) -> list[list[list]]:
    """One seeded hostile program as wire-form mutation batches.

    Motifs, all validated against a scratch state so every batch applies:

    * every batch grows the index space by at least one attached vertex
      (consecutive growth crosses any journal fsync batch boundary);
    * the vertex removed in batch ``i`` is re-added (same id, new weight)
      in batch ``i + 1``, sometimes with a zero-cost attach edge;
    * one mid-program batch guts a neighborhood — several removals in one
      batch, the class-emptying pressure case;
    * filler edge churn with occasional zero-cost inserts.
    """
    rng = np.random.default_rng(seed)
    state = _base_state(side)
    program: list[list[list]] = []
    pending_revive: int | None = None
    for index in range(batches):
        batch: list[Mutation] = []

        def emit(mut: Mutation) -> None:
            state.apply([mut])
            batch.append(mut)

        live = np.flatnonzero(state.alive)
        # revive last batch's victim under the same id, new weight
        if pending_revive is not None:
            emit(Mutation.add_vertex(pending_revive, float(rng.uniform(0.5, 2.0))))
            anchor = int(live[int(rng.integers(live.size))])
            if anchor != pending_revive and not state.has_edge(anchor, pending_revive):
                cost = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.5, 2.0))
                emit(Mutation.add(anchor, pending_revive, cost))
            pending_revive = None
        # growth: append a fresh vertex attached to a live anchor
        vid = state.n
        emit(Mutation.add_vertex(vid, float(rng.uniform(0.5, 2.0))))
        live = np.flatnonzero(state.alive)
        anchors = rng.choice(live[live != vid], size=min(2, live.size - 1),
                             replace=False)
        for anchor in np.sort(anchors).tolist():
            emit(Mutation.add(int(anchor), vid, float(rng.uniform(0.5, 2.0))))
        # mid-program gutting batch: several removals at once
        if index == batches // 2:
            for _ in range(3):
                live = np.flatnonzero(state.alive)
                if live.size <= _MIN_LIVE:
                    break
                victim = int(live[int(rng.integers(live.size))])
                if _try_remove(state, victim):
                    batch.append(Mutation.remove_vertex(victim))
        # single removal, revived next batch
        elif rng.random() < 0.7:
            live = np.flatnonzero(state.alive)
            if live.size > _MIN_LIVE:
                victim = int(live[int(rng.integers(live.size))])
                if _try_remove(state, victim):
                    batch.append(Mutation.remove_vertex(victim))
                    pending_revive = victim
        # filler churn: weight bumps and cost updates
        for _ in range(max(0, ops - len(batch))):
            items = state.edge_items()
            if items and rng.random() < 0.5:
                (u, v), _ = items[int(rng.integers(len(items)))]
                emit(Mutation.set_cost(u, v, float(rng.uniform(0.5, 2.0))))
            else:
                live = np.flatnonzero(state.alive)
                target = int(live[int(rng.integers(live.size))])
                emit(Mutation.set_weight(target, float(rng.uniform(0.5, 2.0))))
        program.append([m.to_wire() for m in batch])
    return program


# ----------------------------------------------------------------------
# the three layer checks; each raises AssertionError with the program seed


def check_state(seed: int, program, side: int) -> None:
    """Replay determinism + incremental CSR == from-scratch build."""
    once = replay(_base_state(side), program)
    twice = replay(_base_state(side), program)
    assert once.structural_hash() == twice.structural_hash(), f"seed {seed}"
    # a replica that materializes mid-program (exercising the patch path)
    # must still agree with one that only materializes at the end
    patched = _base_state(side)
    for batch in program:
        patched.apply(batch)
        patched.graph()
    assert patched.structural_hash() == once.structural_hash(), f"seed {seed}"
    g = patched.graph()
    items = patched.edge_items()
    edges = (np.array([k for k, _ in items], dtype=np.int64)
             if items else np.zeros((0, 2), dtype=np.int64))
    costs = (np.array([c for _, c in items], dtype=np.float64)
             if items else np.zeros(0, dtype=np.float64))
    from repro.graphs.graph import Graph

    want = Graph(patched.n, edges, costs)
    for name in ("edges", "costs", "indptr", "nbr", "arc_costs", "eid"):
        got_a, want_a = getattr(g, name), getattr(want, name)
        assert np.array_equal(got_a, want_a), f"seed {seed}: {name} diverged"


def _scenario(side: int) -> Scenario:
    return Scenario(
        family="grid", size=side, k=4, algorithm="stream", weights="zipf",
        params={"trace": "random-churn", "steps": 1, "ops": 2},
    )


def check_journal(seed: int, program, side: int, fsync_every: int = 2) -> None:
    """Journal the program op-by-op, then replay with fingerprint checks."""
    scenario = _scenario(side)
    instance = build_instance(scenario)
    session = StreamSession(instance, scenario)
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-journal-") as scratch:
        store = JournalStore(scratch, fsync_every=fsync_every)
        try:
            sid = f"fuzz-{seed}"
            store.create(sid, {"scenario": scenario.spec(),
                               "base": session.fingerprint()})
            for batch in program:
                session.apply_mutations(batch)
                due = store.append(sid, {"mutations": batch,
                                         **session.fingerprint()})
                if due:
                    store.sync_session(sid)
            header, ops = store.load(sid)
        finally:
            store.close()
    assert len(ops) == len(program), f"seed {seed}"
    # replay_session verifies every journaled (version, hash) fingerprint
    recovered = replay_session(instance, scenario, ops, base=header["base"])
    assert recovered.snapshot() == session.snapshot(), f"seed {seed}"
    assert recovered.state.n == session.state.n > instance.graph.n, f"seed {seed}"


def check_service(seed: int, program, side: int) -> None:
    """Snapshot bodies byte-identical across shard counts, over the wire."""
    spec = _scenario(side).spec()

    def run_once(shards: int) -> list[str]:
        async def run():
            service = DecompositionService(shards=shards)
            ready = asyncio.Event()
            bound = {}

            def _ready(host, port):
                bound.update(host=host, port=port)
                ready.set()

            task = asyncio.create_task(serve(service, port=0, ready=_ready))
            await asyncio.wait_for(ready.wait(), 30)
            client = await ServiceClient.connect(bound["host"], bound["port"])
            bodies = []
            try:
                sid = f"fuzz-{seed}"
                opened = await client.open_stream(sid, spec)
                assert opened["ok"], opened
                bodies.append(canonical_record(opened["snapshot"]))
                for batch in program:
                    mutated = await client.mutate(sid, mutations=batch)
                    assert mutated["ok"], mutated
                    snap = await client.snapshot(sid)
                    assert snap["ok"], snap
                    bodies.append(canonical_record(snap["snapshot"]))
                closed = await client.close_stream(sid)
                assert closed["ok"], closed
                bodies.append(canonical_record(closed["snapshot"]))
                await client.shutdown()
            finally:
                await client.close()
            await asyncio.wait_for(task, 30)
            return bodies

        return asyncio.run(run())

    inline = run_once(0)
    sharded = run_once(2)
    assert inline == sharded, f"seed {seed}: bodies diverged across shard counts"


# ----------------------------------------------------------------------


def run_fuzz(programs: int = 4, seed: int = 0, side: int = 5, batches: int = 6,
             ops: int = 5, service: bool = True) -> int:
    """Fuzz ``programs`` seeded programs through every enabled layer."""
    failures = 0
    for index in range(programs):
        pseed = seed + index
        program = hostile_program(pseed, side=side, batches=batches, ops=ops)
        nmut = sum(len(b) for b in program)
        try:
            check_state(pseed, program, side)
            check_journal(pseed, program, side)
            if service:
                check_service(pseed, program, side)
            print(f"fuzz: seed {pseed}: {len(program)} batches / {nmut} "
                  f"mutations ok", file=sys.stderr)
        except AssertionError as exc:
            failures += 1
            print(f"fuzz: seed {pseed}: FAIL: {exc}", file=sys.stderr)
    print(f"fuzz: {programs} program(s), {failures} failure(s)", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="seeded mutation-program fuzzer: hostile growth/removal "
        "programs must replay deterministically at the state, journal, and "
        "service layers")
    parser.add_argument("--programs", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--side", type=int, default=5,
                        help="base grid side (default 5)")
    parser.add_argument("--batches", type=int, default=6)
    parser.add_argument("--ops", type=int, default=5)
    parser.add_argument("--no-service", dest="service", action="store_false",
                        help="skip the cross-shard service layer (fastest)")
    parser.add_argument("-o", "--output", help="write a JSON verdict here")
    args = parser.parse_args(argv)
    rc = run_fuzz(programs=args.programs, seed=args.seed, side=args.side,
                  batches=args.batches, ops=args.ops, service=args.service)
    if args.output:
        import pathlib

        out = pathlib.Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(
            {"ok": rc == 0, "programs": args.programs, "seed": args.seed},
            indent=2) + "\n")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
