"""Tests for the streaming subsystem (repro.stream)."""

import numpy as np
import pytest

from repro.core import Coloring, min_max_partition
from repro.core.refine import pairwise_refine
from repro.graphs import grid_graph, zipf_weights
from repro.graphs.components import is_connected
from repro.runtime import Scenario, run_scenario
from repro.service.protocol import canonical_record
from repro.stream import (
    POLICIES,
    TRACES,
    GraphState,
    Mutation,
    MutationError,
    StreamSession,
    local_repair,
    make_trace,
    replay,
    restore_window,
    run_stream_scenario,
    strict_window,
)


def small_state(side: int = 6) -> GraphState:
    g = grid_graph(side, side)
    return GraphState.from_graph(g, zipf_weights(g, rng=0))


def stream_scenario(**overrides) -> Scenario:
    params = {"trace": "random-churn", "steps": 4, "ops": 4}
    params.update(overrides.pop("params", {}))
    base = dict(family="grid", size=8, k=4, algorithm="stream", weights="zipf")
    base.update(overrides)
    return Scenario(params=tuple(sorted(params.items())), **base)


class TestMutation:
    def test_canonical_endpoints(self):
        m = Mutation.add(5, 2, 1.5)
        assert (m.u, m.v) == (2, 5)

    def test_wire_roundtrip(self):
        for m in [
            Mutation.add(1, 2, 2.5),
            Mutation.remove(3, 1),
            Mutation.set_cost(0, 4, 0.5),
            Mutation.set_weight(7, 3.0),
        ]:
            assert Mutation.from_wire(m.to_wire()) == m

    @pytest.mark.parametrize(
        "wire,match",
        [
            ("nope", "non-empty list"),
            ([], "non-empty list"),
            (["teleport", 1, 2], "unknown mutation kind"),
            (["add", 1, 2], "takes 3 args"),
            (["remove", 1], "takes 2 args"),
            (["add", 1, "x", 1.0], "bad add mutation"),
            (["add", 1, 1, 1.0], "self-loops"),
        ],
    )
    def test_bad_wire_rejected(self, wire, match):
        with pytest.raises(MutationError, match=match):
            Mutation.from_wire(wire)


class TestGraphState:
    def test_from_graph_roundtrip(self):
        state = small_state()
        g = state.graph()
        assert g.n == 36 and g.m == 60
        assert is_connected(g)

    def test_apply_bumps_version_and_invalidates_graph(self):
        state = small_state()
        g0 = state.graph()
        h0 = state.structural_hash()
        dirty = state.apply([Mutation.set_cost(0, 1, 9.0)])
        assert state.version == 1 and dirty.vertices.tolist() == [0, 1]
        assert state.graph() is not g0
        assert state.structural_hash() != h0

    def test_add_remove_edges(self):
        state = small_state()
        m0 = state.m
        state.apply([Mutation.add(0, 35, 2.0)])
        assert state.m == m0 + 1 and state.has_edge(35, 0)
        state.apply([Mutation.remove(0, 35)])
        assert state.m == m0 and not state.has_edge(0, 35)

    def test_weight_mutation(self):
        state = small_state()
        state.apply([Mutation.set_weight(3, 42.0)])
        assert state.weights[3] == 42.0

    def test_batch_is_atomic(self):
        state = small_state()
        h0 = state.structural_hash()
        with pytest.raises(MutationError, match="does not exist"):
            state.apply([Mutation.set_cost(0, 1, 5.0), Mutation.remove(0, 35)])
        assert state.version == 0 and state.structural_hash() == h0

    def test_intra_batch_consistency(self):
        state = small_state()
        # remove then re-add in one batch is legal
        state.apply([Mutation.remove(0, 1), Mutation.add(0, 1, 2.0)])
        assert state.has_edge(0, 1)
        with pytest.raises(MutationError, match="already exists"):
            state.apply([Mutation.add(0, 35, 1.0), Mutation.add(0, 35, 1.0)])

    @pytest.mark.parametrize(
        "mutation,match",
        [
            ([Mutation.add(0, 2, 1.0)], "already exists"),
            ([Mutation.remove(0, 35)], "does not exist"),
            ([Mutation.set_cost(0, 35, 1.0)], "does not exist"),
            ([["add", 0, 99, 1.0]], "out of range"),
            ([["weight", 99, 1.0]], "out of range"),
            ([["add", 0, 35, -1.0]], "non-negative"),
            ([["weight", 0, -2.0]], "non-negative"),
        ],
    )
    def test_inconsistent_mutations_rejected(self, mutation, match):
        state = small_state()
        # (0, 2) does not exist in a grid; (0, 1) does — craft the existing one
        if match == "already exists" and isinstance(mutation[0], Mutation):
            mutation = [Mutation.add(0, 1, 1.0)]
        with pytest.raises(MutationError, match=match):
            state.apply(mutation)

    def test_same_log_same_hash(self):
        a, b = small_state(), small_state()
        log = [Mutation.remove(0, 1), Mutation.add(0, 7, 2.5), Mutation.set_weight(4, 9.0)]
        a.apply(log)
        b.apply(log)
        assert a.structural_hash() == b.structural_hash()


def _random_batches(state: GraphState, rng, nbatches: int) -> list[list]:
    """Valid random wire-form mutation batches against an evolving state.

    A shadow edge set mirrors the batch-atomic validation semantics (an
    edge added earlier in the run can be removed later, duplicates and
    dangling removals never generated), so every batch applies cleanly.
    """
    n = state.n
    edges = {key for key, _ in state.edge_items()}
    batches = []
    for _ in range(nbatches):
        batch = []
        for _ in range(int(rng.integers(1, 4))):
            kind = ("add", "remove", "cost", "weight")[int(rng.integers(0, 4))]
            if kind in ("remove", "cost") and not edges:
                kind = "add"  # the shadow set drained: only add/weight are valid
            if kind == "weight":
                mut = Mutation.set_weight(int(rng.integers(0, n)),
                                          float(rng.integers(1, 10)))
            elif kind == "add":
                while True:
                    u, v = sorted(int(x) for x in rng.integers(0, n, size=2))
                    if u != v and (u, v) not in edges:
                        break
                edges.add((u, v))
                mut = Mutation.add(u, v, float(rng.integers(1, 5)))
            else:
                pick = sorted(edges)[int(rng.integers(0, len(edges)))]
                if kind == "remove":
                    edges.discard(pick)
                    mut = Mutation.remove(*pick)
                else:
                    mut = Mutation.set_cost(*pick, float(rng.integers(1, 9)))
            batch.append(mut.to_wire())
        batches.append(batch)
    return batches


class TestReplay:
    """Seeded property test for the journal-replay primitive: ``replay`` is
    a pure function of (base state, mutation log) reproducing the live
    state's ``(version, structural_hash)`` at **every** log prefix — the
    soundness fact crash recovery rests on."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_replay_reproduces_every_prefix(self, seed):
        rng = np.random.default_rng(1234 + seed)
        base = small_state()
        batches = _random_batches(base, rng, nbatches=8)
        live = base.copy()
        fingerprints = [(live.version, live.structural_hash())]
        for batch in batches:
            live.apply(batch)
            fingerprints.append((live.version, live.structural_hash()))
        for prefix in range(len(batches) + 1):
            rebuilt = replay(base, batches[:prefix])
            assert (rebuilt.version, rebuilt.structural_hash()) == fingerprints[prefix]
        assert fingerprints[0] == (base.version, base.structural_hash())  # base never touched

    def test_replay_empty_log_is_identity(self):
        base = small_state()
        rebuilt = replay(base, [])
        assert rebuilt is not base
        assert rebuilt.version == base.version == 0
        assert rebuilt.structural_hash() == base.structural_hash()

    def test_replay_single_mutation_log(self):
        base = small_state()
        log = [[Mutation.set_weight(0, 5.0).to_wire()]]
        live = base.copy()
        live.apply(log[0])
        rebuilt = replay(base, log)
        assert rebuilt.version == live.version == 1
        assert rebuilt.structural_hash() == live.structural_hash()

    def test_replay_accepts_mutation_objects(self):
        base = small_state()
        rebuilt = replay(base, [[Mutation.set_cost(0, 1, 7.0)]])
        assert rebuilt.version == 1

    def test_replay_of_nonzero_version_base(self):
        base = small_state()
        base.apply([Mutation.set_weight(1, 2.0)])
        rebuilt = replay(base, [[Mutation.set_weight(2, 3.0)]])
        assert rebuilt.version == 2


class TestTraces:
    @pytest.mark.parametrize("kind", sorted(TRACES))
    def test_trace_consistent_and_deterministic(self, kind):
        base = small_state(8)
        t1 = make_trace(kind, base, steps=4, ops=4, seed=7)
        t2 = make_trace(kind, base, steps=4, ops=4, seed=7)
        assert [[m.to_wire() for m in b] for b in t1] == [
            [m.to_wire() for m in b] for b in t2
        ]
        assert len(t1) == 4 and all(batch for batch in t1)
        # the trace applies cleanly to a fresh copy of the base
        replay = base.copy()
        for batch in t1:
            replay.apply(batch)
        assert replay.version == 4

    def test_random_churn_keeps_connectivity(self):
        base = small_state(8)
        state = base.copy()
        for batch in make_trace("random-churn", base, steps=6, ops=6, seed=3):
            state.apply(batch)
            assert is_connected(state.graph())

    def test_seed_changes_trace(self):
        base = small_state(8)
        t1 = make_trace("random-churn", base, steps=3, ops=4, seed=1)
        t2 = make_trace("random-churn", base, steps=3, ops=4, seed=2)
        assert [[m.to_wire() for m in b] for b in t1] != [
            [m.to_wire() for m in b] for b in t2
        ]

    def test_base_not_mutated(self):
        base = small_state(8)
        h0 = base.structural_hash()
        make_trace("sliding-window", base, steps=3, ops=4, seed=0)
        assert base.structural_hash() == h0

    def test_unknown_kind(self):
        with pytest.raises(KeyError, match="unknown trace kind"):
            make_trace("nope", small_state(), steps=1, ops=1, seed=0)


class TestRepair:
    def test_restore_window_after_weight_shift(self):
        g = grid_graph(8, 8)
        w = np.ones(g.n)
        res = min_max_partition(g, 4, weights=w)
        labels = res.labels.copy()
        w2 = w.copy()
        w2[labels == 0] *= 1.6  # overload class 0
        ok = restore_window(g, labels, w2, 4)
        assert ok
        lo, hi = strict_window(w2, 4)
        cw = np.bincount(labels, weights=w2, minlength=4)
        assert np.all(cw <= hi + 1e-9) and np.all(cw >= lo - 1e-9)

    def test_restore_window_noop_when_balanced(self):
        g = grid_graph(6, 6)
        w = np.ones(g.n)
        res = min_max_partition(g, 4, weights=w)
        labels = res.labels.copy()
        assert restore_window(g, labels, w, 4)
        assert np.array_equal(labels, res.labels)

    def test_restore_window_float_costs_path(self):
        """Non-integral costs repair like integral ones."""
        g = grid_graph(8, 8)
        g = g.with_costs(np.random.default_rng(2).random(g.m) + 0.25)
        assert not g.costs_integral()
        w = np.ones(g.n)
        res = min_max_partition(g, 4, weights=w)
        labels = res.labels.copy()
        w2 = w.copy()
        w2[labels == 1] *= 1.6
        assert restore_window(g, labels, w2, 4)
        lo, hi = strict_window(w2, 4)
        cw = np.bincount(labels, weights=w2, minlength=4)
        assert np.all(cw <= hi + 1e-9) and np.all(cw >= lo - 1e-9)

    def test_boundary_movers_rule(self):
        """Movers out of a class are its boundary members, each headed to
        the colored class it has the most cost toward (ties to the smaller
        id), sorted by the boundary-cost delta own − toward."""
        from repro.graphs.graph import Graph
        from repro.stream.repair import _boundary_movers

        # class 0 = {0, 1, 2, 3}; 0 is interior, 1 ties classes 1 and 2,
        # 2 leans to class 2, and 3 touches only the uncolored vertex 7
        edges = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 5), (2, 6), (3, 7)]
        g = Graph(8, np.array(edges), costs=np.array([1, 1, 1, 2, 2, 1, 2, 5.0]))
        labels = np.array([0, 0, 0, 0, 1, 2, 2, -1], dtype=np.int64)
        assert _boundary_movers(g, labels, 0) == [(-2.0, 2, 2), (-1.0, 1, 1)]

    def test_restore_window_underweight_pull(self):
        """The vectorized pull-in branch refills an underweight class."""
        g = grid_graph(8, 8)
        w = np.ones(g.n)
        res = min_max_partition(g, 4, weights=w)
        labels = res.labels.copy()
        w2 = w.copy()
        w2[labels == 2] *= 0.9  # class 2 falls just under the window
        lo0, _ = strict_window(w2, 4)
        assert np.bincount(labels, weights=w2, minlength=4)[2] < lo0 - 1e-9
        assert restore_window(g, labels, w2, 4)
        lo, hi = strict_window(w2, 4)
        cw = np.bincount(labels, weights=w2, minlength=4)
        assert np.all(cw <= hi + 1e-9) and np.all(cw >= lo - 1e-9)

    def test_local_repair_preserves_strict_balance(self):
        g = grid_graph(10, 10)
        w = zipf_weights(g, rng=1)
        res = min_max_partition(g, 5, weights=w)
        labels = res.labels.copy()
        dirty = np.arange(0, 30, dtype=np.int64)
        local_repair(g, labels, w, 5, dirty)
        assert Coloring(labels, 5).is_strictly_balanced(w, tol=1e-7)

    def test_local_repair_improves_perturbed_boundary(self):
        g = grid_graph(10, 10)
        w = np.ones(g.n)
        res = min_max_partition(g, 4, weights=w)
        labels = res.labels.copy()
        # vandalize: swap a stripe of vertices between two classes
        stripe = np.flatnonzero(labels == 0)[:6]
        labels[stripe] = 1
        restore_window(g, labels, w, 4)
        before = Coloring(labels.copy(), 4).max_boundary(g)
        local_repair(g, labels, w, 4, stripe)
        after = Coloring(labels, 4).max_boundary(g)
        assert after <= before + 1e-9

    def test_empty_dirty_is_noop(self):
        g = grid_graph(6, 6)
        w = np.ones(g.n)
        labels = (np.arange(g.n) % 4).astype(np.int64)
        assert local_repair(g, labels, w, 4, np.zeros(0, dtype=np.int64)) == 0

    def test_pairwise_refine_movable_mask(self):
        g = grid_graph(8, 8)
        w = np.ones(g.n)
        res = min_max_partition(g, 2, weights=w)
        labels = res.labels.copy()
        lo, hi = strict_window(w, 2)
        movable = np.zeros(g.n, dtype=bool)
        movable[:8] = True
        frozen_before = labels[8:].copy()
        pairwise_refine(g, labels, w, 0, 1, lo, hi, movable=movable)
        assert np.array_equal(labels[8:], frozen_before)


class TestStreamSession:
    def test_policies_registry(self):
        assert POLICIES == ("repair", "patch", "recompute")

    @pytest.mark.parametrize("policy", POLICIES)
    def test_session_stays_strictly_balanced(self, policy):
        from repro.runtime import build_instance

        s = stream_scenario(params={"policy": policy})
        session = StreamSession(build_instance(s), s)
        while session.trace_remaining:
            summary = session.step()
            assert summary["max_boundary"] >= 0
        assert session.metrics()["strictly_balanced"]
        counts = session.counters()
        assert counts["steps"] == 4
        if policy == "recompute":
            assert counts["recomputes"] == 4 and counts["repairs"] == 0

    def test_trace_exhaustion_raises(self):
        from repro.runtime import build_instance

        s = stream_scenario(params={"steps": 1})
        session = StreamSession(build_instance(s), s)
        session.step()
        with pytest.raises(MutationError, match="trace exhausted"):
            session.step()

    def test_explicit_mutations(self):
        from repro.runtime import build_instance

        s = stream_scenario()
        session = StreamSession(build_instance(s), s)
        summary = session.apply_mutations([["weight", 0, 5.0], ["cost", 0, 1, 2.0]])
        assert summary["mutations"] == 2 and summary["dirty"] == 2
        assert session.state.weights[0] == 5.0

    def test_snapshot_deterministic(self):
        from repro.runtime import build_instance

        s = stream_scenario()
        snaps = []
        for _ in range(2):
            session = StreamSession(build_instance(s), s)
            while session.trace_remaining:
                session.step()
            snaps.append(canonical_record(session.snapshot()))
        assert snaps[0] == snaps[1]

    def test_bad_params_rejected(self):
        from repro.runtime import build_instance

        s = stream_scenario(params={"policy": "nope"})
        with pytest.raises(ValueError, match="unknown policy"):
            StreamSession(build_instance(s), s)
        s = stream_scenario(params={"trace": "nope"})
        with pytest.raises(ValueError, match="unknown trace"):
            StreamSession(build_instance(s), s)

    def test_refresh_forces_recompute(self):
        from repro.runtime import build_instance

        s = stream_scenario(params={"steps": 4, "refresh": 2, "gamma": 100.0})
        session = StreamSession(build_instance(s), s)
        actions = [session.step()["action"] for _ in range(4)]
        assert "recompute-refresh" in actions

    def test_drift_monitor_triggers(self):
        from repro.runtime import build_instance

        # gamma so tight every repair trips the monitor
        s = stream_scenario(params={"gamma": 0.01, "refresh": 0})
        session = StreamSession(build_instance(s), s)
        actions = [session.step()["action"] for _ in range(2)]
        assert all(a != "repair" for a in actions)
        assert session.recomputes >= 1

    def test_drift_verdict_flips_at_gamma_times_last_full_cost(self):
        """A repaired step re-solves exactly when its cost exceeds gamma
        times the last full solve's."""
        from repro.runtime import build_instance

        def session_at(gamma):
            s = stream_scenario(size=12, params={"gamma": gamma, "refresh": 0})
            return StreamSession(build_instance(s), s)

        probe = session_at(1e9)
        full_cost = probe.last_full_cost
        first = probe.step()
        assert first["action"] == "repair"
        cost = first["max_boundary"]
        assert cost > 0 and full_cost > 0
        for factor, action in ((1.01, "repair"), (0.99, "recompute-drift")):
            session = session_at(factor * cost / full_cost)
            # neither the initial solve nor the trace depends on gamma
            assert session.last_full_cost == full_cost
            assert session.step()["action"] == action

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_gamma_rejected(self, gamma):
        from repro.runtime import build_instance

        s = stream_scenario(params={"gamma": gamma})
        with pytest.raises(ValueError, match="gamma must be a finite number > 0"):
            StreamSession(build_instance(s), s)


class TestStreamScenarios:
    def test_run_scenario_record_deterministic(self):
        s = stream_scenario()
        a = canonical_record(run_scenario(s).record())
        b = canonical_record(run_scenario(s).record())
        assert a == b

    def test_metrics_evaluated_on_final_graph(self):
        s = stream_scenario(params={"trace": "sliding-window", "steps": 3, "ops": 6})
        r = run_scenario(s)
        # sliding-window grows the edge set beyond the base grid
        assert r.metrics["stream_final_m"] != r.instance["m"]
        assert r.metrics["strictly_balanced"]
        assert r.metrics["stream_steps"] == 3

    def test_policy_axis_changes_scenario_id(self):
        a = stream_scenario(params={"policy": "repair"})
        b = stream_scenario(params={"policy": "recompute"})
        assert a.scenario_id() != b.scenario_id()
        # ...but not the shared instance (same shard, same cache entry)
        assert a.instance_hash() == b.instance_hash()

    def test_run_stream_scenario_quality_close_to_recompute(self):
        from repro.runtime import build_instance

        base = stream_scenario(params={"steps": 5, "ops": 6})
        inst = build_instance(base)
        rep = run_stream_scenario(inst, base)
        rec = run_stream_scenario(
            inst, base.with_(params={**base.param_dict, "policy": "recompute"})
        )
        # same trace replayed (policy excluded from trace seed): final edge
        # sets agree, and repair quality is within the drift envelope
        assert rep["stream_hash"] == rec["stream_hash"]
        assert rep["max_boundary"] <= 2.0 * max(rec["max_boundary"], 1e-9)
