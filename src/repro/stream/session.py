"""Stateful streaming sessions: trace replay, repair policies, snapshots.

A :class:`StreamSession` owns one evolving instance: the mutable
:class:`~repro.stream.mutations.GraphState`, the current decomposition, the
pre-generated mutation trace, and the repair policy.  It is the unit the
service keeps per ``open_stream`` request (pinned to one shard) and the unit
``repro sweep`` replays for streaming scenarios.

Repair policies (the ``policy`` scenario param):

* ``repair`` — localized repair plus the drift monitor: a full solve is
  triggered only when the repaired max boundary cost exceeds
  ``gamma ×`` the last full solve's.
* ``patch`` — localized repair only, never recompute on drift (the ablation
  showing what the monitor buys).
* ``recompute`` — full Theorem 4 solve after every batch (the quality and
  speed baseline).

Determinism contract: every quantity in :meth:`StreamSession.snapshot` is a
pure function of (scenario spec, mutation sequence) — traces are seeded from
the instance spec, solves from the scenario — so the same trace and policy
produce byte-identical snapshots whatever process, shard count, or host
replayed them.  Wall-clock lives in ``repair_seconds`` and
``recompute_seconds``, outside the snapshot.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ..core.coloring import Coloring
from ..obs import registry as _telemetry
from ..obs import span
from .mutations import GraphState, Mutation, MutationError
from .repair import local_repair, restore_window, seed_new_vertices
from .traces import TRACES, make_trace

__all__ = [
    "POLICIES",
    "ReplayError",
    "StreamSession",
    "replay_session",
    "run_stream_scenario",
    "stream_coloring",
    "stream_params",
]

POLICIES = ("repair", "patch", "recompute")


class ReplayError(RuntimeError):
    """A journal replay diverged from the fingerprints it recorded.

    Raised when a rebuilt session's ``(version, hash)`` disagrees with what
    the original worker acknowledged — the one condition under which crash
    recovery must refuse to hand back a session (a silently different state
    would break the byte-identity contract, not just this request).
    """

#: scenario params consumed by the streaming layer itself; everything else
#: passes through to the solver (oracle, p, refine) or trace (radius, ...).
_STREAM_PARAM_DEFAULTS = {
    "trace": "random-churn",
    "steps": 16,
    "ops": 8,
    "policy": "repair",
    "gamma": 1.25,
    "refresh": 8,
    "solver": "minmax",
}


def _round(x: float) -> float:
    """12-significant-digit rounding, matching the sweep results schema."""
    if x == 0 or not math.isfinite(x):
        return float(x)
    return float(f"{x:.12g}")


def stream_params(scenario) -> dict:
    """The streaming layer's own params of ``scenario``, defaults filled in.

    Raises ``ValueError`` on a value no session could run with, so a
    command can refuse a bad cell before any session opens.
    """
    from ..runtime.algorithms import ALGORITHMS

    given = scenario.param_dict
    # each value takes its default's type: str, int or float
    out = {name: type(default)(given.get(name, default))
           for name, default in _STREAM_PARAM_DEFAULTS.items()}
    if out["policy"] not in POLICIES:
        raise ValueError(f"unknown policy {out['policy']!r} (have {', '.join(POLICIES)})")
    # NaN would switch the drift monitor off, gamma <= 0 would turn every
    # repaired step into a full solve
    if not (math.isfinite(out["gamma"]) and out["gamma"] > 0):
        raise ValueError(f"gamma must be a finite number > 0, got {out['gamma']!r}")
    if out["trace"] not in TRACES:
        raise ValueError(
            f"unknown trace {out['trace']!r} (have {', '.join(sorted(TRACES))})"
        )
    # "stream" would recurse (full solve -> new session -> full solve …)
    if out["solver"] == "stream" or out["solver"] not in ALGORITHMS:
        have = ", ".join(sorted(set(ALGORITHMS) - {"stream"}))
        raise ValueError(f"unknown solver {out['solver']!r} (have {have})")
    return out


class StreamSession:
    """One streaming decomposition: mutable instance + coloring + policy."""

    def __init__(self, instance, scenario):
        from ..runtime.scenario import derive_seed

        self.scenario = scenario
        params = scenario.param_dict
        p = stream_params(scenario)
        self.trace_kind, self.total_steps, self.ops = p["trace"], p["steps"], p["ops"]
        self.policy, self.gamma, self.solver = p["policy"], p["gamma"], p["solver"]
        self.refresh = p["refresh"]
        self.k = scenario.k
        self.state = GraphState.from_graph(instance.graph, instance.weights)
        # the trace is seeded from the *instance* spec plus trace shape only,
        # never the policy: repair and recompute policies replay the same
        # mutations, which is what makes quality ratios well-defined
        trace_extras = {
            name: params[name]
            for name in ("radius", "growth", "inflate", "attach")
            if name in params
        }
        trace_seed = derive_seed(
            {
                "instance": scenario.instance_spec(),
                "trace": self.trace_kind,
                "steps": self.total_steps,
                "ops": self.ops,
                **trace_extras,
            },
            salt="trace",
        )
        self._trace = make_trace(
            self.trace_kind, self.state, self.total_steps, self.ops, trace_seed,
            **trace_extras,
        )
        self._cursor = 0
        self.steps_taken = 0
        self.repairs = 0
        self.recomputes = 0
        self.refined_pairs = 0
        self.mutations_applied = 0
        self.repair_seconds = 0.0
        self.recompute_seconds = 0.0
        self.coloring: Coloring | None = None
        self.last_full_cost = 0.0
        self.steps_since_full = 0
        #: per-step result dicts of the most recent replayed op (set by
        #: :func:`replay_session`); lets a handoff synthesize the reply an
        #: interrupted-but-journaled mutate never delivered
        self.last_replay_results: list[dict] | None = None
        self._full_solve(initial=True)

    # ------------------------------------------------------------------
    def _solver_scenario(self):
        return self.scenario.with_(algorithm=self.solver)

    def _full_solve(self, initial: bool = False) -> None:
        from ..runtime.algorithms import run_algorithm
        from ..runtime.instances import Instance

        t0 = time.perf_counter()
        with span("stream.recompute"):
            g = self.state.graph()
            alive = self.state.alive
            if bool(alive.all()):
                inst = Instance(g, self.state.weights.copy())
                self.coloring = run_algorithm(inst, self._solver_scenario())
            else:
                # solvers assume every vertex participates; with dead slots
                # the live induced subgraph is the real instance — solve it
                # and lift labels back (dead slots stay uncolored)
                sub = g.subgraph(alive)
                inst = Instance(sub.graph, self.state.weights[alive].copy())
                sub_col = run_algorithm(inst, self._solver_scenario())
                labels = np.full(g.n, -1, dtype=np.int64)
                labels[sub.vertices] = sub_col.labels
                self.coloring = Coloring(labels, self.k)
        self.recompute_seconds += time.perf_counter() - t0
        self.last_full_cost = self.coloring.max_boundary(self.state.graph())
        self.steps_since_full = 0
        if not initial:
            self.recomputes += 1

    @property
    def trace_remaining(self) -> int:
        return len(self._trace) - self._cursor

    # ------------------------------------------------------------------
    def step(self) -> dict:
        """Apply the next trace batch and repair; returns a summary dict."""
        if self._cursor >= len(self._trace):
            raise MutationError(
                f"trace exhausted after {len(self._trace)} steps "
                f"(open with a larger 'steps' param)"
            )
        batch = self._trace[self._cursor]
        self._cursor += 1
        return self._apply_batch(batch)

    def apply_mutations(self, wire_mutations: list) -> dict:
        """Apply an explicit client-supplied mutation batch."""
        batch = [Mutation.from_wire(m) for m in wire_mutations]
        return self._apply_batch(batch)

    def replay_op(self, op: dict) -> list[dict]:
        """Re-execute one journaled mutate op (``{"steps": n}`` or
        ``{"mutations": [...]}``) — the recovery counterpart of the service's
        mutate request shapes.  Returns the per-step result dicts the
        original mutate reply carried (replay is deterministic, so they are
        byte-identical to the originals)."""
        if "mutations" in op:
            return [self.apply_mutations(op["mutations"])]
        return [self.step() for _ in range(int(op.get("steps", 1)))]

    def fingerprint(self) -> dict:
        """The ``(version, hash)`` pair journals stamp on every entry."""
        return {"version": self.state.version, "hash": self.state.structural_hash()}

    def _apply_batch(self, batch: list) -> dict:
        with span("stream.step"):
            return self._apply_batch_inner(batch)

    def _apply_batch_inner(self, batch: list) -> dict:
        dirty = self.state.apply(batch)
        self.steps_taken += 1
        self.steps_since_full += 1
        self.mutations_applied += len(batch)
        g = self.state.graph()
        w = self.state.weights
        action = "repair"
        if self.policy == "recompute":
            action = "recompute"
        else:
            t0 = time.perf_counter()
            with span("stream.repair"):
                labels = self.coloring.labels
                if labels.size != self.state.n:
                    grown = np.full(self.state.n, -1, dtype=labels.dtype)
                    grown[: labels.size] = labels
                    labels = grown
                if dirty.removed.size:
                    labels[dirty.removed] = -1
                if dirty.added.size:
                    # arrived/revived vertices: place by boundary gain first,
                    # then let the window restorer and halo FM treat them as
                    # ordinary movable vertices
                    seed_new_vertices(g, labels, w, self.k, dirty.added)
                balanced = restore_window(g, labels, w, self.k)
                refined = local_repair(g, labels, w, self.k, dirty.vertices)
            self.refined_pairs += refined
            self.coloring = Coloring(labels, self.k)
            self.repair_seconds += time.perf_counter() - t0
            cost = self.coloring.max_boundary(g)
            if not balanced:
                action = "recompute-balance"
            elif self.policy == "repair":
                # drift monitor
                if self.last_full_cost > 0 and cost > self.gamma * self.last_full_cost:
                    action = "recompute-drift"
                elif self.refresh > 0 and self.steps_since_full >= self.refresh:
                    # bounded staleness: the reference ages as mutations
                    # accumulate (the moving optimum may have dropped below
                    # it, blinding the drift test), so refresh periodically
                    action = "recompute-refresh"
        if action == "repair":
            self.repairs += 1
        else:
            # a full solve evaluates its own coloring's max boundary
            self._full_solve()
            cost = self.last_full_cost
        # telemetry: the drift monitor's verdicts, aggregable across every
        # session a worker hosts (action cardinality is the fixed policy
        # outcome set, so it is label-safe for /metrics)
        reg = _telemetry()
        reg.counter("stream_steps", action=action).inc()
        reg.counter("stream_mutations").inc(len(batch))
        return {
            "step": self.steps_taken,
            "version": self.state.version,
            "mutations": len(batch),
            "dirty": int(dirty.vertices.size),
            "action": action,
            "max_boundary": _round(cost),
        }

    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Standard coloring metrics evaluated on the *current* graph."""
        from ..analysis import record_metrics

        return record_metrics(self.state.graph(), self.coloring, self.state.weights, self.k)

    def counters(self) -> dict:
        return {
            "steps": self.steps_taken,
            "mutations": self.mutations_applied,
            "repairs": self.repairs,
            "recomputes": self.recomputes,
            "refined_pairs": self.refined_pairs,
        }

    def snapshot(self) -> dict:
        """Deterministic state fingerprint + audit metrics (no volatiles)."""
        return {
            "version": self.state.version,
            "structural_hash": self.state.structural_hash(),
            "n": self.state.n,
            "m": self.state.m,
            "k": self.k,
            "trace": self.trace_kind,
            "policy": self.policy,
            "metrics": {
                key: (_round(val) if isinstance(val, float) else val)
                for key, val in self.metrics().items()
            },
            "counters": self.counters(),
        }


def _check_fingerprint(session: StreamSession, expect: dict, where: str) -> None:
    fp = session.fingerprint()
    for field in ("version", "hash"):
        want = expect.get(field)
        if want is not None and fp[field] != want:
            raise ReplayError(
                f"replay diverged at {where}: {field} {fp[field]!r} != journaled {want!r}"
            )


def replay_session(instance, scenario, ops, base=None, on_op=None) -> StreamSession:
    """Rebuild a :class:`StreamSession` from its journaled op log.

    The recovery entry point: constructs a fresh session from the scenario
    (trace, policy, and solver seeding are all derived, so the rebuild is
    deterministic), verifies the base state against the journal header's
    ``base`` fingerprint, then replays every op, checking the journaled
    ``(version, hash)`` after each — a recovered session is byte-identical
    to one that never crashed, or :class:`ReplayError` is raised and the
    caller must report the session lost.

    ``on_op(index, session)`` is a hook fired before each op is applied;
    the fault-injection harness uses it to crash *during* replay.
    """
    session = StreamSession(instance, scenario)
    if base is not None:
        _check_fingerprint(session, base, "base state")
    for index, op in enumerate(ops):
        if on_op is not None:
            on_op(index, session)
        session.last_replay_results = session.replay_op(op)
        _check_fingerprint(session, op, f"op {index + 1}/{len(ops)}")
    return session


def stream_coloring(instance, scenario) -> Coloring:
    """ALGORITHMS-registry entry point: replay the scenario's whole trace
    and return the final coloring (labels over the final index space;
    soft-deleted vertices are uncolored)."""
    session = StreamSession(instance, scenario)
    while session.trace_remaining:
        session.step()
    return session.coloring


def run_stream_scenario(instance, scenario) -> dict:
    """Replay a streaming scenario end to end; returns the metrics block
    the sweep engine records.

    Standard coloring metrics are evaluated on the *final mutated* graph
    (that is the instance the final coloring decomposes), extended with the
    streaming counters and the final structural hash — all deterministic.
    """
    session = StreamSession(instance, scenario)
    while session.trace_remaining:
        session.step()
    metrics = session.metrics()
    metrics.update(
        {f"stream_{name}": val for name, val in session.counters().items()}
    )
    metrics["stream_final_m"] = session.state.m
    metrics["stream_hash"] = session.state.structural_hash()
    return metrics
