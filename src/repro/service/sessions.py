"""Worker-side registry for stateful streaming sessions.

A :class:`~repro.stream.StreamSession` lives its whole life inside **one**
shard worker process: the server routes every request for a session to the
shard that opened it (by the scenario's instance hash, the same routing the
batch path uses), so session state never crosses a process boundary and no
cross-shard coordination exists to break determinism.

``session_call`` is the single executor entry point — a plain top-level
function taking one picklable payload dict and returning one JSON-ready
outcome dict, mirroring :func:`~repro.service.shards.shard_run` for batches.
The registry is a module global: each worker process (or the inline worker
thread when ``shards=0``) holds exactly the sessions routed to it.

Crash recovery: the ``restore`` op rebuilds a session from its journaled
mutation log (see :mod:`repro.stream.journal`) via
:func:`~repro.stream.session.replay_session`, verifying the journal's
``(version, hash)`` fingerprints at every step — the server drives it after
a shard respawn, turning ``session lost`` into a recovery path.

Fault injection: :func:`maybe_fault` is a crash hook compiled into the
worker paths the recovery machinery must survive.  It is inert unless the
``REPRO_FAULT_PLAN`` environment variable points at a plan file (written by
``tests/faultinject.py``), in which case a matching call point hard-kills
the worker process — the controllable shard-killer the chaos tests and the
CI chaos-smoke job drive.
"""

from __future__ import annotations

import json
import os
import pathlib

from ..stream import ReplayError, StreamSession, UnknownMutationError, replay_session

__all__ = ["session_call", "drop_namespace", "maybe_fault"]

#: session id -> live session, per worker process.  Ids arrive prefixed
#: with the owning pool's namespace (see ``ShardPool.submit_session``), so
#: two pools in one process — the inline ``shards=0`` mode — cannot collide.
_SESSIONS: dict[str, StreamSession] = {}

#: env var naming the fault-plan file; absent (the production case) the
#: fault hook is a dict lookup and a return
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: cached parsed fault plan; ``False`` = not loaded yet, ``None`` = no plan
_FAULT_PLAN: list | None | bool = False


def _fault_plan() -> list | None:
    global _FAULT_PLAN
    if _FAULT_PLAN is False:
        path = os.environ.get(FAULT_PLAN_ENV)
        if not path:
            _FAULT_PLAN = None
        else:
            try:
                doc = json.loads(pathlib.Path(path).read_text())
                _FAULT_PLAN = list(doc.get("faults", []))
            except (OSError, ValueError):
                _FAULT_PLAN = None  # an unreadable plan must not break serving
    return _FAULT_PLAN


def reset_fault_plan() -> None:
    """Forget the cached plan (tests re-arm within one process)."""
    global _FAULT_PLAN
    _FAULT_PLAN = False


def maybe_fault(point: str, session: str | None = None, version: int | None = None) -> None:
    """Hard-kill this worker if an armed fault spec matches ``point``.

    A spec matches on the point name, optionally on the session id (suffix
    match, because worker-side ids carry the pool namespace) and the state
    version at the call site.  Each spec fires at most once across every
    process via an ``O_EXCL`` marker file, and never fires in the process
    that armed the plan (``armed_pid``) — the inline ``shards=0`` worker is
    a *thread*, and killing it would take the server down with it.
    """
    plan = _fault_plan()
    if not plan:
        return
    for spec in plan:
        if spec.get("point") != point:
            continue
        if spec.get("armed_pid") == os.getpid():
            continue
        want_sid = spec.get("session")
        if want_sid is not None and not (
            session == want_sid or (session or "").endswith(":" + want_sid)
        ):
            continue
        if spec.get("version") is not None and spec["version"] != version:
            continue
        marker = spec.get("marker")
        if marker:
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                continue  # this spec already fired (possibly in another worker)
        os._exit(59)  # simulate a hard crash: no cleanup, no exception


def drop_namespace(namespace: str) -> int:
    """Drop every session of one pool namespace (inline-pool teardown)."""
    doomed = [sid for sid in _SESSIONS if sid.startswith(namespace + ":")]
    for sid in doomed:
        del _SESSIONS[sid]
    return len(doomed)


def _instance_for(scenario):
    """Build the base instance, through the worker's cache when installed."""
    from ..runtime import engine

    if engine._WORKER_CACHE is not None:
        return engine._WORKER_CACHE.get(scenario)
    from ..runtime.instances import build_instance

    return build_instance(scenario)


def session_call(payload: dict) -> dict:
    """Execute one session operation inside the owning worker.

    Payload shapes (``session`` is always present)::

        {"op": "open", "session": id, "scenario": Scenario}
        {"op": "mutate", "session": id, "steps": n}
        {"op": "mutate", "session": id, "mutations": [wire, ...]}
        {"op": "snapshot", "session": id}
        {"op": "close", "session": id}
        {"op": "restore", "session": id, "scenario": Scenario,
         "base": {"version", "hash"}, "ops": [journal op, ...]}

    Every outcome is ``{"ok": True, ...}`` or ``{"ok": False, "error": ...}``;
    exceptions never cross the executor boundary raw, so one bad mutation
    cannot poison the worker.  Mutate payloads with ``fingerprint: True``
    (sent by journaling servers only — the hash is O(m)) get the post-batch
    ``state`` fingerprint back for the journal entry; the server strips it
    from client responses.
    """
    try:
        op = payload["op"]
        sid = payload["session"]
        if op == "open":
            if sid in _SESSIONS:
                return {"ok": False, "error": f"session {sid!r} already exists"}
            scenario = payload["scenario"]
            session = StreamSession(_instance_for(scenario), scenario)
            maybe_fault("open", session=sid, version=session.state.version)
            _SESSIONS[sid] = session
            return {"ok": True, "opened": True, "snapshot": session.snapshot()}
        if op == "restore":
            scenario = payload["scenario"]
            ops = payload.get("ops", [])

            def _on_op(index, replaying):
                maybe_fault("restore", session=sid, version=replaying.state.version)

            try:
                session = replay_session(
                    _instance_for(scenario), scenario, ops,
                    base=payload.get("base"), on_op=_on_op,
                )
            except ReplayError as exc:
                # divergence is terminal: a silently different state would
                # break byte-identity, so the server must report the loss
                return {"ok": False, "replay_diverged": True, "error": str(exc)}
            except UnknownMutationError as exc:
                # a journal written by a newer build (growth mutations this
                # host predates): refuse cleanly as a lost session instead
                # of surfacing an internal fault the caller would retry
                return {"ok": False, "session_lost": True, "unknown_mutation": True,
                        "error": f"session lost: unknown mutation during replay ({exc})"}
            # idempotent by design: a retried recovery replaces any stale
            # entry a half-finished earlier attempt might have registered
            _SESSIONS[sid] = session
            return {"ok": True, "restored": True, "replayed": len(ops),
                    "state": session.fingerprint(),
                    # results of the final replayed op: a cross-host handoff
                    # uses these to answer a journaled-but-unacknowledged
                    # mutate without re-applying it
                    "last_results": session.last_replay_results}
        session = _SESSIONS.get(sid)
        if session is None:
            # unknown_session lets the server distinguish "this worker lost
            # its state" (respawn after a crash) from ordinary bad requests,
            # which the server already rejects before routing here
            return {"ok": False, "unknown_session": True,
                    "error": f"unknown session {sid!r}"}
        if op == "mutate":
            maybe_fault("mutate:before", session=sid, version=session.state.version)
            pre_vertex_set = (session.state.n, session.state.n_alive)
            if "mutations" in payload:
                results = [session.apply_mutations(payload["mutations"])]
            else:
                steps = int(payload.get("steps", 1))
                if steps > session.trace_remaining:
                    # refuse atomically: applying a prefix and then failing
                    # would silently desync a replaying client's accounting
                    return {"ok": False, "error":
                            f"trace exhausted: {session.trace_remaining} step(s) "
                            f"remaining, {steps} requested"}
                results = [session.step() for _ in range(steps)]
            maybe_fault("mutate:after", session=sid, version=session.state.version)
            if (session.state.n, session.state.n_alive) != pre_vertex_set:
                # this batch grew or shrank the vertex set: a dedicated
                # crash point so chaos runs can kill a worker specifically
                # mid-add_vertex/remove_vertex, after apply, before ack
                maybe_fault("mutate:grow", session=sid, version=session.state.version)
            out = {"ok": True, "results": results}
            if payload.get("fingerprint"):
                # the journal's (version, hash) stamp — an O(m) content
                # hash, so only computed when the server actually journals
                out["state"] = session.fingerprint()
            return out
        if op == "snapshot":
            maybe_fault("snapshot", session=sid, version=session.state.version)
            return {"ok": True, "snapshot": session.snapshot()}
        if op == "close":
            del _SESSIONS[sid]
            return {
                "ok": True,
                "closed": True,
                "counters": session.counters(),
                "snapshot": session.snapshot(),
            }
        return {"ok": False, "error": f"unknown session op {op!r}"}
    except Exception as exc:  # noqa: BLE001 — the wire carries the reason
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
