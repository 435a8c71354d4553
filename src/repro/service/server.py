"""The decomposition service: coalescing front-end + asyncio TCP server.

Request path (all on the event loop)::

    parse/validate ──> coloring-cache lookup ──> in-flight coalescing
                                   │ miss               │ new
                                   └──────> micro-batcher ──> shard pool

* **Cache hit** — answered immediately from the LRU record cache.
* **Coalesced** — an identical request is already computing; this one awaits
  the same future, so N concurrent duplicates cost one decomposition.
* **Miss** — joins the micro-batch of its event-loop turn, which is
  dispatched on the next turn (no timer holds it); the batch is split by
  instance hash across the persistent shards and each sub-batch runs as one
  executor call.

Determinism: records are pure functions of their scenario, the cache stores
exactly what the shards return, and responses carry no volatile fields — so
response bodies are byte-identical across shard counts, batch boundaries,
and hot/cold caches.
"""

from __future__ import annotations

import asyncio
import pathlib
import random
from collections import defaultdict
from time import perf_counter

from ..obs import (
    events,
    merge_snapshots,
    registry as obs_registry,
    render_prometheus,
    start_metrics_server,
    telemetry_enabled,
)
from ..separators import solver_stats
from .batcher import MicroBatcher
from .cache import ColoringCache
from .protocol import (
    PROTOCOL_VERSION,
    STREAM_OPS,
    ProtocolError,
    encode,
    parse_request,
    scenario_from_spec,
    stream_request_fields,
)
from .shards import ShardPool

__all__ = [
    "DecompositionService",
    "ServiceError",
    "run_line_server",
    "serve",
    "timed_request_handler",
]

#: base delay and ceiling of the jittered exponential backoff between
#: recovery attempts — a shard that keeps dying (bad native lib, OOM loop)
#: must not be respawn-hammered by a tight replay/retry loop
_RECOVERY_BACKOFF_S = 0.05
_RECOVERY_BACKOFF_CAP_S = 1.0

#: on stop, how long in-flight responses get to complete before their
#: connections are closed (connections owing nothing close at once)
SHUTDOWN_GRACE_S = 5.0


class ServiceError(Exception):
    """A request failed inside a shard; the message goes back on the wire."""


class DecompositionService:
    """Ties the cache, batcher, and shard pool together behind ``submit``.

    With ``journal_dir`` set, streaming sessions are additionally
    **crash-safe**: every acknowledged mutate is appended to the session's
    on-disk mutation journal, and when a shard worker dies the server
    replays the journal into the respawned worker and retries the
    interrupted request — the recovered session is byte-identical to one
    that never crashed (replay verifies the journaled ``(version, hash)``
    fingerprints at every step).  Without a journal directory — or with
    ``recovery=False`` — a crash surfaces as ``session lost`` exactly as
    before.
    """

    def __init__(
        self,
        shards: int = 2,
        cache_size: int = 1024,
        max_batch_size: int = 32,
        cache_dir=None,
        npz_root=None,
        cache_max_bytes: int | None = None,
        max_sessions: int = 64,
        session_ttl: float = 900.0,
        journal_dir=None,
        recovery: bool = True,
        recovery_attempts: int = 3,
        slow_request_s: float | None = None,
    ):
        # the cache and batcher validate their sizes before the pool exists,
        # so a rejected size leaves nothing behind that would need closing
        self.cache = ColoringCache(maxsize=cache_size, max_bytes=cache_max_bytes)
        self.batcher = MicroBatcher(self._run_batch, max_batch_size=max_batch_size)
        self.pool = ShardPool(shards=shards, cache_dir=cache_dir)
        #: crash-safe streaming: with a journal directory, every session's
        #: mutation log is persisted (append-only, fsync-batched) and a
        #: session whose worker crashed is rebuilt by replaying the log into
        #: the respawned worker — ``recovery=False`` is the escape hatch
        #: that keeps journaling but restores the old terminal-loss behavior
        self.journal = None
        if journal_dir is not None:
            from ..stream import JournalStore

            try:
                self.journal = JournalStore(journal_dir)
                # startup sweep: sessions never survive a server restart, so
                # any leftover journal is an orphan holding disk for a dead
                # session (sound: the store holds the directory owner lock)
                self.journal.sweep(live_sessions=())
            except Exception:
                # an unusable or already-owned journal dir fails the
                # constructor; release what was built (the pool's executors
                # are still lazy — no processes spawned — and a half-built
                # server must not keep the directory flock either)
                if self.journal is not None:
                    self.journal.close()
                self.pool.close()
                raise
        self.recovery = bool(recovery) and self.journal is not None
        self.recovery_attempts = max(1, int(recovery_attempts))
        #: streaming sessions: id -> {"shard": owner, "lock": per-session
        #: ordering lock, "last_used": loop time}.  The shard is pinned at
        #: open time (instance-hash routing), so a session's state stays
        #: inside one worker for life.
        self._sessions: dict[str, dict] = {}
        self.max_sessions = int(max_sessions)
        #: sessions idle longer than this (seconds) are expirable — a client
        #: that vanished without close_stream must not hold its slot and its
        #: worker-side state forever.  Expiry is enforced lazily when the
        #: session limit is hit, so no background task is needed.
        self.session_ttl = float(session_ttl) if session_ttl else None
        self.sessions_opened = 0
        self.sessions_closed = 0
        self.sessions_lost = 0
        self.sessions_expired = 0
        self.sessions_recovered = 0
        #: sessions rebuilt here from *another* host's journal (the ring
        #: router's ``restore_stream`` handoff op)
        self.sessions_restored = 0
        #: directory npz refs are confined to; None disables them entirely —
        #: a remote peer must not get to open arbitrary server-side paths
        self.npz_root = pathlib.Path(npz_root).resolve() if npz_root is not None else None
        self._inflight: dict[str, asyncio.Future] = {}
        self.requests = 0
        self.coalesced = 0
        self.errors = 0
        #: requests slower than this (seconds) emit a ``request.slow`` event
        #: (``repro serve --slow-ms``); None disables the classifier
        self.slow_request_s = slow_request_s

    def _authorize(self, scenario) -> None:
        if scenario.family != "npz":
            return
        if self.npz_root is None:
            raise ProtocolError("npz refs are disabled (start serve with --npz-root)")
        path = pathlib.Path(str(scenario.param_dict.get("path", ""))).resolve()
        if not path.is_relative_to(self.npz_root):
            raise ProtocolError(f"npz path must live under {self.npz_root}")

    async def submit(self, scenario) -> dict:
        """Resolve one scenario to its result record (cache/coalesce/compute)."""
        self._authorize(scenario)
        self.requests += 1
        key = scenario.scenario_id()
        record = self.cache.get(key)
        if record is not None:
            return record
        future = self._inflight.get(key)
        if future is not None:
            self.coalesced += 1
        else:
            future = asyncio.get_running_loop().create_future()
            self._inflight[key] = future
            self.batcher.add((key, scenario))
        # shield: cancelling one waiter (its client hung up mid-request)
        # must not cancel the shared future out from under coalesced
        # siblings still awaiting the same computation
        return await asyncio.shield(future)

    async def _run_batch(self, batch) -> None:
        groups = defaultdict(list)
        for key, scenario in batch:
            groups[self.pool.shard_for(scenario)].append((key, scenario))

        async def run_group(shard, items):
            try:
                outcomes = await self.pool.submit_batch(shard, [s for _, s in items])
            except Exception as exc:  # executor/pool failure: fail the group
                outcomes = [{"ok": False, "error": f"{type(exc).__name__}: {exc}"}] * len(items)
            for (key, _), outcome in zip(items, outcomes):
                future = self._inflight.pop(key, None)
                if outcome.get("ok"):
                    self.cache.put(key, outcome["record"])
                    if future is not None and not future.done():
                        future.set_result(outcome["record"])
                else:
                    self.errors += 1
                    if future is not None and not future.done():
                        future.set_exception(ServiceError(outcome.get("error", "unknown")))
                        # mark retrieved now: every waiter may already be
                        # gone, and an unretrieved exception dumps a GC-time
                        # traceback into the server log per hostile client
                        future.exception()

        await asyncio.gather(*(run_group(s, items) for s, items in groups.items()))

    async def stream_request(self, op: str, req: dict) -> dict:
        """Resolve one streaming-session request against the owning shard.

        Per-session ordering: every op for a session serializes behind its
        ``asyncio.Lock``, so pipelined mutates from a client apply in arrival
        order — which is what makes the snapshot determinism contract (same
        mutation sequence => same bytes) meaningful over a pipelined wire.
        """
        fields = stream_request_fields(req)
        sid = fields["session"]
        if op == "open_stream":
            if sid in self._sessions:
                raise ProtocolError(f"session {sid!r} already exists")
            if len(self._sessions) >= self.max_sessions:
                await self._expire_idle_sessions()
            if len(self._sessions) >= self.max_sessions:
                raise ProtocolError(f"session limit reached ({self.max_sessions})")
            scenario = fields["scenario"]
            self._authorize(scenario)
            shard = self.pool.shard_for(scenario)
            # reserve synchronously (no await between check and set), so a
            # concurrent duplicate open fails fast instead of double-opening
            entry = {
                "shard": shard,
                "scenario": scenario,  # recovery rebuilds the session from it
                "lock": asyncio.Lock(),
                "last_used": asyncio.get_running_loop().time(),
                "pending": 0,  # ops queued on the lock; expiry must not reap
            }
            self._sessions[sid] = entry
            async with entry["lock"]:
                outcome = await self.pool.submit_session(
                    shard, {"op": "open", "session": sid, "scenario": scenario}
                )
                if outcome.get("ok") and self.journal is not None:
                    # journal only acknowledged opens — inside the lock, so a
                    # pipelined mutate cannot run before its journal exists;
                    # the header's base fingerprint anchors every replay
                    snap = outcome["snapshot"]
                    try:
                        self.journal.create(sid, {
                            "scenario": scenario.spec(),
                            "base": {"version": snap["version"],
                                     "hash": snap["structural_hash"]},
                        })
                    except OSError as exc:
                        # a session the journal cannot cover must not open:
                        # drop the half-created journal (create may have
                        # registered file+fd before the header write died),
                        # free the worker-side state, and fail cleanly (a
                        # wedged entry would block the id until TTL expiry)
                        self.journal.delete(sid)
                        await self.pool.submit_session(
                            shard, {"op": "close", "session": sid}
                        )
                        outcome = {"ok": False,
                                   "error": f"journal unavailable: {exc}"}
            if not outcome.get("ok"):
                self._sessions.pop(sid, None)
                if self._state_lost(outcome):
                    # a worker crash mid-open is a loss too
                    raise self._session_lost(sid, op, outcome)
                raise ServiceError(outcome.get("error", "open failed"))
            self.sessions_opened += 1
            return {"ok": True, "session": sid, "snapshot": outcome["snapshot"]}
        if op == "restore_stream":
            return await self._restore_from_handoff(sid, fields)
        entry = self._sessions.get(sid)
        if entry is None:
            raise ProtocolError(f"unknown session {sid!r}")
        payload = {"session": sid, **{k: v for k, v in fields.items() if k != "session"}}
        payload["op"] = {"mutate": "mutate", "snapshot": "snapshot", "close_stream": "close"}[op]
        if self.journal is not None and op == "mutate":
            # ask the worker for the post-batch (version, hash) stamp the
            # journal entry needs; unjournaled servers skip the O(m) hash
            payload["fingerprint"] = True
        # counted before awaiting the lock, so a TTL expiry that currently
        # holds it can see this op coming and spare the session
        entry["pending"] += 1
        try:
            outcome = await self._locked_session_op(op, sid, entry, fields, payload)
        finally:
            entry["pending"] -= 1
        entry["last_used"] = asyncio.get_running_loop().time()
        if self._state_lost(outcome):
            # unrecoverable (no journal, recovery off, replay diverged, or
            # the shard kept dying): keeping the routing entry would zombie
            # the session — drop it (and its journal) so the id can be
            # reopened
            self._sessions.pop(sid, None)
            if self.journal is not None:
                self.journal.delete(sid)
            raise self._session_lost(sid, op, outcome)
        if not outcome.get("ok"):
            raise ServiceError(outcome.get("error", "session op failed"))
        if op == "close_stream":
            self._sessions.pop(sid, None)
            self.sessions_closed += 1
            if self.journal is not None:
                self.journal.delete(sid)
        # "state" is the journal's fingerprint, not part of the wire contract
        return {"ok": True, "session": sid,
                **{k: v for k, v in outcome.items() if k not in ("ok", "state")}}

    async def _restore_from_handoff(self, sid: str, fields: dict) -> dict:
        """Adopt a session handed off from another host (``restore_stream``).

        The ring router drives this after a host death or drain: it reads
        the dead owner's journal off shared storage and ships (scenario,
        base fingerprint, op log) here.  The owning worker replays the log
        with full fingerprint verification (byte-identity or
        :class:`~repro.stream.ReplayError`), the session registers exactly
        like an open, and — when this server journals — the replayed log is
        re-journaled locally, so the *next* failover can hand the session
        off again.  A live entry for the id is refused unless the request
        sets ``takeover`` (the router's handoffs always do, so a retried
        handoff replaces any half-adopted entry an earlier attempt left
        behind) — without the flag this op would let any client that knows
        a session id clobber another client's live session.
        """
        scenario = fields["scenario"]
        self._authorize(scenario)
        if sid in self._sessions and not fields.get("takeover"):
            raise ProtocolError(
                f"session {sid!r} already exists "
                f"(restore_stream needs 'takeover' to replace it)")
        if sid not in self._sessions and len(self._sessions) >= self.max_sessions:
            await self._expire_idle_sessions()
            if len(self._sessions) >= self.max_sessions:
                raise ProtocolError(f"session limit reached ({self.max_sessions})")
        shard = self.pool.shard_for(scenario)
        entry = {
            "shard": shard,
            "scenario": scenario,
            "lock": asyncio.Lock(),
            "last_used": asyncio.get_running_loop().time(),
            "pending": 0,
        }
        self._sessions[sid] = entry
        base = fields.get("base")
        ops = fields["ops"]
        async with entry["lock"]:
            outcome = await self.pool.submit_session(shard, {
                "op": "restore", "session": sid, "scenario": scenario,
                "base": base, "ops": ops,
            })
            if outcome.get("ok") and self.journal is not None:
                # re-journal the adopted log so this host can hand the
                # session off in turn (chained failovers A -> B -> C); the
                # journal entries round-trip verbatim — each op already
                # carries its steps/mutations and fingerprint stamp
                try:
                    self.journal.create(sid, {"scenario": scenario.spec(),
                                              "base": base})
                    for op_entry in ops:
                        self.journal.append(sid, op_entry)
                except OSError as exc:
                    self.journal.delete(sid)
                    await self.pool.submit_session(
                        shard, {"op": "close", "session": sid}
                    )
                    outcome = {"ok": False,
                               "error": f"journal unavailable: {exc}"}
        if not outcome.get("ok"):
            self._sessions.pop(sid, None)
            if self._state_lost(outcome):
                raise self._session_lost(sid, "restore_stream", outcome)
            raise ServiceError(outcome.get("error", "restore failed"))
        self.sessions_restored += 1
        events.emit("session.handoff_in", session=sid, replayed=len(ops))
        obs_registry().counter("sessions_handed_in").inc()
        reply = {"ok": True, "session": sid, "restored": True,
                 "replayed": int(outcome.get("replayed", len(ops)))}
        if outcome.get("last_results") is not None:
            # per-step results of the final replayed op — what lets the
            # router answer a journaled-but-unacknowledged mutate without
            # re-applying it (replay is deterministic, so these bytes equal
            # the reply the dead host never delivered)
            reply["last_results"] = outcome["last_results"]
        return reply

    async def _locked_session_op(self, op: str, sid: str, entry: dict,
                                 fields: dict, payload: dict) -> dict:
        """One session op under its lock: submit, recover, journal."""
        async with entry["lock"]:
            if self._sessions.get(sid) is not entry:
                # the session was closed or expired while we waited on the
                # lock: answer "unknown session" cleanly instead of probing
                # the worker and misreporting a reaped session as *lost*
                return {"ok": False, "error": f"unknown session {sid!r}"}
            outcome = await self.pool.submit_session(entry["shard"], payload)
            if self._state_lost(outcome) and self.recovery:
                # the crash path the journal exists for: replay the mutation
                # log into the respawned worker, then answer the queued
                # request — all under the session lock, so pipelined ops
                # behind us still apply in order on the recovered state
                outcome = await self._recover_and_retry(sid, entry, payload, outcome)
            if self.journal is not None and op == "mutate" and outcome.get("ok"):
                # journal-then-reply: an acknowledged mutate is always in the
                # log, an unacknowledged one never is — which is what makes
                # retry-after-replay apply each op exactly once
                logged = (
                    {"mutations": fields["mutations"]}
                    if "mutations" in fields else {"steps": fields["steps"]}
                )
                try:
                    sync_due = self.journal.append(
                        sid, {**logged, **outcome.get("state", {})})
                except OSError as exc:
                    # the mutate applied but can never be journaled: from
                    # here the journal would replay to a state one op behind
                    # what the worker acknowledged — a gapped log is a lie,
                    # so the session is terminally lost (worker state freed;
                    # the caller's _state_lost path drops entry + journal)
                    await self.pool.submit_session(
                        entry["shard"], {"op": "close", "session": sid}
                    )
                    outcome = {"ok": False, "session_lost": True,
                               "error": f"session lost: journal append "
                                        f"failed: {exc}"}
                else:
                    if sync_due:
                        # a batch fsync is due: run the disk barrier on a
                        # thread (still under the session lock, so
                        # per-session order holds) instead of stalling
                        # every other connection
                        try:
                            await asyncio.get_running_loop().run_in_executor(
                                None, self.journal.sync_session, sid
                            )
                        except OSError as exc:
                            # unlike a failed append, the entry IS in the
                            # log (write+flush succeeded) and same-host
                            # replay never needs the barrier — failing an
                            # applied op here would push the client into a
                            # double-applying retry; the unsynced count
                            # stays, so the next append retries the fsync.
                            # Swallowed for the client, never for the
                            # operator: a disk that cannot fsync is exactly
                            # what the event log exists to surface.
                            events.emit(
                                "journal.sync_error", session=sid,
                                error=f"{type(exc).__name__}: {exc}",
                            )
        return outcome

    @staticmethod
    def _state_lost(outcome: dict) -> bool:
        """True when the worker no longer holds the session's state."""
        return bool(outcome.get("session_lost") or outcome.get("unknown_session"))

    def _session_lost(self, sid: str, op: str, outcome: dict) -> ServiceError:
        """Record a terminal session loss and build the client's error.

        Every loss — in open, restore or a later op — counts in the
        ``stats`` block, in the registry's ``sessions_lost`` counter and as
        a ``session.lost`` event, so ``/metrics``, the event log and what
        clients see on the wire agree.  Every cause — executor break,
        respawned registry, exhausted or diverged replay — reads "session
        lost", so clients (and loadgen's report classifier) need one test.
        """
        self.sessions_lost += 1
        reason = str(outcome.get("error") or "worker state gone")
        if not reason.startswith("session lost"):
            reason = f"session lost: {reason}"
        events.emit("session.lost", session=sid, op=op, error=reason)
        obs_registry().counter("sessions_lost").inc()
        return ServiceError(reason)

    async def _recover_and_retry(self, sid: str, entry: dict, payload: dict,
                                 lost_outcome: dict) -> dict:
        """Rebuild a crashed session from its journal, then retry the op.

        Replays the journaled mutation log into the (already respawned)
        owning shard via the worker's ``restore`` op, verifying the
        journal's per-op fingerprints, and re-submits the interrupted
        request against the recovered state.  A crash *during* replay or
        between replay and retry loops around (each attempt respawns the
        shard), but never tightly: attempts are hard-capped at
        ``recovery_attempts`` and separated by jittered exponential backoff
        (base 50 ms, capped at 1s), with a typed
        ``session.recovery_retry`` event per failed attempt.  After the cap
        — or on a diverged or unreadable journal, which retrying cannot fix
        — the original lost outcome is returned and the caller surfaces the
        loss.
        """
        from ..stream import JournalError

        try:
            header, ops = self.journal.load(sid)
        except JournalError:
            return lost_outcome
        restore = {
            "op": "restore",
            "session": sid,
            "scenario": entry["scenario"],
            "base": header.get("base"),
            "ops": ops,
        }
        delay = _RECOVERY_BACKOFF_S
        for attempt in range(1, self.recovery_attempts + 1):
            if attempt > 1:
                await asyncio.sleep(delay * random.uniform(0.5, 1.5))
                delay = min(delay * 2.0, _RECOVERY_BACKOFF_CAP_S)
            restored = await self.pool.submit_session(entry["shard"], restore)
            if restored.get("unknown_mutation"):
                # the journal holds a mutation kind this build cannot replay
                # (written by a newer build — a mid-upgrade handoff): no
                # number of retries can fix it, and the worker's typed
                # "session lost: unknown mutation" reason must reach the
                # client instead of the generic lost outcome
                return restored
            if self._state_lost(restored):
                # killed mid-replay; the pool respawned, go again (after
                # backing off — see above)
                self._note_recovery_retry(sid, attempt, "killed during replay")
                continue
            if not restored.get("ok"):
                return lost_outcome  # diverged/corrupt: retrying cannot help
            retried = await self.pool.submit_session(entry["shard"], payload)
            if self._state_lost(retried):
                self._note_recovery_retry(
                    sid, attempt, "killed between replay and retry")
                continue
            self.sessions_recovered += 1
            events.emit("session.recovered", session=sid,
                        replayed_ops=len(ops), attempts=attempt)
            obs_registry().counter("sessions_recovered").inc()
            return retried
        return lost_outcome

    def _note_recovery_retry(self, sid: str, attempt: int, reason: str) -> None:
        events.emit("session.recovery_retry", session=sid, attempt=attempt,
                    max_attempts=self.recovery_attempts, reason=reason)
        obs_registry().counter("session_recovery_retries").inc()

    async def _expire_idle_sessions(self) -> None:
        """Close sessions idle beyond ``session_ttl`` to free their slots.

        Sessions deliberately outlive TCP connections (a streaming client
        may reconnect and continue), so connection reaping cannot free them;
        the TTL is what stops an abandoned session from holding a
        ``max_sessions`` slot and its worker-side state forever.
        """
        if self.session_ttl is None:
            return
        now = asyncio.get_running_loop().time()
        expired = [
            sid for sid, entry in self._sessions.items()
            if now - entry["last_used"] > self.session_ttl
        ]
        for sid in expired:
            entry = self._sessions.get(sid)
            if entry is None:
                continue
            async with entry["lock"]:
                # re-check under the lock: an op may have completed while we
                # waited (fresh last_used), or be queued on the lock right
                # now (pending > 0) — either way the client just resumed,
                # and expiring would destroy state the journal protects
                fresh = asyncio.get_running_loop().time()
                if entry["pending"] > 0 or fresh - entry["last_used"] <= self.session_ttl:
                    continue
                await self.pool.submit_session(
                    entry["shard"], {"op": "close", "session": sid}
                )
                # unregister under the lock: an op that queued during the
                # close above re-validates its entry on acquisition, so it
                # sees a clean "unknown session" rather than a lost one
                self._sessions.pop(sid, None)
                if self.journal is not None:
                    # expiry is a close the client never sent: the journal
                    # must go with the session or it would zombie on disk
                    self.journal.delete(sid)
                self.sessions_expired += 1
                events.emit("session.expired", session=sid,
                            idle_s=round(fresh - entry["last_used"], 3))

    async def stats_async(self) -> dict:
        """The ``stats`` wire-op payload: :meth:`stats`, the oracle cache
        tier (:func:`~repro.separators.solver_stats` over the merged registry
        snapshot, so every shard is asked once) and — when telemetry is on —
        that snapshot, with per-op latency histograms and span rollups."""
        doc = self.stats()
        merged = await self.telemetry_snapshot()
        doc["oracle_cache"] = solver_stats(merged)
        if telemetry_enabled():
            doc["telemetry"] = merged
        return doc

    async def telemetry_snapshot(self) -> dict:
        """Merged telemetry: the front-end registry plus every shard worker.

        Request histograms live in the front-end (timed around the whole
        handler); span rollups, solver counts and stream counters live in
        the workers that ran them — ``merge_snapshots`` sums both into one
        service-level view.  Service counters the ``stats`` op reports are
        mirrored in as gauges so a single ``/metrics`` scrape carries the
        whole operational picture.
        """
        snaps = [obs_registry().snapshot()]
        snaps.extend(await self.pool.metrics_snapshots())
        merged = merge_snapshots(snaps)
        gauges = merged["gauges"]
        cache = self.cache.stats()
        pool = self.pool.stats()
        for name, value in (
            ("service_requests", self.requests),
            ("service_coalesced", self.coalesced),
            ("service_errors", self.errors),
            ("cache_hits", cache.get("hits", 0)),
            ("cache_misses", cache.get("misses", 0)),
            ("cache_entries", cache.get("entries", 0)),
            ("sessions_open", len(self._sessions)),
            ("sessions_opened", self.sessions_opened),
            ("sessions_closed", self.sessions_closed),
            ("sessions_expired", self.sessions_expired),
            ("shard_respawns", pool.get("respawns", 0)),
        ):
            gauges[name] = value
        return merged

    def stats(self) -> dict:
        return {
            "protocol_version": PROTOCOL_VERSION,
            "requests": self.requests,
            "coalesced": self.coalesced,
            "errors": self.errors,
            "cache": self.cache.stats(),
            "batcher": self.batcher.stats(),
            "shards": self.pool.stats(),
            "sessions": {
                "open": len(self._sessions),
                "max": self.max_sessions,
                "opened": self.sessions_opened,
                "closed": self.sessions_closed,
                "lost": self.sessions_lost,
                "expired": self.sessions_expired,
                "recovered": self.sessions_recovered,
                "restored": self.sessions_restored,
            },
            **({"journal": self.journal.stats()} if self.journal is not None else {}),
        }

    async def close(self) -> None:
        await self.batcher.drain()
        self.pool.close()
        if self.journal is not None:
            self.journal.close()


#: hard cap on client-chosen trace ids — they are echoed and logged verbatim
_MAX_TRACE_ID = 128


async def _dispatch(service: DecompositionService, req: dict, stop: asyncio.Event) -> dict:
    rid = req.get("id")
    op = req.get("op")
    if op == "ping":
        return {"id": rid, "ok": True, "pong": PROTOCOL_VERSION}
    if op == "shutdown":
        stop.set()
        return {"id": rid, "ok": True, "stopping": True}
    try:
        if op == "stats":
            return {"id": rid, "ok": True, "stats": await service.stats_async()}
        if op == "drain_host":
            return {"id": rid, "ok": False,
                    "error": "drain_host is only served by the ring router "
                             "(repro route)"}
        if op in STREAM_OPS:
            out = await service.stream_request(op, req)
            return {"id": rid, **out}
        scenario = scenario_from_spec(req.get("scenario"))
        record = await service.submit(scenario)
    except (ProtocolError, ServiceError) as exc:
        return {"id": rid, "ok": False, "error": str(exc)}
    except Exception as exc:  # noqa: BLE001 — every request must get an answer;
        # an unanswered id leaves the client blocked on readline forever
        events.emit("request.internal_error", op=op, id=rid,
                    error=f"{type(exc).__name__}: {exc}")
        return {"id": rid, "ok": False, "error": f"internal error: {type(exc).__name__}"}
    return {"id": rid, "ok": True, "record": record}


def timed_request_handler(dispatch, get_slow_request_s=None):
    """Wrap a dispatch coroutine with the wire-envelope duties every
    front-end shares (the plain server and the ring router): trace-id
    validation and echo, per-op ``request_seconds`` histograms, error
    counters, and slow-request events.

    An optional client-sent ``trace`` id is echoed back in the response
    envelope (and stamped on slow-request events), so a caller can stitch
    its own request ids to server-side telemetry across the pipelined
    wire.  The echo lives *next to* the record/snapshot fields, never
    inside them — byte-identity of the bodies maps is untouched.

    ``get_slow_request_s`` is a zero-arg callable read per request (the
    threshold is a mutable service attribute); None disables the classifier.
    """

    async def handle(req: dict, stop: asyncio.Event) -> dict:
        trace = req.get("trace")
        if trace is not None and (not isinstance(trace, str) or not trace
                                  or len(trace) > _MAX_TRACE_ID):
            return {"id": req.get("id"), "ok": False,
                    "error": f"trace must be a non-empty string of at most "
                             f"{_MAX_TRACE_ID} characters"}
        op = req.get("op") or "decompose"
        t0 = perf_counter()
        resp = await dispatch(req, stop)
        dt = perf_counter() - t0
        if telemetry_enabled():
            reg = obs_registry()
            reg.histogram("request_seconds", op=op).observe(dt)
            if not resp.get("ok"):
                reg.counter("request_errors", op=op).inc()
        slow = get_slow_request_s() if get_slow_request_s is not None else None
        if slow is not None and dt >= slow:
            events.emit("request.slow", op=op, id=req.get("id"), trace=trace,
                        ms=round(dt * 1000.0, 3), ok=bool(resp.get("ok")))
        if trace is not None:
            resp["trace"] = trace
        return resp

    return handle


async def run_line_server(
    handle,
    host: str = "127.0.0.1",
    port: int = 8642,
    *,
    ready=None,
    idle_timeout: float | None = None,
    metrics_collect=None,
    metrics_port: int | None = None,
    metrics_ready=None,
    on_stop=None,
) -> None:
    """Run a JSON-lines TCP front-end until a handler sets the stop event.

    The transport layer both ``repro serve`` and the ring router run on:
    pipelined requests (responses matched by id, not order), per-connection
    write lock, idle reaping, oversized-line rejection, and graceful
    shutdown: on stop, connections that owe no response close at once, and
    in-flight responses get up to ``SHUTDOWN_GRACE_S`` to complete.
    ``handle(req, stop)`` is the request handler — it sets ``stop`` to
    initiate shutdown (the ``shutdown`` op).

    ``ready`` is an optional callback invoked with the bound ``(host, port)``
    once the socket is listening — tests and the CLI use it to learn the
    ephemeral port when ``port=0``.

    ``metrics_collect`` (an async callable returning Prometheus text)
    enables a ``GET /metrics`` listener on ``metrics_port`` (same host; 0
    binds an ephemeral port reported through ``metrics_ready``).

    ``idle_timeout`` (seconds) reaps connections with no traffic: a client
    that neither sends a request nor has one in flight for that long is
    disconnected.  In-flight responses always complete first (the reap path
    is the normal connection teardown, which drains pipelined responders),
    and any request — ``ping`` is the designated no-op — resets the clock,
    so long-lived streaming clients stay alive by heartbeating.

    ``on_stop`` is an optional async callable awaited after the listener
    has stopped and connections drained — the owner's teardown hook.
    """
    stop = asyncio.Event()
    #: connection handler task -> (writer, in-flight responders); a
    #: connection with no responder in flight owes its client nothing
    connections: dict[asyncio.Task, tuple] = {}

    async def handle_connection(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        task = asyncio.current_task()
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        connections[task] = (writer, tasks)
        task.add_done_callback(lambda t: connections.pop(t, None))

        async def respond(req: dict) -> None:
            resp = await handle(req, stop)
            try:
                async with write_lock:
                    writer.write(encode(resp))
                    await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass  # peer vanished mid-response; nothing left to tell it

        try:
            while True:
                try:
                    if idle_timeout is not None:
                        try:
                            line = await asyncio.wait_for(reader.readline(), idle_timeout)
                        except asyncio.TimeoutError:
                            if tasks:
                                # a request is still computing: the client is
                                # waiting on us, not idle — keep the line open
                                continue
                            break  # reap: fall through to the drain/close path
                    else:
                        line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # line exceeded the stream limit; the buffer is no longer
                    # line-aligned, so answer once and drop the connection —
                    # but only after in-flight pipelined responses complete
                    async with write_lock:
                        writer.write(encode({"id": None, "ok": False,
                                             "error": "request line too long"}))
                        await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    req = parse_request(line)
                except ProtocolError as exc:
                    async with write_lock:
                        writer.write(encode({"id": None, "ok": False, "error": str(exc)}))
                        await writer.drain()
                    continue
                # pipelined: each request resolves independently; responses
                # are matched by id, not by order
                task = asyncio.create_task(respond(req))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*list(tasks), return_exceptions=True)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            # abrupt-disconnect path: in-flight responders must be reaped
            # here, or they die later against the closed transport as
            # never-retrieved task exceptions
            for task in list(tasks):
                task.cancel()
            try:
                if tasks:
                    await asyncio.gather(*list(tasks), return_exceptions=True)
            except asyncio.CancelledError:
                pass
            # close() without wait_closed(): waiting on the TLS/TCP close
            # handshake of an already-gone peer leaves tasks dangling into
            # loop shutdown (noisy CancelledError on 3.11)
            writer.close()

    server = await asyncio.start_server(handle_connection, host, port, limit=2**20)
    bound = server.sockets[0].getsockname()[:2]
    if ready is not None:
        ready(*bound)
    metrics_server = None
    if metrics_collect is not None and metrics_port is not None:
        metrics_server = await start_metrics_server(
            metrics_collect, host=host, port=metrics_port
        )
        if metrics_ready is not None:
            metrics_ready(*metrics_server.sockets[0].getsockname()[:2])
    try:
        await stop.wait()
    finally:
        if metrics_server is not None:
            # stop scrapes first: a scrape after the owner's teardown would
            # ask dead shard executors for their snapshots
            metrics_server.close()
        # close() only — Server.wait_closed() waits for every open handler
        # since 3.12.1, so one idle client would hang shutdown forever.
        # Closing a connection's transport ends its handler through the
        # normal EOF path.  Connections that owe no response close at once;
        # the bounded grace is spent only on responses still in flight.
        server.close()
        owed = [t for _, tasks in connections.values() for t in tasks]
        for writer, tasks in list(connections.values()):
            if not tasks:
                writer.close()
        if owed:
            await asyncio.wait(owed, timeout=SHUTDOWN_GRACE_S)
        if connections:
            for writer, _ in list(connections.values()):
                writer.close()
            _, pending = await asyncio.wait(list(connections), timeout=1.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)
        if on_stop is not None:
            await on_stop()


async def serve(
    service: DecompositionService,
    host: str = "127.0.0.1",
    port: int = 8642,
    ready=None,
    idle_timeout: float | None = None,
    on_close=None,
    metrics_port: int | None = None,
    metrics_ready=None,
) -> None:
    """Run the decomposition-service TCP front-end until a ``shutdown``
    request (or cancellation).  Transport semantics (pipelining, idle
    reaping, graceful drain) live in :func:`run_line_server`; this wires it
    to a :class:`DecompositionService`.

    ``on_close`` is an optional callback invoked with the final stats
    document (including the oracle-cache tier) after the listener stops but
    before the shard pool shuts down — ``repro serve`` logs it.

    ``metrics_port`` additionally serves Prometheus text format on
    ``GET /metrics``.  Scrapes render merged telemetry snapshots —
    read-only, so a concurrent scrape can never perturb request results.
    """
    handle = timed_request_handler(
        lambda req, stop: _dispatch(service, req, stop),
        get_slow_request_s=lambda: service.slow_request_s,
    )

    async def collect() -> str:
        return render_prometheus(await service.telemetry_snapshot())

    async def on_stop() -> None:
        if on_close is not None:
            # the workers are still alive here, so the stats document can
            # include their oracle-cache counters one last time
            try:
                on_close(await service.stats_async())
            except Exception as exc:  # noqa: BLE001 — a stats failure must
                # not block shutdown, but it must not vanish silently either
                events.emit("server.close_stats_error",
                            error=f"{type(exc).__name__}: {exc}")
        await service.close()

    await run_line_server(
        handle,
        host,
        port,
        ready=ready,
        idle_timeout=idle_timeout,
        metrics_collect=collect if metrics_port is not None else None,
        metrics_port=metrics_port,
        metrics_ready=metrics_ready,
        on_stop=on_stop,
    )
