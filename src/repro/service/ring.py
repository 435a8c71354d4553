"""Multi-host shard ring: consistent hashing + journal-based session handoff.

Topology: N independent ``repro serve`` host processes, each with its own
shard pool and its own journal directory on **shared** storage, fronted by
a ring-aware router (``repro route``).  The router speaks the same
JSON-lines protocol as the hosts, so clients cannot tell it from a single
server:

* **stateless** requests (``decompose``) route by the scenario's instance
  hash — the same affinity that keeps a host's instance and oracle caches
  warm across the ring;
* **sessions** are the sticky unit: ``open_stream`` pins a session to the
  ring owner of its session id, and every subsequent op follows it there.

Placement uses a consistent-hash ring with virtual nodes over sha256 (never
Python's ``hash()`` — placement must be stable across processes and
``PYTHONHASHSEED``).  When a host dies, only the keys it owned move; every
other session and cache stays put.

Failover: when a host is unreachable beyond the per-request retry budget
(jittered exponential backoff, capped attempts, per-request deadlines), the
router marks it down and hands its sessions off **lazily** — the next op
for an orphaned session reads the dead owner's journal from shared storage
(``journal_root/<host_port>/<journal file>``; see
:func:`endpoint_journal_dir`) and replays it into the new ring owner via
the fingerprint-verified ``restore_stream`` op, then retries the
interrupted request.  The handoff is **exactly-once**, not at-least-once:
the router counts acknowledged mutates per session, so an op the dead host
journaled before dying (applied, ack lost) is *not* re-sent — its reply is
synthesized from the deterministic replay instead.  ``drain_host`` runs the
same handoff eagerly, for planned maintenance, while the host is still
healthy.
"""

from __future__ import annotations

import asyncio
import hashlib
import pathlib
import random
from bisect import bisect_left
from time import perf_counter

from ..obs import (
    events,
    merge_snapshots,
    registry as obs_registry,
    render_prometheus,
    telemetry_enabled,
)
from ..stream import JournalError, journal_file_name, read_journal
from .loadgen import ServiceClient
from .protocol import (
    PROTOCOL_VERSION,
    STREAM_OPS,
    ProtocolError,
    scenario_from_spec,
    stream_request_fields,
)
from .server import run_line_server, timed_request_handler

__all__ = [
    "HashRing",
    "HostDownError",
    "RingRouter",
    "endpoint_journal_dir",
    "parse_endpoints",
    "route_serve",
    "session_ring_key",
]


class HostDownError(ConnectionError):
    """A backend host could not be reached within the retry budget."""


class ConnectFailed(ConnectionError):
    """Connection establishment failed — the request was never sent.

    The one failure class that is safe to retry for *any* op: a request
    that never left the router cannot have been applied by the host.
    Everything else (timeout, reset after the write, garbled reply) is
    ambiguous — the host may have applied the op before the failure.
    """


def _message_idempotent(message: dict) -> bool:
    """Whether re-sending ``message`` can never double-apply state.

    ``mutate`` and ``open_stream`` change session state exactly once per
    acknowledged request, so an ambiguous failure (the host may have
    applied the op before the connection died) must NOT be retried
    blindly — the journal-based handoff disambiguates instead.
    ``restore_stream`` is idempotent only in takeover mode (a plain
    restore is refused by the server when the session already exists, so
    a blind re-send of an applied restore would fail spuriously).
    """
    op = message.get("op")
    if op in ("open_stream", "mutate"):
        return False
    if op == "restore_stream":
        return bool(message.get("takeover"))
    return True


def parse_endpoints(spec) -> list[str]:
    """Parse ``"host:port,host:port"`` (or an iterable) into endpoints."""
    parts = (
        [p.strip() for p in spec.split(",")]
        if isinstance(spec, str)
        else [str(p).strip() for p in spec]
    )
    endpoints: list[str] = []
    for part in parts:
        if not part:
            continue
        host, sep, port = part.rpartition(":")
        if not sep or not host:
            raise ValueError(f"endpoint {part!r} must be host:port")
        try:
            numeric = int(port)
        except ValueError:
            raise ValueError(f"endpoint {part!r} has a non-numeric port") from None
        if not 0 < numeric < 65536:
            raise ValueError(f"endpoint {part!r} has an out-of-range port")
        if part in endpoints:
            raise ValueError(f"duplicate endpoint {part!r}")
        endpoints.append(part)
    if not endpoints:
        raise ValueError("need at least one host:port endpoint")
    return endpoints


def endpoint_journal_dir(root, endpoint: str) -> pathlib.Path:
    """The shared-storage convention tying a ring host to its journals.

    Each host runs ``repro serve --journal-dir <root>/<host_port>`` and the
    router reads the same path during handoff — the only cross-host
    coordination is this name (plus :func:`~repro.stream.journal_file_name`
    inside the directory).
    """
    return pathlib.Path(root) / endpoint.replace(":", "_").replace("/", "_")


def _ring_hash(key: str) -> int:
    # sha256, not hash(): ring placement is part of the cache-affinity and
    # handoff contract, so it must agree across every process and
    # PYTHONHASHSEED — a per-process salt would reshuffle the ring
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


def session_ring_key(session_id: str) -> str:
    """The ring key a session sticks to (namespaced apart from instances)."""
    return "session:" + session_id


class HashRing:
    """Consistent-hash ring over endpoint strings with virtual nodes."""

    def __init__(self, endpoints, replicas: int = 64):
        self.endpoints = list(endpoints)
        if not self.endpoints:
            raise ValueError("ring needs at least one endpoint")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = int(replicas)
        points = []
        for endpoint in self.endpoints:
            for replica in range(self.replicas):
                points.append((_ring_hash(f"{endpoint}#{replica}"), endpoint))
        points.sort()
        self._hashes = [point for point, _ in points]
        self._owners = [endpoint for _, endpoint in points]

    def owner(self, key: str, exclude=frozenset()) -> str | None:
        """The endpoint owning ``key``, walking clockwise past ``exclude``.

        Skipping excluded (down/drained) owners *in ring order* is what
        makes failover minimal: keys owned by live hosts never move when
        another host dies, and each dead host's keys spread over its ring
        successors instead of piling onto one survivor.  None when every
        endpoint is excluded.
        """
        start = bisect_left(self._hashes, _ring_hash(key))
        for offset in range(len(self._owners)):
            endpoint = self._owners[(start + offset) % len(self._owners)]
            if endpoint not in exclude:
                return endpoint
        return None


class BackendPool:
    """A small pool of persistent JSON-lines connections to one host.

    Connections are checked out per request — one in-flight request per
    connection keeps response matching trivial — and parked for reuse.
    Any failure closes the connection it happened on, so a connection in an
    unknown wire state (timed out mid-response, reset) can never be parked
    and poison a later request.
    """

    def __init__(
        self,
        endpoint: str,
        *,
        connect_timeout: float = 5.0,
        request_timeout: float = 120.0,
        max_idle: int = 8,
    ):
        self.endpoint = endpoint
        host, _, port = endpoint.rpartition(":")
        self.host = host
        self.port = int(port)
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.max_idle = max_idle
        self._idle: list[ServiceClient] = []

    async def request(self, message: dict) -> dict:
        """One request/response round trip on a pooled connection.

        Raises :class:`ConnectFailed` when the connection could not be
        opened at all (the request was provably never sent); any other
        failure happened after a live connection existed and is ambiguous
        from the caller's point of view.
        """
        if self._idle:
            client = self._idle.pop()
        else:
            try:
                client = await ServiceClient.connect(
                    self.host, self.port,
                    connect_timeout=self.connect_timeout,
                    request_timeout=self.request_timeout,
                )
            except (OSError, asyncio.TimeoutError) as exc:
                raise ConnectFailed(
                    f"connect to {self.endpoint} failed: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
        try:
            resp = await client.call(message)
        except BaseException:
            await client.close()  # never park a connection in unknown state
            raise
        if len(self._idle) < self.max_idle:
            self._idle.append(client)
        else:
            await client.close()
        return resp

    async def close(self) -> None:
        idle, self._idle = self._idle, []
        for client in idle:
            await client.close()


class RingRouter:
    """The ring-aware front-end: placement, forwarding, failover, handoff.

    One router instance is the single writer of its session registry (all
    mutation happens on the event loop; per-session ordering holds via each
    entry's lock, exactly like the server's own session table).  State per
    session: the owning endpoint, the op-ordering lock, and
    ``mutates_acked`` — the count of mutate replies this router has passed
    back to clients, which is what the exactly-once handoff compares
    against the journal's op count to decide whether an interrupted mutate
    already applied.
    """

    def __init__(
        self,
        endpoints,
        journal_root=None,
        *,
        journal_dirs: dict | None = None,
        replicas: int = 64,
        retries: int = 2,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 1.0,
        connect_timeout: float = 5.0,
        # matches loadgen's default request deadline: a hop deadline shorter
        # than what clients legitimately wait for would mark healthy-but-slow
        # hosts down and shrink the ring under load
        request_timeout: float = 120.0,
        slow_request_s: float | None = None,
        propagate_shutdown: bool = True,
    ):
        # a timeout of 0 fails every hop, which marks every healthy host down
        for name, value in (("connect_timeout", connect_timeout),
                            ("request_timeout", request_timeout)):
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff_base_s < 0:
            raise ValueError(f"backoff_base_s must be >= 0, got {backoff_base_s}")
        self.endpoints = parse_endpoints(endpoints)
        self.ring = HashRing(self.endpoints, replicas=replicas)
        self.journal_root = (
            pathlib.Path(journal_root) if journal_root is not None else None
        )
        #: endpoint -> explicit journal directory, overriding the
        #: ``journal_root`` naming convention (tests use ephemeral ports,
        #: where the directory cannot be named before the host binds)
        self.journal_dirs = {
            str(endpoint): pathlib.Path(path)
            for endpoint, path in (journal_dirs or {}).items()
        }
        self.pools = {
            endpoint: BackendPool(
                endpoint,
                connect_timeout=connect_timeout,
                request_timeout=request_timeout,
            )
            for endpoint in self.endpoints
        }
        self.retries = int(retries)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = max(self.backoff_base_s, float(backoff_cap_s))
        self.slow_request_s = slow_request_s
        self.propagate_shutdown = bool(propagate_shutdown)
        self.down: set[str] = set()
        #: hosts removed by an operator's drain_host — a subset of ``down``
        #: that stays out of the ring until an explicit undrain_host, so a
        #: background probe pinging a drained-but-healthy host cannot
        #: silently undo the drain before the operator stops the process
        self.drained: set[str] = set()
        self._sessions: dict[str, dict] = {}
        self.requests = 0
        self.forwarded = 0
        self.retried = 0
        self.rerouted = 0
        self.handoffs = 0
        self.sessions_lost = 0
        self._update_ring_gauges()

    # ------------------------------------------------------------------
    # ring membership
    def _update_ring_gauges(self) -> None:
        if telemetry_enabled():
            reg = obs_registry()
            reg.gauge("ring_hosts_up").set(len(self.endpoints) - len(self.down))
            reg.gauge("ring_hosts_down").set(len(self.down))

    def _host_down(self, endpoint: str, reason: str) -> None:
        if endpoint in self.down:
            return
        self.down.add(endpoint)
        events.emit("host.down", host=endpoint, error=reason)
        obs_registry().counter("ring_host_down_total").inc()
        self._update_ring_gauges()

    def mark_up(self, endpoint: str) -> None:
        """Return a probed-healthy host to the ring.

        Only *new* placements go back to it: sessions already handed off
        stay with their adoptive owners (their journals moved with them),
        so a flapping host never splits a session's history.  Drained
        hosts are refused — they answer pings while the operator works on
        them, and only an explicit :meth:`undrain_host` un-drains.
        """
        if endpoint not in self.down or endpoint in self.drained:
            return
        self.down.discard(endpoint)
        events.emit("host.up", host=endpoint)
        self._update_ring_gauges()

    # ------------------------------------------------------------------
    # forwarding
    async def _forward(self, endpoint: str, message: dict) -> dict:
        """One request to one host: pooled connection, per-request deadline,
        capped retries with jittered exponential backoff.  Raises
        :class:`HostDownError` once the budget is exhausted — the caller
        decides whether that means reroute, handoff, or give up.

        Retry discipline: a :class:`ConnectFailed` (the request provably
        never left the router) is always retryable.  Any *ambiguous*
        failure — timeout, reset after the write, garbled reply — may have
        happened after the host applied and journaled the op, so for
        non-idempotent ops (``mutate``, ``open_stream``) the budget stops
        there: re-sending could double-apply, advancing state twice and
        desynchronizing ``mutates_acked`` from the journal, which would
        poison a later handoff as "divergent".  The journal-based
        acked-vs-length comparison in :meth:`_handoff_session` is the
        machinery that disambiguates instead.
        """
        pool = self.pools[endpoint]
        op = str(message.get("op") or "decompose")
        idempotent = _message_idempotent(message)
        delay = self.backoff_base_s
        failure: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                self.retried += 1
                obs_registry().counter("ring_retries").inc()
                if delay > 0:
                    await asyncio.sleep(delay * random.uniform(0.5, 1.5))
                    delay = min(delay * 2.0, self.backoff_cap_s)
            t0 = perf_counter()
            try:
                resp = await pool.request(dict(message))
            except ConnectFailed as exc:
                failure = exc
                continue  # never sent — safe to retry any op
            except (OSError, asyncio.TimeoutError, ValueError) as exc:
                # OSError covers resets, TimeoutError the deadline,
                # ValueError a garbled reply (bad JSON / id mismatch) — a
                # host emitting garbage is as unusable as a dead one
                failure = exc
                if not idempotent:
                    break  # ambiguous: let the journal decide, never re-send
                continue
            finally:
                if telemetry_enabled():
                    obs_registry().histogram(
                        "route_hop_seconds", op=op, host=endpoint
                    ).observe(perf_counter() - t0)
            self.forwarded += 1
            resp.pop("id", None)  # the backend's id; the client's goes back on
            return resp
        raise HostDownError(
            f"{endpoint} unreachable after {attempt + 1} attempt(s) ({op}): "
            f"{type(failure).__name__}: {failure}"
        )

    # ------------------------------------------------------------------
    # dispatch (the run_line_server handler body)
    async def dispatch(self, req: dict, stop: asyncio.Event) -> dict:
        rid = req.get("id")
        op = req.get("op")
        self.requests += 1
        if op == "ping":
            return {"id": rid, "ok": True, "pong": PROTOCOL_VERSION,
                    "ring": len(self.endpoints)}
        if op == "shutdown":
            if self.propagate_shutdown:
                await self._shutdown_backends()
            stop.set()
            return {"id": rid, "ok": True, "stopping": True}
        try:
            if op == "stats":
                return {"id": rid, "ok": True, "stats": await self.stats_async()}
            if op == "drain_host":
                return {"id": rid, **await self.drain_host(req.get("host"))}
            if op == "undrain_host":
                return {"id": rid, **self.undrain_host(req.get("host"))}
            if op in STREAM_OPS:
                return {"id": rid, **await self._session_request(op, req)}
            scenario = scenario_from_spec(req.get("scenario"))
            out = await self._stateless_request(req, scenario)
        except (ProtocolError, JournalError) as exc:
            return {"id": rid, "ok": False, "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 — every request must get an
            # answer; an unanswered id leaves the client blocked forever
            events.emit("request.internal_error", op=op, id=rid,
                        error=f"{type(exc).__name__}: {exc}")
            return {"id": rid, "ok": False,
                    "error": f"internal error: {type(exc).__name__}"}
        return {"id": rid, **out}

    async def _stateless_request(self, req: dict, scenario) -> dict:
        """Route a decompose by instance hash; reroute on host death."""
        message = {key: value for key, value in req.items() if key != "id"}
        key = "instance:" + scenario.instance_hash()
        for _ in range(len(self.endpoints)):
            endpoint = self.ring.owner(key, exclude=self.down)
            if endpoint is None:
                break
            try:
                return await self._forward(endpoint, message)
            except HostDownError as exc:
                self._host_down(endpoint, str(exc))
                self.rerouted += 1
                obs_registry().counter("ring_reroutes").inc()
        return {"ok": False, "error": "no live ring host available"}

    # ------------------------------------------------------------------
    # sessions
    async def _session_request(self, op: str, req: dict) -> dict:
        fields = stream_request_fields(req)
        sid = fields["session"]
        message = {key: value for key, value in req.items() if key != "id"}
        if op in ("open_stream", "restore_stream"):
            if sid in self._sessions:
                return {"ok": False, "error": f"session {sid!r} already exists"}
            entry = {
                "endpoint": self.ring.owner(session_ring_key(sid),
                                            exclude=self.down),
                "lock": asyncio.Lock(),
                # a client-driven restore_stream adopts the shipped ops as
                # already-acknowledged history
                "mutates_acked": len(fields.get("ops") or ())
                if op == "restore_stream" else 0,
            }
            if entry["endpoint"] is None:
                return self._lost(sid, "no live ring host available")
            self._sessions[sid] = entry
            async with entry["lock"]:
                out = await self._session_forward(sid, entry, op, message)
            if not out.get("ok"):
                self._sessions.pop(sid, None)
                if "session lost" in str(out.get("error") or ""):
                    self.sessions_lost += 1
            return out
        entry = self._sessions.get(sid)
        if entry is None:
            return {"ok": False, "error": f"unknown session {sid!r}"}
        async with entry["lock"]:
            if self._sessions.get(sid) is not entry:
                return {"ok": False, "error": f"unknown session {sid!r}"}
            out = await self._session_forward(sid, entry, op, message)
            if out.get("ok"):
                if op == "mutate":
                    # counted under the lock, atomically with the reply that
                    # will carry the ack — this counter vs the journal length
                    # is the exactly-once dedup test during handoff
                    entry["mutates_acked"] += 1
                elif op == "close_stream":
                    self._sessions.pop(sid, None)
            elif "session lost" in str(out.get("error") or ""):
                self._sessions.pop(sid, None)
                self.sessions_lost += 1
        return out

    async def _session_forward(self, sid: str, entry: dict, op: str,
                               message: dict) -> dict:
        """Forward one session op to its owner, handing off as hosts die.

        Each loop iteration either answers from the current owner, or marks
        it down and relocates the session (``_handoff_session``), which may
        itself synthesize a terminal reply.  Bounded by the endpoint count:
        every failed iteration permanently downs one host.
        """
        for _ in range(len(self.endpoints) + 1):
            endpoint = entry["endpoint"]
            if endpoint is not None and endpoint not in self.down:
                try:
                    return await self._forward(endpoint, message)
                except HostDownError as exc:
                    self._host_down(endpoint, str(exc))
            reply = await self._handoff_session(sid, entry, op)
            if reply is not None:
                return reply
        return self._lost(sid, "no live ring host could take the session")

    @staticmethod
    def _lost(sid: str, reason: str) -> dict:
        if not reason.startswith("session lost"):
            reason = f"session lost: {reason}"
        return {"ok": False, "session": sid, "error": reason}

    def _journal_path(self, endpoint: str, sid: str) -> pathlib.Path | None:
        directory = self.journal_dirs.get(endpoint)
        if directory is None and self.journal_root is not None:
            directory = endpoint_journal_dir(self.journal_root, endpoint)
        if directory is None:
            return None
        return directory / journal_file_name(sid)

    async def _handoff_session(self, sid: str, entry: dict, op: str):
        """Relocate ``sid`` off its dead owner.  Returns a terminal reply
        dict, or None meaning "relocated — retry the op on the new owner".

        The exactly-once core: the dead owner's journal is the ground truth
        of what applied.  ``len(ops) == mutates_acked`` means the
        interrupted op never made the journal (so it never applied, or
        applied only to worker memory that died with the host — either way
        the restored state excludes it) and a retry is safe;
        ``len(ops) == mutates_acked + 1`` for a mutate means it applied and
        only the ack was lost, so the reply is synthesized from the replay
        instead of re-applying.  Any other length means the journal and the
        router's ack history disagree — refuse rather than guess.
        """
        dead = entry["endpoint"]
        new_endpoint = self.ring.owner(session_ring_key(sid), exclude=self.down)
        if new_endpoint is None:
            return self._lost(sid, "all ring hosts are down")
        if op == "restore_stream":
            # the request itself carries the full journal; restore is
            # idempotent, so relocating and re-sending is always correct
            entry["endpoint"] = new_endpoint
            return None
        path = self._journal_path(dead, sid) if dead is not None else None
        fresh_open = op == "open_stream" and entry["mutates_acked"] == 0
        header = ops = None
        if path is not None:
            try:
                header, ops = read_journal(path)
            except JournalError:
                header = ops = None
        if ops is None:
            if fresh_open:
                # nothing durable exists for this session (the open never
                # reached the journal, or there is no shared journal root):
                # retrying the open from scratch on the new owner is safe
                entry["endpoint"] = new_endpoint
                return None
            return self._lost(
                sid,
                f"host {dead} is down and its journal is unavailable"
                + ("" if path is not None else " (router has no journal root)"),
            )
        acked = entry["mutates_acked"]
        if not acked <= len(ops) <= acked + 1:
            return self._lost(
                sid,
                f"journal has {len(ops)} op(s) but {acked} were acknowledged "
                f"— refusing a divergent handoff",
            )
        restore = {
            "op": "restore_stream",
            "session": sid,
            "scenario": header.get("scenario"),
            "base": header.get("base"),
            "ops": ops,
            # a retried handoff (or a chained failover racing a TTL) may
            # find a half-adopted entry on the target; takeover lets the
            # router's replay replace it — plain clients get the duplicate
            # check instead
            "takeover": True,
        }
        try:
            restored = await self._forward(new_endpoint, restore)
        except HostDownError as exc:
            self._host_down(new_endpoint, str(exc))
            return None  # the outer loop walks on to the next live owner
        if not restored.get("ok"):
            return self._lost(
                sid, str(restored.get("error") or "handoff restore failed"))
        entry["endpoint"] = new_endpoint
        entry["mutates_acked"] = len(ops)
        self.handoffs += 1
        events.emit("session.handoff", session=sid, from_host=dead,
                    to_host=new_endpoint, replayed=len(ops))
        obs_registry().counter("ring_handoffs").inc()
        if op == "mutate" and len(ops) == acked + 1:
            # applied-but-unacknowledged mutate: answer with the replay's
            # per-step results — deterministic, so byte-identical to the
            # reply the dead host never delivered — instead of re-applying
            return {"ok": True, "session": sid,
                    "results": restored.get("last_results") or []}
        if op == "open_stream":
            # journaled open whose ack was lost: synthesize the open reply
            # from a snapshot of the restored state (read-only and
            # deterministic, so byte-identical to the lost original)
            try:
                snap = await self._forward(
                    new_endpoint, {"op": "snapshot", "session": sid})
            except HostDownError as exc:
                self._host_down(new_endpoint, str(exc))
                return None
            if not snap.get("ok"):
                return self._lost(
                    sid, str(snap.get("error") or "post-handoff snapshot failed"))
            return {"ok": True, "session": sid, "snapshot": snap["snapshot"]}
        return None  # relocated; retry snapshot/close/never-journaled mutate

    # ------------------------------------------------------------------
    # admin ops
    async def drain_host(self, host) -> dict:
        """Remove ``host`` from the ring and hand off every session it owns
        — eagerly, while it is still alive (planned maintenance: the same
        zero-loss replay path as a crash, without waiting for one).  The
        host stays out of the ring (even under ``--probe-interval``) until
        an explicit ``undrain_host``."""
        if not isinstance(host, str) or host not in self.pools:
            raise ProtocolError(f"unknown ring host {host!r}")
        if host in self.down:
            self.drained.add(host)  # a crash-downed host an operator now
            # claims for maintenance must not be probed back either
            return {"ok": True, "host": host, "drained": 0, "failed": 0,
                    "already_down": True}
        self.down.add(host)
        self.drained.add(host)
        self._update_ring_gauges()
        events.emit("host.drain", host=host)
        drained = failed = 0
        for sid, entry in list(self._sessions.items()):
            if entry["endpoint"] != host:
                continue
            async with entry["lock"]:
                if self._sessions.get(sid) is not entry or entry["endpoint"] != host:
                    continue  # moved or closed while we waited on the lock
                # _handoff_session returns None both for "relocated" and for
                # "restore target just died — walk on", so None alone does
                # NOT mean the session moved; only an endpoint that actually
                # changed to a live host does.  Loop until it lands (each
                # failed iteration downs one more host) or a terminal reply.
                reply = None
                for _ in range(len(self.endpoints) + 1):
                    reply = await self._handoff_session(sid, entry, "drain")
                    if reply is not None:
                        break
                    if (entry["endpoint"] != host
                            and entry["endpoint"] not in self.down):
                        break
                if (reply is None and entry["endpoint"] != host
                        and entry["endpoint"] not in self.down):
                    drained += 1
                    # only now that the session verifiably lives elsewhere:
                    # free the drained host's copy (worker state + its now
                    # superseded journal); best effort — the handed-off
                    # session no longer needs it
                    try:
                        await self._forward(
                            host, {"op": "close_stream", "session": sid})
                    except HostDownError:
                        pass
                else:
                    failed += 1
                    self._sessions.pop(sid, None)
                    self.sessions_lost += 1
        return {"ok": True, "host": host, "drained": drained, "failed": failed}

    def undrain_host(self, host) -> dict:
        """Operator's inverse of ``drain_host``: allow ``host`` back into
        the ring for new placements (handed-off sessions stay put)."""
        if not isinstance(host, str) or host not in self.pools:
            raise ProtocolError(f"unknown ring host {host!r}")
        was_drained = host in self.drained
        self.drained.discard(host)
        self.mark_up(host)
        return {"ok": True, "host": host, "undrained": was_drained,
                "up": host not in self.down}

    async def _shutdown_backends(self) -> None:
        for endpoint in self.endpoints:
            if endpoint in self.down:
                continue
            try:
                await self._forward(endpoint, {"op": "shutdown"})
            except HostDownError as exc:
                self._host_down(endpoint, str(exc))

    # ------------------------------------------------------------------
    # stats / telemetry
    def stats(self) -> dict:
        return {
            "protocol_version": PROTOCOL_VERSION,
            "ring": {
                "endpoints": list(self.endpoints),
                "down": sorted(self.down),
                "drained": sorted(self.drained),
                "replicas": self.ring.replicas,
                "sessions": len(self._sessions),
                "requests": self.requests,
                "forwarded": self.forwarded,
                "retried": self.retried,
                "rerouted": self.rerouted,
                "handoffs": self.handoffs,
                "sessions_lost": self.sessions_lost,
            },
        }

    async def stats_async(self) -> dict:
        """Ring stats plus per-backend stats, with session counters summed
        and telemetry snapshots merged across live hosts — one ``stats``
        call against the router reads like one against a single server."""
        doc = self.stats()
        backends: dict[str, dict] = {}
        session_totals: dict[str, int] = {}
        telemetry = [obs_registry().snapshot()] if telemetry_enabled() else []
        for endpoint in self.endpoints:
            if endpoint in self.down:
                backends[endpoint] = {"down": True}
                continue
            try:
                resp = await self._forward(endpoint, {"op": "stats"})
            except HostDownError as exc:
                self._host_down(endpoint, str(exc))
                backends[endpoint] = {"down": True}
                continue
            stats = resp.get("stats") or {}
            backends[endpoint] = stats
            for name, value in (stats.get("sessions") or {}).items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    session_totals[name] = session_totals.get(name, 0) + int(value)
            if telemetry and isinstance(stats.get("telemetry"), dict):
                telemetry.append(stats["telemetry"])
        doc["sessions"] = session_totals
        doc["backends"] = backends
        if telemetry:
            doc["telemetry"] = merge_snapshots(telemetry)
        return doc

    async def close(self) -> None:
        for pool in self.pools.values():
            await pool.close()


async def route_serve(
    router: RingRouter,
    host: str = "127.0.0.1",
    port: int = 8641,
    *,
    ready=None,
    idle_timeout: float | None = None,
    metrics_port: int | None = None,
    metrics_ready=None,
    probe_interval: float | None = None,
    on_close=None,
) -> None:
    """Run the router's TCP front-end until ``shutdown`` (or cancellation).

    Same transport semantics as ``repro serve`` (shared
    :func:`~repro.service.server.run_line_server`): pipelined JSON lines,
    idle reaping, graceful drain.  ``metrics_port`` scrapes the *router's*
    registry (ring gauges, per-hop latencies); backend registries are
    scraped from the backends, or merged into the ``stats`` op on demand.

    ``probe_interval`` (seconds) re-pings down hosts in the background and
    returns responders to the ring for new placements; off by default —
    un-downing is otherwise an operator action (restart the router or rely
    on drain/bring-up procedures).  Hosts downed by ``drain_host`` are
    never probed back: they answer pings while the operator works on
    them, and only ``undrain_host`` readmits them.
    """
    handle = timed_request_handler(
        router.dispatch, get_slow_request_s=lambda: router.slow_request_s
    )

    async def collect() -> str:
        return render_prometheus(obs_registry().snapshot())

    async def probe_down_hosts() -> None:
        while True:
            await asyncio.sleep(probe_interval)
            for endpoint in sorted(router.down):
                if endpoint in router.drained:
                    # a drained host is down by operator intent, not by
                    # failure — it answers pings right up until the process
                    # stops, and probing it back would undo the drain
                    continue
                try:
                    resp = await router._forward(endpoint, {"op": "ping"})
                except HostDownError:
                    continue
                if resp.get("ok"):
                    router.mark_up(endpoint)

    probe_task = (
        asyncio.create_task(probe_down_hosts())
        if probe_interval is not None and probe_interval > 0
        else None
    )

    async def on_stop() -> None:
        if probe_task is not None:
            probe_task.cancel()
            try:
                await probe_task
            except asyncio.CancelledError:
                pass
        if on_close is not None:
            try:
                on_close(router.stats())
            except Exception as exc:  # noqa: BLE001 — closing stats must not
                # block shutdown, but must not vanish silently either
                events.emit("server.close_stats_error",
                            error=f"{type(exc).__name__}: {exc}")
        await router.close()

    try:
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
    finally:
        if probe_task is not None and not probe_task.done():
            probe_task.cancel()
