"""Tests for the multi-host shard ring (repro.service.ring).

Three layers, cheapest first:

* pure-placement tests for :class:`HashRing` (cross-process determinism,
  coverage, minimal movement on exclusion) and the endpoint helpers;
* in-process router tests driving :meth:`RingRouter.dispatch` directly
  against ``serve`` tasks on ephemeral ports — "host death" is cancelling
  a host's serve task (its journals survive on disk, exactly like a
  killed process), and failover must be **byte-identical** to an
  uninterrupted single-host run;
* one socket-level ``route_serve`` end-to-end test (clients cannot tell
  the router from a single server).
"""

import asyncio
import contextlib
import json

import pytest

from repro.service import (
    DecompositionService,
    HashRing,
    ProtocolError,
    RingRouter,
    ServiceClient,
    canonical_record,
    endpoint_journal_dir,
    parse_endpoints,
    route_serve,
    serve,
)
from repro.service.ring import session_ring_key
from repro.stream import JournalStore, journal_file_name

STREAM_SPEC = {
    "family": "grid",
    "size": 8,
    "k": 4,
    "weights": "zipf",
    "algorithm": "stream",
    "params": {"trace": "random-churn", "steps": 12, "ops": 4},
}

DECOMPOSE_SPECS = [
    {"family": "grid", "size": 8, "k": 2},
    {"family": "grid", "size": 8, "k": 4},
    {"family": "mesh", "size": 8, "k": 2, "weights": "zipf"},
    {"family": "grid", "size": 8, "k": 2, "algorithm": "greedy"},
]


# ----------------------------------------------------------------------
class TestHashRing:
    def test_placement_is_deterministic_across_instances(self):
        endpoints = ["10.0.0.1:8642", "10.0.0.2:8642", "10.0.0.3:8642"]
        a, b = HashRing(endpoints), HashRing(list(reversed(endpoints)))
        for i in range(64):
            assert a.owner(f"session:s{i}") == b.owner(f"session:s{i}")

    def test_every_endpoint_owns_some_keys(self):
        endpoints = [f"10.0.0.{i}:8642" for i in range(1, 4)]
        ring = HashRing(endpoints)
        owners = {ring.owner(f"instance:{i}") for i in range(256)}
        assert owners == set(endpoints)

    def test_exclusion_moves_only_the_dead_hosts_keys(self):
        endpoints = [f"10.0.0.{i}:8642" for i in range(1, 5)]
        ring = HashRing(endpoints)
        keys = [f"session:s{i}" for i in range(256)]
        before = {key: ring.owner(key) for key in keys}
        dead = endpoints[0]
        for key in keys:
            after = ring.owner(key, exclude={dead})
            if before[key] != dead:
                assert after == before[key]  # survivors' keys never move
            else:
                assert after != dead

    def test_all_excluded_returns_none(self):
        ring = HashRing(["a:1", "b:1"])
        assert ring.owner("session:x", exclude={"a:1", "b:1"}) is None

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError, match="at least one endpoint"):
            HashRing([])

    @pytest.mark.parametrize("replicas", [0, -3])
    def test_replicas_below_one_rejected(self, replicas):
        with pytest.raises(ValueError, match=f"replicas must be >= 1, got {replicas}"):
            HashRing(["a:1"], replicas=replicas)


class TestEndpointHelpers:
    def test_parse_endpoints_string_and_iterable(self):
        assert parse_endpoints("a:1, b:2,") == ["a:1", "b:2"]
        assert parse_endpoints(["a:1", "b:2"]) == ["a:1", "b:2"]

    @pytest.mark.parametrize(
        "spec,match",
        [
            ("a", "must be host:port"),
            (":1", "must be host:port"),
            ("a:x", "non-numeric port"),
            ("a:0", "out-of-range port"),
            ("a:1,a:1", "duplicate endpoint"),
            ("", "at least one"),
        ],
    )
    def test_parse_endpoints_rejects(self, spec, match):
        with pytest.raises(ValueError, match=match):
            parse_endpoints(spec)

    def test_endpoint_journal_dir_convention(self, tmp_path):
        path = endpoint_journal_dir(tmp_path, "127.0.0.1:8642")
        assert path == tmp_path / "127.0.0.1_8642"


# ----------------------------------------------------------------------
# in-process ring fixtures


async def start_host(service):
    """One ``serve`` task on an ephemeral port; returns (task, endpoint)."""
    ready = asyncio.Event()
    bound = {}

    def _ready(host, port):
        bound.update(host=host, port=port)
        ready.set()

    task = asyncio.create_task(serve(service, port=0, ready=_ready))
    await asyncio.wait_for(ready.wait(), 10)
    return task, f"{bound['host']}:{bound['port']}"


async def kill_host(task):
    """Host death: the serve task dies, the journal directory survives."""
    task.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await task


class RingHarness:
    """N journaled in-process hosts plus a router over them."""

    def __init__(self, hosts, **router_kwargs):
        self.tasks = [task for task, _ in hosts]
        self.endpoints = [endpoint for _, endpoint in hosts]
        self.router = RingRouter(
            self.endpoints,
            retries=1,
            backoff_base_s=0.01,
            **router_kwargs,
        )
        self.stop = asyncio.Event()

    @classmethod
    async def start(cls, tmp_path, n=3, journaled=True, **router_kwargs):
        hosts, dirs = [], {}
        for i in range(n):
            journal_dir = tmp_path / f"host{i}-journals" if journaled else None
            service = DecompositionService(
                shards=0, journal_dir=journal_dir
            )
            task, endpoint = await start_host(service)
            hosts.append((task, endpoint))
            if journaled:
                dirs[endpoint] = journal_dir
        if journaled:
            router_kwargs.setdefault("journal_dirs", dirs)
        return cls(hosts, **router_kwargs)

    async def call(self, message: dict) -> dict:
        return await self.router.dispatch(dict(message), self.stop)

    def session_for(self, endpoint: str, prefix: str = "s") -> str:
        """A session id the ring places on ``endpoint``."""
        for i in range(10_000):
            sid = f"{prefix}{i}"
            if self.router.ring.owner(session_ring_key(sid)) == endpoint:
                return sid
        raise AssertionError(f"no session id maps to {endpoint}")

    async def shutdown(self):
        await self.call({"op": "shutdown"})  # propagates to live hosts
        for task, endpoint in zip(self.tasks, self.endpoints):
            if task.done():
                continue
            # a drained/downed-but-alive host is skipped by the router's
            # propagated shutdown; stop it directly instead of timing out
            host, _, port = endpoint.rpartition(":")
            with contextlib.suppress(OSError, asyncio.TimeoutError):
                client = await ServiceClient.connect(
                    host, int(port), connect_timeout=2)
                try:
                    await client.call({"op": "shutdown"}, timeout=5)
                finally:
                    await client.close()
            with contextlib.suppress(asyncio.CancelledError, asyncio.TimeoutError):
                await asyncio.wait_for(task, 30)


async def baseline_session(spec, mutates: int):
    """Uninterrupted single-host run: per-mutate results + final snapshot."""
    service = DecompositionService(shards=0)
    task, endpoint = await start_host(service)
    host, _, port = endpoint.rpartition(":")
    client = await ServiceClient.connect(host, int(port))
    try:
        opened = await client.open_stream("base", spec)
        assert opened["ok"]
        results = []
        snapshots = [canonical_record(opened["snapshot"])]
        for _ in range(mutates):
            mutated = await client.mutate("base", steps=1)
            assert mutated["ok"]
            results.append(json.dumps(mutated["results"], sort_keys=True))
            snap = await client.snapshot("base")
            snapshots.append(canonical_record(snap["snapshot"]))
        await client.shutdown()
    finally:
        await client.close()
        with contextlib.suppress(asyncio.CancelledError, asyncio.TimeoutError):
            await asyncio.wait_for(task, 30)
    return {"open": snapshots[0], "results": results, "snapshots": snapshots}


# ----------------------------------------------------------------------
class TestRouterStateless:
    def test_decompose_matches_direct_and_is_ring_size_invariant(self, tmp_path):
        async def run():
            harness = await RingHarness.start(tmp_path, n=3, journaled=False)
            single = RingRouter([harness.endpoints[0]], retries=1,
                                backoff_base_s=0.01, propagate_shutdown=False)
            try:
                ring3 = [await harness.call({"scenario": spec})
                         for spec in DECOMPOSE_SPECS]
                ring1 = [await single.dispatch({"scenario": spec}, harness.stop)
                         for spec in DECOMPOSE_SPECS]
                return ring3, ring1
            finally:
                await single.close()
                await harness.shutdown()

        ring3, ring1 = asyncio.run(run())
        assert all(r["ok"] for r in ring3 + ring1)
        for a, b in zip(ring3, ring1):
            assert canonical_record(a["record"]) == canonical_record(b["record"])

    def test_host_death_reroutes_stateless_requests(self, tmp_path):
        async def run():
            harness = await RingHarness.start(tmp_path, n=3, journaled=False)
            try:
                spec = DECOMPOSE_SPECS[0]
                first = await harness.call({"scenario": spec})
                # kill every host once so the owner is certainly among them?
                # no — kill the actual owner of this instance key
                from repro.service import scenario_from_spec

                key = "instance:" + scenario_from_spec(spec).instance_hash()
                owner = harness.router.ring.owner(key)
                await kill_host(harness.tasks[harness.endpoints.index(owner)])
                second = await harness.call({"scenario": spec})
                return first, second, owner, harness.router
            finally:
                await harness.shutdown()

        first, second, owner, router = asyncio.run(run())
        assert first["ok"] and second["ok"]
        assert canonical_record(first["record"]) == canonical_record(second["record"])
        assert owner in router.down
        assert router.rerouted >= 1

    def test_all_hosts_down_reports_no_live_host(self, tmp_path):
        async def run():
            harness = await RingHarness.start(tmp_path, n=2, journaled=False)
            try:
                for task in harness.tasks:
                    await kill_host(task)
                return await harness.call({"scenario": DECOMPOSE_SPECS[0]})
            finally:
                await harness.shutdown()

        resp = asyncio.run(run())
        assert not resp["ok"] and "no live ring host" in resp["error"]


# ----------------------------------------------------------------------
class TestRouterSessions:
    def test_session_through_router_matches_direct(self, tmp_path):
        async def run():
            harness = await RingHarness.start(tmp_path, n=3)
            try:
                opened = await harness.call(
                    {"op": "open_stream", "session": "base", "scenario": STREAM_SPEC})
                assert opened["ok"], opened
                out = {"open": canonical_record(opened["snapshot"]),
                       "results": [], "snapshots": []}
                for _ in range(3):
                    mutated = await harness.call(
                        {"op": "mutate", "session": "base", "steps": 1})
                    assert mutated["ok"], mutated
                    out["results"].append(
                        json.dumps(mutated["results"], sort_keys=True))
                    snap = await harness.call(
                        {"op": "snapshot", "session": "base"})
                    out["snapshots"].append(canonical_record(snap["snapshot"]))
                closed = await harness.call(
                    {"op": "close_stream", "session": "base"})
                assert closed["ok"]
                return out
            finally:
                await harness.shutdown()

        routed = asyncio.run(run())
        direct = asyncio.run(baseline_session(STREAM_SPEC, 3))
        assert routed["open"] == direct["open"]
        assert routed["results"] == direct["results"]
        assert routed["snapshots"] == direct["snapshots"][1:]

    def test_duplicate_open_and_unknown_session_rejected(self, tmp_path):
        async def run():
            harness = await RingHarness.start(tmp_path, n=2)
            try:
                first = await harness.call(
                    {"op": "open_stream", "session": "dup", "scenario": STREAM_SPEC})
                second = await harness.call(
                    {"op": "open_stream", "session": "dup", "scenario": STREAM_SPEC})
                unknown = await harness.call({"op": "snapshot", "session": "nope"})
                return first, second, unknown
            finally:
                await harness.shutdown()

        first, second, unknown = asyncio.run(run())
        assert first["ok"]
        assert not second["ok"] and "already exists" in second["error"]
        assert not unknown["ok"] and "unknown session" in unknown["error"]

    def test_host_death_mid_session_fails_over_byte_identical(self, tmp_path):
        async def run():
            harness = await RingHarness.start(tmp_path, n=3)
            router = harness.router
            try:
                sid = harness.session_for(harness.endpoints[0], prefix="fo")
                victim = router.ring.owner(session_ring_key(sid))
                opened = await harness.call(
                    {"op": "open_stream", "session": sid, "scenario": STREAM_SPEC})
                assert opened["ok"], opened
                results = []
                for _ in range(3):
                    mutated = await harness.call(
                        {"op": "mutate", "session": sid, "steps": 1})
                    assert mutated["ok"], mutated
                    results.append(json.dumps(mutated["results"], sort_keys=True))
                await kill_host(harness.tasks[harness.endpoints.index(victim)])
                # the next op finds the owner dead, replays its journal into
                # the new ring owner, and retries — no client-visible error
                mutated = await harness.call(
                    {"op": "mutate", "session": sid, "steps": 1})
                assert mutated["ok"], mutated
                results.append(json.dumps(mutated["results"], sort_keys=True))
                snap = await harness.call({"op": "snapshot", "session": sid})
                assert snap["ok"], snap
                closed = await harness.call({"op": "close_stream", "session": sid})
                assert closed["ok"], closed
                return {
                    "open": canonical_record(opened["snapshot"]),
                    "results": results,
                    "snapshot": canonical_record(snap["snapshot"]),
                    "victim": victim,
                    "stats": router.stats()["ring"],
                }
            finally:
                await harness.shutdown()

        routed = asyncio.run(run())
        direct = asyncio.run(baseline_session(STREAM_SPEC, 4))
        assert routed["open"] == direct["open"]
        assert routed["results"] == direct["results"]
        assert routed["snapshot"] == direct["snapshots"][4]
        assert routed["stats"]["handoffs"] == 1
        assert routed["stats"]["sessions_lost"] == 0
        assert routed["victim"] in routed["stats"]["down"]

    def test_applied_but_unacked_mutate_not_reapplied(self, tmp_path):
        """The exactly-once core: a mutate the dead host journaled but never
        acknowledged is answered from the replay, not re-sent."""

        async def run():
            harness = await RingHarness.start(tmp_path, n=3)
            router = harness.router
            try:
                sid = harness.session_for(harness.endpoints[0], prefix="dd")
                victim = router.ring.owner(session_ring_key(sid))
                opened = await harness.call(
                    {"op": "open_stream", "session": sid, "scenario": STREAM_SPEC})
                assert opened["ok"], opened
                results = []
                for _ in range(3):
                    mutated = await harness.call(
                        {"op": "mutate", "session": sid, "steps": 1})
                    results.append(json.dumps(mutated["results"], sort_keys=True))
                # simulate "applied, ack lost": the host journaled mutate 3
                # but (we pretend) its reply never reached a client, which
                # then retries the op through the router
                router._sessions[sid]["mutates_acked"] = 2
                await kill_host(harness.tasks[harness.endpoints.index(victim)])
                retried = await harness.call(
                    {"op": "mutate", "session": sid, "steps": 1})
                assert retried["ok"], retried
                snap = await harness.call({"op": "snapshot", "session": sid})
                return {
                    "retried": json.dumps(retried["results"], sort_keys=True),
                    "results": results,
                    "snapshot": canonical_record(snap["snapshot"]),
                    "handoffs": router.handoffs,
                }
            finally:
                await harness.shutdown()

        out = asyncio.run(run())
        direct = asyncio.run(baseline_session(STREAM_SPEC, 3))
        # the synthesized reply is byte-identical to the one the dead host
        # never delivered, and the state did NOT advance a fourth time
        assert out["retried"] == direct["results"][2]
        assert out["snapshot"] == direct["snapshots"][3]
        assert out["handoffs"] == 1

    def test_journaled_open_with_lost_ack_synthesized(self, tmp_path):
        async def run():
            harness = await RingHarness.start(tmp_path, n=2)
            router = harness.router
            try:
                sid = harness.session_for(harness.endpoints[0], prefix="oa")
                victim = router.ring.owner(session_ring_key(sid))
                index = harness.endpoints.index(victim)
                # open directly on the owner (the router never saw the op:
                # its reply — the "ack" — is what we declare lost)
                host, _, port = victim.rpartition(":")
                client = await ServiceClient.connect(host, int(port))
                direct = await client.open_stream(sid, STREAM_SPEC)
                assert direct["ok"]
                await client.close()
                await kill_host(harness.tasks[index])
                # the client retries the open through the router; the
                # journaled session is restored and the open reply
                # synthesized from a read-only snapshot
                opened = await harness.call(
                    {"op": "open_stream", "session": sid, "scenario": STREAM_SPEC})
                return direct, opened, router.handoffs
            finally:
                await harness.shutdown()

        direct, opened, handoffs = asyncio.run(run())
        assert opened["ok"], opened
        assert canonical_record(opened["snapshot"]) == canonical_record(
            direct["snapshot"])
        assert handoffs == 1

    def test_unjournaled_session_on_dead_host_is_lost(self, tmp_path):
        async def run():
            harness = await RingHarness.start(tmp_path, n=2, journaled=False)
            try:
                opened = await harness.call(
                    {"op": "open_stream", "session": "gone", "scenario": STREAM_SPEC})
                assert opened["ok"]
                owner = harness.router._sessions["gone"]["endpoint"]
                await kill_host(harness.tasks[harness.endpoints.index(owner)])
                lost = await harness.call(
                    {"op": "mutate", "session": "gone", "steps": 1})
                return lost, harness.router.sessions_lost
            finally:
                await harness.shutdown()

        lost, counter = asyncio.run(run())
        assert not lost["ok"] and "session lost" in lost["error"]
        assert "no journal root" in lost["error"]
        assert counter == 1

    def test_divergent_journal_refused(self, tmp_path):
        dead, other = "127.0.0.1:1", "127.0.0.1:2"
        store = JournalStore(tmp_path)
        store.create("div", {"scenario": STREAM_SPEC, "base": None})
        store.append("div", {"steps": 1})
        store.append("div", {"steps": 1})
        store.close()
        router = RingRouter([dead, other], journal_dirs={dead: tmp_path})
        router.down.add(dead)
        entry = {"endpoint": dead, "lock": asyncio.Lock(), "mutates_acked": 5}
        reply = asyncio.run(router._handoff_session("div", entry, "mutate"))
        assert not reply["ok"]
        assert "refusing a divergent handoff" in reply["error"]
        assert "2 op(s) but 5 were acknowledged" in reply["error"]

    def test_drain_host_relocates_sessions_without_loss(self, tmp_path):
        async def run():
            harness = await RingHarness.start(tmp_path, n=2)
            router = harness.router
            try:
                victim = harness.endpoints[0]
                sid = harness.session_for(victim, prefix="dr")
                opened = await harness.call(
                    {"op": "open_stream", "session": sid, "scenario": STREAM_SPEC})
                assert opened["ok"], opened
                for _ in range(2):
                    assert (await harness.call(
                        {"op": "mutate", "session": sid, "steps": 1}))["ok"]
                drained = await harness.call({"op": "drain_host", "host": victim})
                moved_to = router._sessions[sid]["endpoint"]
                mutated = await harness.call(
                    {"op": "mutate", "session": sid, "steps": 1})
                snap = await harness.call({"op": "snapshot", "session": sid})
                bad = None
                try:
                    await router.drain_host("not-a-host:1")
                except ProtocolError as exc:
                    bad = str(exc)
                return drained, moved_to, victim, mutated, snap, bad, router
            finally:
                await harness.shutdown()

        drained, moved_to, victim, mutated, snap, bad, router = asyncio.run(run())
        assert drained["ok"] and drained["drained"] == 1 and drained["failed"] == 0
        assert moved_to != victim
        assert mutated["ok"] and snap["ok"]
        direct = asyncio.run(baseline_session(STREAM_SPEC, 3))
        assert canonical_record(snap["snapshot"]) == direct["snapshots"][3]
        assert router.sessions_lost == 0
        assert bad is not None and "unknown ring host" in bad

    def test_ambiguous_mutate_failure_is_not_resent(self, tmp_path):
        """A mutate whose connection dies after the request was written may
        already have applied on the (still healthy) host.  Re-sending it
        would double-apply — state advances twice, and the journal lands at
        ``mutates_acked + 2``, poisoning the next handoff as divergent.
        The router must send it exactly once and let the journal-based
        handoff synthesize the lost reply instead."""

        async def run():
            harness = await RingHarness.start(tmp_path, n=3)
            router = harness.router
            try:
                sid = harness.session_for(harness.endpoints[0], prefix="am")
                victim = router.ring.owner(session_ring_key(sid))
                opened = await harness.call(
                    {"op": "open_stream", "session": sid,
                     "scenario": STREAM_SPEC})
                assert opened["ok"], opened
                results = []
                for _ in range(2):
                    mutated = await harness.call(
                        {"op": "mutate", "session": sid, "steps": 1})
                    assert mutated["ok"], mutated
                    results.append(json.dumps(mutated["results"], sort_keys=True))
                # ambiguous-failure injection: the host receives, applies
                # and journals the mutate, but the reply never arrives
                pool = router.pools[victim]
                real_request = pool.request
                mutate_sends = 0

                async def ack_lost(message):
                    nonlocal mutate_sends
                    resp = await real_request(message)
                    if message.get("op") == "mutate":
                        mutate_sends += 1
                        raise asyncio.TimeoutError("reply lost after apply")
                    return resp

                pool.request = ack_lost
                retried = await harness.call(
                    {"op": "mutate", "session": sid, "steps": 1})
                pool.request = real_request
                assert retried["ok"], retried
                results.append(json.dumps(retried["results"], sort_keys=True))
                snap = await harness.call({"op": "snapshot", "session": sid})
                assert snap["ok"], snap
                return {
                    "results": results,
                    "snapshot": canonical_record(snap["snapshot"]),
                    "sends": mutate_sends,
                    "victim_down": victim in router.down,
                    "handoffs": router.handoffs,
                    "lost": router.sessions_lost,
                }
            finally:
                await harness.shutdown()

        out = asyncio.run(run())
        direct = asyncio.run(baseline_session(STREAM_SPEC, 3))
        # exactly one send: the ambiguous failure must not burn the retry
        # budget re-sending a non-idempotent op to the same host
        assert out["sends"] == 1
        assert out["victim_down"] and out["handoffs"] == 1 and out["lost"] == 0
        # the synthesized reply and the state are byte-identical to an
        # uninterrupted run — the mutate applied exactly once, not twice
        assert out["results"] == direct["results"]
        assert out["snapshot"] == direct["snapshots"][3]

    def test_drain_host_walks_past_dead_restore_target(self, tmp_path):
        """If the preferred restore target dies during a drain, the session
        has NOT moved yet — the drain must walk on to the next live owner
        before releasing the drained host's copy, never count the session
        drained and delete the only journal while it still lives on the
        drained host."""

        async def run():
            harness = await RingHarness.start(tmp_path, n=3)
            router = harness.router
            try:
                victim = harness.endpoints[0]
                sid = harness.session_for(victim, prefix="dw")
                target = router.ring.owner(session_ring_key(sid),
                                           exclude={victim})
                survivor = next(e for e in harness.endpoints
                                if e not in (victim, target))
                opened = await harness.call(
                    {"op": "open_stream", "session": sid,
                     "scenario": STREAM_SPEC})
                assert opened["ok"], opened
                for _ in range(2):
                    assert (await harness.call(
                        {"op": "mutate", "session": sid, "steps": 1}))["ok"]
                # the drain-time restore target dies before the drain starts
                # (the router does not know yet)
                await kill_host(harness.tasks[harness.endpoints.index(target)])
                drained = await harness.call(
                    {"op": "drain_host", "host": victim})
                landed_on = router._sessions[sid]["endpoint"]
                mutated = await harness.call(
                    {"op": "mutate", "session": sid, "steps": 1})
                snap = await harness.call({"op": "snapshot", "session": sid})
                return (drained, landed_on, survivor, target, mutated, snap,
                        router)
            finally:
                await harness.shutdown()

        drained, landed_on, survivor, target, mutated, snap, router = \
            asyncio.run(run())
        assert drained["ok"], drained
        assert drained["drained"] == 1 and drained["failed"] == 0
        assert landed_on == survivor  # walked past the dead target
        assert target in router.down
        assert mutated["ok"] and snap["ok"]
        direct = asyncio.run(baseline_session(STREAM_SPEC, 3))
        assert canonical_record(snap["snapshot"]) == direct["snapshots"][3]
        assert router.sessions_lost == 0


# ----------------------------------------------------------------------
class TestRouteServe:
    def test_socket_end_to_end_with_stats_and_propagated_shutdown(self, tmp_path):
        async def run():
            harness = await RingHarness.start(tmp_path, n=2)
            ready = asyncio.Event()
            bound = {}

            def _ready(host, port):
                bound.update(host=host, port=port)
                ready.set()

            route_task = asyncio.create_task(
                route_serve(harness.router, port=0, ready=_ready))
            await asyncio.wait_for(ready.wait(), 10)
            client = await ServiceClient.connect(bound["host"], bound["port"])
            try:
                pong = await client.ping()
                resp = await client.decompose(DECOMPOSE_SPECS[0])
                opened = await client.open_stream("sock", STREAM_SPEC)
                mutated = await client.mutate("sock", steps=1)
                stats = await client.stats()
                closed = await client.close_stream("sock")
                await client.shutdown()  # propagates to both hosts
            finally:
                await client.close()
            await asyncio.wait_for(route_task, 30)
            for task in harness.tasks:
                await asyncio.wait_for(task, 30)
            return pong, resp, opened, mutated, stats, closed

        pong, resp, opened, mutated, stats, closed = asyncio.run(run())
        assert pong["ok"] and pong["ring"] == 2
        assert resp["ok"] and resp["id"] == 2
        assert opened["ok"] and mutated["ok"] and closed["ok"]
        ring = stats["stats"]["ring"]
        assert ring["handoffs"] == 0 and ring["sessions_lost"] == 0
        assert set(stats["stats"]["backends"]) == set(ring["endpoints"])
        # session counters are summed across backends like one big server
        assert stats["stats"]["sessions"]["opened"] == 1

    def test_journal_root_convention_used_when_no_explicit_dirs(self, tmp_path):
        router = RingRouter(["127.0.0.1:8642"], tmp_path)
        path = router._journal_path("127.0.0.1:8642", "sid")
        assert path == tmp_path / "127.0.0.1_8642" / journal_file_name("sid")
        rootless = RingRouter(["127.0.0.1:8642"])
        assert rootless._journal_path("127.0.0.1:8642", "sid") is None

    def test_probe_never_revives_a_drained_host(self, tmp_path):
        """A drained host is healthy and answers pings; the background
        probe must not return it to the ring (that would undo the drain in
        the window before the operator stops the process).  Only an
        explicit undrain_host readmits it."""

        async def run():
            harness = await RingHarness.start(tmp_path, n=2, journaled=False)
            router = harness.router
            ready = asyncio.Event()
            bound = {}

            def _ready(host, port):
                bound.update(host=host, port=port)
                ready.set()

            route_task = asyncio.create_task(
                route_serve(harness.router, port=0, ready=_ready,
                            probe_interval=0.05))
            await asyncio.wait_for(ready.wait(), 10)
            client = await ServiceClient.connect(bound["host"], bound["port"])
            try:
                victim = harness.endpoints[0]
                drained = await client.call(
                    {"op": "drain_host", "host": victim})
                await asyncio.sleep(0.4)  # several probe cycles ping away
                still_down = victim in router.down
                router.mark_up(victim)  # the probe's path — refused too
                mark_up_refused = victim in router.down
                mid = router.stats()["ring"]
                undrained = await client.call(
                    {"op": "undrain_host", "host": victim})
                after = router.stats()["ring"]
                await client.shutdown()
            finally:
                await client.close()
            await asyncio.wait_for(route_task, 30)
            for task in harness.tasks:
                with contextlib.suppress(asyncio.CancelledError,
                                         asyncio.TimeoutError):
                    await asyncio.wait_for(task, 30)
            return drained, still_down, mark_up_refused, mid, undrained, after

        drained, still_down, mark_up_refused, mid, undrained, after = \
            asyncio.run(run())
        assert drained["ok"]
        assert still_down and mark_up_refused
        assert mid["down"] == mid["drained"] != []
        assert undrained["ok"] and undrained["undrained"] and undrained["up"]
        assert after["down"] == [] and after["drained"] == []


# ----------------------------------------------------------------------
class TestRestoreTakeover:
    """restore_stream must not clobber a live session unless the caller —
    in practice only the router's handoff — explicitly asks to take over
    (REVIEW: any client knowing a session id could replace another
    client's live session with attacker-chosen scenario/ops)."""

    def test_restore_refuses_live_session_without_takeover(self, tmp_path):
        async def run():
            service = DecompositionService(shards=0)
            task, endpoint = await start_host(service)
            host, _, port = endpoint.rpartition(":")
            client = await ServiceClient.connect(host, int(port))
            try:
                opened = await client.open_stream("dup", STREAM_SPEC)
                assert opened["ok"], opened
                assert (await client.mutate("dup", steps=1))["ok"]
                hijack = await client.call({
                    "op": "restore_stream", "session": "dup",
                    "scenario": STREAM_SPEC, "base": None, "ops": []})
                survived = await client.snapshot("dup")
                bad_flag = await client.call({
                    "op": "restore_stream", "session": "dup",
                    "scenario": STREAM_SPEC, "base": None, "ops": [],
                    "takeover": "yes"})
                takeover = await client.call({
                    "op": "restore_stream", "session": "dup",
                    "scenario": STREAM_SPEC, "base": None, "ops": [],
                    "takeover": True})
                replaced = await client.snapshot("dup")
                await client.shutdown()
                return opened, hijack, survived, bad_flag, takeover, replaced
            finally:
                await client.close()
                with contextlib.suppress(asyncio.CancelledError,
                                         asyncio.TimeoutError):
                    await asyncio.wait_for(task, 30)

        opened, hijack, survived, bad_flag, takeover, replaced = \
            asyncio.run(run())
        assert not hijack["ok"] and "already exists" in hijack["error"]
        assert not bad_flag["ok"] and "takeover" in bad_flag["error"]
        # the refused restore left the mutated live session untouched
        assert survived["ok"]
        assert survived["snapshot"]["version"] != opened["snapshot"]["version"]
        # the explicit takeover replaced it with the replayed zero-op state
        assert takeover["ok"] and takeover["restored"]
        assert replaced["snapshot"]["version"] == opened["snapshot"]["version"]
        assert canonical_record(replaced["snapshot"]) == canonical_record(
            opened["snapshot"])


# ----------------------------------------------------------------------
class TestRouterDefaults:
    def test_default_hop_deadline_matches_loadgen(self):
        """The router's per-hop deadline must be at least the deadline
        loadgen clients wait for a single op — a shorter hop deadline
        turns every legitimately slow op into a marked-down healthy host
        (and, with probing off by default, a permanently shrunken ring)."""
        import inspect

        from repro.service.loadgen import run_churn, run_loadgen

        router_default = inspect.signature(
            RingRouter.__init__).parameters["request_timeout"].default
        for fn in (run_loadgen, run_churn):
            client_default = inspect.signature(
                fn).parameters["request_timeout"].default
            assert router_default >= client_default

    @pytest.mark.parametrize("kwargs, match", [
        ({"request_timeout": 0}, "request_timeout must be > 0, got 0"),
        ({"request_timeout": -1}, "request_timeout must be > 0, got -1"),
        ({"connect_timeout": 0}, "connect_timeout must be > 0, got 0"),
        ({"connect_timeout": -1}, "connect_timeout must be > 0, got -1"),
        ({"retries": -3}, "retries must be >= 0, got -3"),
        ({"backoff_base_s": -1}, "backoff_base_s must be >= 0, got -1"),
        ({"replicas": 0}, "replicas must be >= 1, got 0"),
    ])
    def test_out_of_range_settings_rejected(self, kwargs, match):
        # a zero timeout fails every hop and marks every healthy host down;
        # the others used to be clamped without a word
        with pytest.raises(ValueError, match=match):
            RingRouter(["127.0.0.1:1"], **kwargs)

    @pytest.mark.parametrize("flag, value, message", [
        ("--request-timeout", "0", "request_timeout must be > 0, got 0.0"),
        ("--connect-timeout", "-1", "connect_timeout must be > 0, got -1.0"),
        ("--retries", "-1", "retries must be >= 0, got -1"),
        ("--backoff-ms", "-5", "backoff_base_s must be >= 0, got -0.005"),
        ("--replicas", "0", "replicas must be >= 1, got 0"),
        ("--probe-interval", "0", "--probe-interval must be > 0, got 0.0"),
        ("--probe-interval", "-1", "--probe-interval must be > 0, got -1.0"),
    ])
    def test_route_reports_bad_settings_in_one_line(self, monkeypatch, flag, value, message):
        import repro.service as service_mod
        from repro.cli import main

        def unreachable(*args, **kwargs):
            raise AssertionError("the router started despite a bad setting")

        monkeypatch.setattr(service_mod, "route_serve", unreachable)
        with pytest.raises(SystemExit) as exc:
            main(["route", "--port", "0", "--backends", "127.0.0.1:1", flag, value])
        assert exc.value.code == f"route: {message}"
