"""Crash-safe streaming sessions: journal, replay, and fault injection.

Three layers, cheapest first:

* unit tests for the journal store (append-only format, torn-tail reads,
  GC) and :func:`repro.stream.replay_session` (deterministic rebuild,
  divergence detection);
* inline-shard service tests where a "crash" is a simulated registry wipe
  (fast: no subprocesses), holding the recovery wiring, the escape
  hatches, and journal lifecycle/GC;
* real process-shard tests driven by the fault-injection harness
  (``tests/faultinject.py``): workers are hard-killed at chosen points
  mid-churn and the recovered snapshots must be **byte-identical** to an
  uninterrupted run — the property the CI chaos-smoke job enforces on the
  smoke trace.
"""

import asyncio
import contextlib
import json

import pytest
from faultinject import (
    arm_faults,
    fired_count,
    kill_shard_workers,
    run_churn_service,
)

from repro.runtime import Scenario, build_instance
from repro.service import (
    DecompositionService,
    RingRouter,
    ServiceClient,
    ShardPool,
    canonical_record,
    serve,
)
from repro.service import sessions as worker_sessions
from repro.stream import (
    JournalError,
    JournalStore,
    ReplayError,
    StreamSession,
    journal_file_name,
    read_journal,
    replay_session,
)

STREAM_SPEC = {
    "family": "grid",
    "size": 8,
    "k": 4,
    "weights": "zipf",
    "algorithm": "stream",
    "params": {"trace": "random-churn", "steps": 6, "ops": 4},
}

SCENARIO = Scenario(family="grid", size=8, k=4, weights="zipf", algorithm="stream",
                    params={"trace": "random-churn", "steps": 6, "ops": 4})


async def start_server(service):
    ready = asyncio.Event()
    bound = {}

    def _ready(host, port):
        bound.update(host=host, port=port)
        ready.set()

    task = asyncio.create_task(serve(service, port=0, ready=_ready))
    await asyncio.wait_for(ready.wait(), 10)
    return task, bound["host"], bound["port"]


async def stop_server(task, host, port):
    client = await ServiceClient.connect(host, port)
    await client.shutdown()
    await client.close()
    await asyncio.wait_for(task, 30)


# ----------------------------------------------------------------------
class TestJournalStore:
    def test_roundtrip(self, tmp_path):
        store = JournalStore(tmp_path)
        store.create("s1", {"scenario": STREAM_SPEC, "base": {"version": 0, "hash": "abc"}})
        store.append("s1", {"steps": 1, "version": 1, "hash": "h1"})
        store.append("s1", {"mutations": [["weight", 0, 2.0]], "version": 2, "hash": "h2"})
        header, ops = store.load("s1")
        assert header["kind"] == "open" and header["session"] == "s1"
        assert header["base"] == {"version": 0, "hash": "abc"}
        assert [op["kind"] for op in ops] == ["mutate", "mutate"]
        assert ops[0]["steps"] == 1 and ops[1]["mutations"] == [["weight", 0, 2.0]]
        assert store.stats()["appends"] == 2

    def test_torn_trailing_line_dropped(self, tmp_path):
        store = JournalStore(tmp_path)
        store.create("s1", {"base": {"version": 0, "hash": "abc"}})
        store.append("s1", {"steps": 1, "version": 1, "hash": "h1"})
        path = store.path_for("s1")
        # simulate a crash mid-append: a second entry cut off mid-JSON
        with open(path, "a") as fh:
            fh.write('{"kind": "mutate", "steps": 2, "vers')
        _, ops = read_journal(path)
        assert len(ops) == 1 and ops[0]["version"] == 1
        # a complete JSON line with no terminating newline is torn too:
        # the single write() of line+\n was cut, so it was never acked
        path.write_text(path.read_text().rsplit("{", 1)[0].rstrip("\n") + "\n"
                        + '{"kind": "mutate", "steps": 2, "version": 2}')
        _, ops = read_journal(path)
        assert len(ops) == 1

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "bad.journal"
        path.write_text('{"kind": "open", "session": "s"}\nnot json\n{"kind": "mutate"}\n')
        with pytest.raises(JournalError, match="corrupt journal line 2"):
            read_journal(path)

    def test_terminated_corrupt_final_line_raises(self, tmp_path):
        # a newline-terminated corrupt line cannot be a torn append (each
        # entry is one write of json+\n): it is corruption of an
        # acknowledged op, and loading must refuse rather than under-replay
        path = tmp_path / "bad.journal"
        path.write_text('{"kind": "open", "session": "s"}\n{"kind": "mutate", bad}\n')
        with pytest.raises(JournalError, match="corrupt journal line 2"):
            read_journal(path)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "bad.journal"
        path.write_text('{"kind": "mutate", "steps": 1}\n')
        with pytest.raises(JournalError, match="no open header"):
            read_journal(path)
        path.write_text("")
        with pytest.raises(JournalError, match="no open header"):
            read_journal(path)
        with pytest.raises(JournalError, match="cannot read"):
            read_journal(tmp_path / "absent.journal")

    def test_delete_and_sweep(self, tmp_path):
        store = JournalStore(tmp_path)
        for sid in ("live", "dead-1", "dead-2"):
            store.create(sid, {"base": {}})
        assert store.delete("dead-1") is True
        assert store.delete("dead-1") is False  # idempotent
        assert store.sweep(live_sessions=["live"]) == 1  # dead-2 collected
        assert store.path_for("live").exists()
        assert not store.path_for("dead-2").exists()
        (tmp_path / "unrelated.txt").write_text("keep me")
        assert store.sweep() == 1  # "live" has no live session any more
        assert (tmp_path / "unrelated.txt").exists()  # only *.journal touched

    def test_hostile_session_ids_stay_in_directory(self, tmp_path):
        store = JournalStore(tmp_path)
        for sid in ("../escape", "a/b/c", "x" * 128, "\x00?*"):
            path = store.path_for(sid)
            assert path.parent == tmp_path
            store.create(sid, {"base": {}})
            assert path.exists()
        # distinct ids that sanitize identically still get distinct files
        assert store.path_for("a/b") != store.path_for("a_b")

    def test_append_without_create_raises(self, tmp_path):
        with pytest.raises(JournalError, match="no journal open"):
            JournalStore(tmp_path).append("ghost", {"steps": 1})

    def test_append_hook_fires(self, tmp_path):
        seen = []
        store = JournalStore(tmp_path, append_hook=lambda sid, entry: seen.append(sid))
        store.create("s1", {"base": {}})
        store.append("s1", {"steps": 1})
        assert seen == ["s1"]

    def test_failed_service_init_releases_resources(self, tmp_path):
        """A DecompositionService that cannot claim the journal dir must
        fail without keeping executors or a directory flock behind."""
        holder = JournalStore(tmp_path)  # another "server" owns the dir
        with pytest.raises(JournalError, match="already in use"):
            DecompositionService(shards=0, journal_dir=tmp_path)
        holder.close()
        # with the owner gone the same construction now succeeds, proving
        # the failed attempt left no lock of its own behind
        service = DecompositionService(shards=0, journal_dir=tmp_path)
        assert service.recovery is True
        asyncio.run(service.close())

    def test_directory_has_one_owner(self, tmp_path):
        """A second store on the same directory must fail loudly — its
        startup sweep would silently unlink the live owner's journals."""
        first = JournalStore(tmp_path)
        first.create("live", {"base": {}})
        with pytest.raises(JournalError, match="already in use"):
            JournalStore(tmp_path)
        assert first.path_for("live").exists()  # nothing was swept
        first.close()
        second = JournalStore(tmp_path)  # ownership released with close()
        assert second.sweep() == 1  # ...and now the orphan sweep is sound
        second.close()


def session_base(session: StreamSession) -> dict:
    return session.fingerprint()


# ----------------------------------------------------------------------
class TestReplaySession:
    def build(self):
        return StreamSession(build_instance(SCENARIO), SCENARIO)

    def test_replay_reproduces_trace_and_explicit_ops(self):
        live = self.build()
        ops = []
        base = live.fingerprint()
        live.step()
        ops.append({"steps": 1, **live.fingerprint()})
        live.apply_mutations([["weight", 0, 9.0], ["cost", 0, 1, 3.0]])
        ops.append({"mutations": [["weight", 0, 9.0], ["cost", 0, 1, 3.0]],
                    **live.fingerprint()})
        live.step()
        live.step()
        ops.append({"steps": 2, **live.fingerprint()})
        rebuilt = replay_session(build_instance(SCENARIO), SCENARIO, ops, base=base)
        assert rebuilt.snapshot() == live.snapshot()
        assert rebuilt.fingerprint() == live.fingerprint()

    def test_replay_empty_log(self):
        live = self.build()
        rebuilt = replay_session(build_instance(SCENARIO), SCENARIO, [],
                                 base=live.fingerprint())
        assert rebuilt.snapshot() == live.snapshot()

    def test_diverged_hash_raises(self):
        live = self.build()
        live.step()
        ops = [{"steps": 1, "version": 1, "hash": "0123456789abcdef"}]
        with pytest.raises(ReplayError, match="replay diverged at op 1/1"):
            replay_session(build_instance(SCENARIO), SCENARIO, ops,
                           base=session_base(self.build()))

    def test_diverged_base_raises(self):
        with pytest.raises(ReplayError, match="replay diverged at base state"):
            replay_session(build_instance(SCENARIO), SCENARIO, [],
                           base={"version": 0, "hash": "not-the-hash"})

    def test_diverged_version_raises(self):
        live = self.build()
        live.step()
        ops = [{"steps": 1, "version": 7, "hash": live.fingerprint()["hash"]}]
        with pytest.raises(ReplayError, match="version"):
            replay_session(build_instance(SCENARIO), SCENARIO, ops)


# ----------------------------------------------------------------------
class TestInlineRecovery:
    """Recovery wiring without subprocesses: the 'crash' wipes the inline
    worker's session registry, exactly what a respawned process looks like."""

    def run_service(self, coro_fn, **service_kwargs):
        async def run():
            service = DecompositionService(shards=0, **service_kwargs)
            task, host, port = await start_server(service)
            client = await ServiceClient.connect(host, port)
            try:
                return await coro_fn(service, client)
            finally:
                await client.close()
                await stop_server(task, host, port)

        return asyncio.run(run())

    def test_registry_wipe_recovers_byte_identical(self, tmp_path):
        async def scenario(service, client):
            await client.open_stream("s1", STREAM_SPEC)
            await client.mutate("s1", steps=2)
            before = await client.snapshot("s1")
            worker_sessions._SESSIONS.clear()  # the crash
            after = await client.snapshot("s1")
            resumed = await client.mutate("s1", steps=1)  # journal keeps growing
            worker_sessions._SESSIONS.clear()  # crash again, post-recovery
            final = await client.snapshot("s1")
            stats = await client.stats()
            return before, after, resumed, final, stats["stats"]

        before, after, resumed, final, stats = self.run_service(
            scenario, journal_dir=tmp_path / "journals")
        assert after["ok"] and after["snapshot"] == before["snapshot"]
        assert resumed["ok"]
        assert final["ok"] and final["snapshot"]["version"] == 3
        assert stats["sessions"]["recovered"] == 2
        assert stats["sessions"]["lost"] == 0
        assert stats["journal"]["appends"] == 2  # one entry per mutate request

    def test_mutate_replies_carry_no_journal_fingerprint(self, tmp_path):
        async def scenario(service, client):
            await client.open_stream("s1", STREAM_SPEC)
            return await client.mutate("s1", steps=1)

        mutated = self.run_service(scenario, journal_dir=tmp_path / "j")
        assert mutated["ok"] and "state" not in mutated

    def test_no_recovery_escape_hatch(self, tmp_path):
        async def scenario(service, client):
            await client.open_stream("s1", STREAM_SPEC)
            await client.mutate("s1", steps=1)
            worker_sessions._SESSIONS.clear()
            lost = await client.snapshot("s1")
            stats = await client.stats()
            return lost, stats["stats"], service.journal.path_for("s1").exists()

        lost, stats, journal_left = self.run_service(
            scenario, journal_dir=tmp_path / "journals", recovery=False)
        assert not lost["ok"] and "unknown session" in lost["error"]
        assert stats["sessions"]["lost"] == 1 and stats["sessions"]["recovered"] == 0
        assert not journal_left  # the lost session's journal is GC'd

    def test_without_journal_loss_is_terminal(self):
        async def scenario(service, client):
            await client.open_stream("s1", STREAM_SPEC)
            worker_sessions._SESSIONS.clear()
            lost = await client.mutate("s1", steps=1)
            stats = await client.stats()
            return lost, stats["stats"]

        lost, stats = self.run_service(scenario)
        assert not lost["ok"]
        assert stats["sessions"]["lost"] == 1
        assert "journal" not in stats

    def test_tampered_journal_reports_loss(self, tmp_path):
        async def scenario(service, client):
            await client.open_stream("s1", STREAM_SPEC)
            await client.mutate("s1", steps=1)
            path = service.journal.path_for("s1")
            lines = path.read_text().splitlines()
            doc = json.loads(lines[1])
            doc["hash"] = "0123456789abcdef"  # not what replay will produce
            lines[1] = json.dumps(doc)
            path.write_text("\n".join(lines) + "\n")
            worker_sessions._SESSIONS.clear()
            lost = await client.snapshot("s1")
            stats = await client.stats()
            return lost, stats["stats"]

        lost, stats = self.run_service(scenario, journal_dir=tmp_path / "journals")
        assert not lost["ok"]
        assert stats["sessions"]["lost"] == 1 and stats["sessions"]["recovered"] == 0

    def test_unknown_mutation_in_journal_is_typed_loss(self, tmp_path):
        """Regression: a journal carrying a mutation kind this build does
        not know (a newer build's growth op handed off mid-upgrade) must
        surface the typed ``session lost: unknown mutation`` error — once,
        without recovery retries — never a bare ``KeyError``."""

        async def scenario(service, client):
            await client.open_stream("s1", STREAM_SPEC)
            await client.mutate("s1", mutations=[["weight", 0, 2.0]])
            path = service.journal.path_for("s1")
            lines = path.read_text().splitlines()
            doc = json.loads(lines[1])
            doc["mutations"] = [["teleport_vertex", 0]]  # a future build's kind
            lines[1] = json.dumps(doc)
            path.write_text("\n".join(lines) + "\n")
            worker_sessions._SESSIONS.clear()
            lost = await client.snapshot("s1")
            retry = await client.snapshot("s1")
            stats = await client.stats()
            return lost, retry, stats["stats"]

        lost, retry, stats = self.run_service(
            scenario, journal_dir=tmp_path / "journals")
        assert not lost["ok"]
        assert lost["error"].startswith("session lost: unknown mutation")
        assert "teleport_vertex" in lost["error"]
        assert "KeyError" not in lost["error"]
        assert stats["sessions"]["lost"] == 1 and stats["sessions"]["recovered"] == 0
        # terminal: no recovery retries burned on an unfixable journal
        assert stats["sessions"].get("recovery_retries", 0) == 0
        # the session and its journal are gone; the id reads cleanly unknown
        assert not retry["ok"] and "unknown session" in retry["error"]

    def test_journal_create_failure_fails_open_cleanly(self, tmp_path):
        """A full/readonly journal disk must fail the open — not wedge the
        session id with worker-side state and no journal behind it."""

        async def scenario(service, client):
            original_create = service.journal.create

            def disk_full(sid, header):
                raise OSError("no space left on device")

            service.journal.create = disk_full
            failed = await client.open_stream("s1", STREAM_SPEC)
            service.journal.create = original_create
            # the id is reusable and the worker-side session was freed
            # (a leftover would make this open fail with "already exists")
            reopened = await client.open_stream("s1", STREAM_SPEC)
            mutated = await client.mutate("s1", steps=1)
            return failed, reopened, mutated

        failed, reopened, mutated = self.run_service(
            scenario, journal_dir=tmp_path / "journals")
        assert not failed["ok"] and "journal unavailable" in failed["error"]
        assert reopened["ok"] and mutated["ok"]

    def test_partial_journal_create_leaves_no_file_or_handle(self, tmp_path):
        """If the header write itself dies (create registered the file and
        fd first), the open must clean up both — no zombie journal."""
        import repro.stream.journal as journal_mod

        async def scenario(service, client):
            original = journal_mod._Journal.append

            def dying_header(self, entry):
                raise OSError("no space left on device")

            journal_mod._Journal.append = dying_header
            try:
                failed = await client.open_stream("s1", STREAM_SPEC)
            finally:
                journal_mod._Journal.append = original
            leftovers = list((tmp_path / "journals").glob("*.journal"))
            reopened = await client.open_stream("s1", STREAM_SPEC)
            return failed, leftovers, reopened, service.journal.stats()

        failed, leftovers, reopened, stats = self.run_service(
            scenario, journal_dir=tmp_path / "journals")
        assert not failed["ok"] and "journal unavailable" in failed["error"]
        assert leftovers == []  # the half-created file was deleted
        assert reopened["ok"]
        assert stats["open"] == 1  # only the reopened session's handle

    def test_failed_deferred_fsync_does_not_fail_the_mutate(self, tmp_path):
        """The entry is in the log (write+flush succeeded); a dying disk
        barrier must not error an applied op into a double-applying retry."""

        async def scenario(service, client):
            service.journal.fsync_every = 1  # every append requests a sync
            await client.open_stream("s1", STREAM_SPEC)

            def dying_sync(sid):
                raise OSError("I/O error")

            service.journal.sync_session = dying_sync
            mutated = await client.mutate("s1", steps=1)
            snap = await client.snapshot("s1")
            return mutated, snap

        mutated, snap = self.run_service(scenario, journal_dir=tmp_path / "j")
        assert mutated["ok"]
        assert snap["ok"] and snap["snapshot"]["version"] == 1

    def test_journal_append_failure_is_terminal_loss(self, tmp_path):
        """A mutate the journal cannot record must not be acknowledged:
        a gapped log would replay to silently different state, so the
        session is reported lost and its state and journal are freed."""

        async def scenario(service, client):
            await client.open_stream("s1", STREAM_SPEC)
            original = service.journal.append

            def disk_full(sid, entry):
                raise OSError("no space left on device")

            service.journal.append = disk_full
            lost = await client.mutate("s1", steps=1)
            service.journal.append = original
            journal_left = service.journal.path_for("s1").exists()
            reopened = await client.open_stream("s1", STREAM_SPEC)
            stats = await client.stats()
            return lost, journal_left, reopened, stats["stats"]

        lost, journal_left, reopened, stats = self.run_service(
            scenario, journal_dir=tmp_path / "journals")
        assert not lost["ok"] and "session lost" in lost["error"]
        assert not journal_left  # the gapped journal was deleted
        assert reopened["ok"]  # worker-side state was freed with the entry
        assert stats["sessions"]["lost"] == 1

    def test_missing_journal_file_reports_loss(self, tmp_path):
        async def scenario(service, client):
            await client.open_stream("s1", STREAM_SPEC)
            await client.mutate("s1", steps=1)
            service.journal.path_for("s1").unlink()  # the disk lost it
            worker_sessions._SESSIONS.clear()
            lost = await client.snapshot("s1")
            stats = await client.stats()
            return lost, stats["stats"]

        lost, stats = self.run_service(scenario, journal_dir=tmp_path / "journals")
        assert not lost["ok"]
        assert stats["sessions"]["lost"] == 1 and stats["sessions"]["recovered"] == 0

    def test_recovery_attempts_exhausted_reports_loss(self, tmp_path):
        async def scenario(service, client):
            await client.open_stream("s1", STREAM_SPEC)
            await client.mutate("s1", steps=1)
            original = service.pool.submit_session
            restores = []

            async def crashing_restore(shard, payload):
                if payload.get("op") == "restore":
                    restores.append(1)  # the shard "dies" on every replay
                    return {"ok": False, "session_lost": True,
                            "error": "session lost: worker process died"}
                return await original(shard, payload)

            service.pool.submit_session = crashing_restore
            worker_sessions._SESSIONS.clear()
            lost = await client.snapshot("s1")
            service.pool.submit_session = original
            stats = await client.stats()
            return lost, len(restores), stats["stats"]

        lost, attempts, stats = self.run_service(
            scenario, journal_dir=tmp_path / "journals", recovery_attempts=2)
        assert not lost["ok"] and "session lost" in lost["error"]
        assert attempts == 2  # bounded: gave up after recovery_attempts replays
        assert stats["sessions"]["lost"] == 1 and stats["sessions"]["recovered"] == 0

    def test_close_and_ttl_expiry_delete_journals(self, tmp_path):
        async def scenario(service, client):
            await client.open_stream("old", STREAM_SPEC)
            await client.open_stream("s1", STREAM_SPEC)
            closed_path = service.journal.path_for("s1")
            assert closed_path.exists()
            await client.close_stream("s1")
            after_close = closed_path.exists()
            await client.open_stream("filler", STREAM_SPEC)  # refill the limit
            await asyncio.sleep(0.3)  # "old" (and "filler") pass their TTL
            await client.open_stream("new", STREAM_SPEC)  # limit hit -> expiry
            return after_close, service.journal.path_for("old").exists()

        after_close, expired_left = self.run_service(
            scenario, journal_dir=tmp_path / "journals",
            max_sessions=2, session_ttl=0.2)
        assert after_close is False
        assert expired_left is False

    def test_expiry_rechecks_activity_under_the_lock(self, tmp_path):
        """A session that turns active while expiry awaits its lock must
        survive — killing it would destroy state the journal protects."""

        async def scenario(service, client):
            await client.open_stream("old", STREAM_SPEC)
            await client.open_stream("bystander", STREAM_SPEC)
            await asyncio.sleep(0.3)  # both idle past the TTL
            entry = service._sessions["old"]
            async with entry["lock"]:  # an op is "in flight" on old
                task = asyncio.create_task(service._expire_idle_sessions())
                await asyncio.sleep(0.05)  # expiry now blocks on the lock
                entry["last_used"] = asyncio.get_running_loop().time()
            await task
            return (
                "old" in service._sessions,
                "bystander" in service._sessions,
                service.journal.path_for("old").exists(),
            )

        survived, bystander, journal_kept = self.run_service(
            scenario, journal_dir=tmp_path / "journals",
            max_sessions=2, session_ttl=0.2)
        assert survived is True and journal_kept is True
        assert bystander is False  # genuinely idle sessions still expire

    def test_expiry_spares_sessions_with_ops_queued_on_the_lock(self, tmp_path):
        """An op already counted as pending (it will run as soon as expiry
        releases the lock) proves the client is live — never reap it."""

        async def scenario(service, client):
            await client.open_stream("old", STREAM_SPEC)
            await asyncio.sleep(0.3)  # idle past the TTL
            entry = service._sessions["old"]
            entry["pending"] = 1  # an op is queued behind the expiry sweep
            await service._expire_idle_sessions()
            spared = "old" in service._sessions
            entry["pending"] = 0
            await service._expire_idle_sessions()
            return spared, "old" in service._sessions

        spared, still_there = self.run_service(
            scenario, journal_dir=tmp_path / "journals",
            max_sessions=2, session_ttl=0.2)
        assert spared is True
        assert still_there is False  # with no pending op it expires normally

    def test_op_queued_behind_a_reap_gets_clean_unknown_session(self, tmp_path):
        """An op that queues on the lock while expiry (or a close) reaps the
        session must see "unknown session", not a loss: the session was
        retired deliberately, and counting it lost would poison the stats
        the chaos jobs gate on."""
        from repro.service import ServiceError

        async def scenario(service, client):
            await client.open_stream("old", STREAM_SPEC)
            entry = service._sessions["old"]
            async with entry["lock"]:  # "expiry" holds the lock...
                queued = asyncio.create_task(service.stream_request(
                    "snapshot", {"op": "snapshot", "session": "old"}))
                await asyncio.sleep(0.05)  # ...while an op queues behind it
                await service.pool.submit_session(
                    entry["shard"], {"op": "close", "session": "old"})
                service._sessions.pop("old")
                service.journal.delete("old")
                service.sessions_expired += 1
            try:
                await queued
                error = None
            except ServiceError as exc:
                error = str(exc)
            return error, service.stats()["sessions"]

        error, sessions = self.run_service(
            scenario, journal_dir=tmp_path / "journals")
        assert error is not None and "unknown session" in error
        assert "session lost" not in error
        assert sessions["lost"] == 0 and sessions["expired"] == 1

    def test_worker_crash_during_open_counts_as_lost(self):
        async def scenario(service, client):
            original = service.pool.submit_session

            async def dying_open(shard, payload):
                if payload["op"] == "open":
                    return {"ok": False, "session_lost": True,
                            "error": "session lost: worker process died"}
                return await original(shard, payload)

            service.pool.submit_session = dying_open
            failed = await client.open_stream("s1", STREAM_SPEC)
            service.pool.submit_session = original
            reopened = await client.open_stream("s1", STREAM_SPEC)
            stats = await client.stats()
            return failed, reopened, stats["stats"]["sessions"]

        failed, reopened, sessions = self.run_service(scenario)
        assert not failed["ok"] and "session lost" in failed["error"]
        assert reopened["ok"]  # the reserved slot was freed
        # the stats counter agrees with the wire (loadgen classifies this
        # reply into lost_sessions, so the server must count it too)
        assert sessions["lost"] == 1 and sessions["opened"] == 1

    def test_churn_report_counts_only_this_runs_recoveries(self, tmp_path):
        from repro.service import run_churn

        async def run():
            service = DecompositionService(shards=0, journal_dir=tmp_path / "journals")
            task, host, port = await start_server(service)
            # a long-lived server may have recovered other clients' sessions
            service.sessions_recovered = 5
            try:
                return await run_churn(host, port, [STREAM_SPEC],
                                       steps=2, connections=1)
            finally:
                await stop_server(task, host, port)

        out = asyncio.run(run())
        assert not out["report"]["errors"] and not out["report"]["lost_sessions"]
        assert out["report"]["recovered_sessions"] == 0  # delta, not lifetime

    def test_startup_sweep_collects_orphans(self, tmp_path):
        journal_dir = tmp_path / "journals"
        orphaned = JournalStore(journal_dir)
        orphaned.create("left-behind", {"base": {}})
        orphaned.close()
        assert orphaned.path_for("left-behind").exists()

        async def scenario(service, client):
            return service.journal.stats()

        stats = self.run_service(scenario, journal_dir=journal_dir)
        assert stats["swept"] == 1
        assert not orphaned.path_for("left-behind").exists()


# ----------------------------------------------------------------------
class TestShardPoolFaults:
    """The respawn paths PR 3 left thin: session ops against dead and
    respawned workers, and respawn idempotence under concurrent observers."""

    def test_session_op_on_killed_worker_reports_lost_and_respawns(self):
        async def run():
            pool = ShardPool(shards=1)
            try:
                opened = await pool.submit_session(
                    0, {"op": "open", "session": "s1", "scenario": SCENARIO})
                pids = pool.worker_pids(0)
                import os
                import signal

                for pid in pids:
                    os.kill(pid, signal.SIGKILL)
                lost = await pool.submit_session(0, {"op": "snapshot", "session": "s1"})
                # the pool respawned: a fresh open on the same shard works,
                # and the old id is unknown (state died with the worker)
                unknown = await pool.submit_session(
                    0, {"op": "snapshot", "session": "s1"})
                reopened = await pool.submit_session(
                    0, {"op": "open", "session": "s2", "scenario": SCENARIO})
                return opened, pids, lost, unknown, reopened, pool.stats()
            finally:
                pool.close()

        opened, pids, lost, unknown, reopened, stats = asyncio.run(run())
        assert opened["ok"] and pids
        assert not lost["ok"] and lost["session_lost"]
        assert not unknown["ok"] and unknown["unknown_session"]
        assert reopened["ok"]
        assert stats["respawns"] == 1

    def test_unknown_session_outcome_on_healthy_worker(self):
        async def run():
            pool = ShardPool(shards=0)
            try:
                return await pool.submit_session(0, {"op": "mutate", "session": "ghost"})
            finally:
                pool.close()

        outcome = asyncio.run(run())
        assert not outcome["ok"] and outcome["unknown_session"]

    def test_respawn_is_idempotent_per_broken_executor(self):
        pool = ShardPool(shards=1)
        try:
            broken = pool._executors[0]
            pool._respawn(0, broken)
            assert pool.respawns == 1
            # a sibling that observed the same crash must not tear down the
            # replacement executor (it may already be running a retry)
            replacement = pool._executors[0]
            pool._respawn(0, broken)
            assert pool.respawns == 1 and pool._executors[0] is replacement
        finally:
            pool.close()

    def test_worker_pids_empty_for_inline_pool(self):
        pool = ShardPool(shards=0)
        try:
            assert pool.worker_pids(0) == []
        finally:
            pool.close()


# ----------------------------------------------------------------------
class TestProcessCrashRecovery:
    """Real kills: spawn-context shard workers are hard-killed (os._exit)
    at planned points and recovery must reproduce the uninterrupted bytes."""

    SPECS = [STREAM_SPEC]
    STEPS = 3

    @pytest.fixture(scope="class")
    def baseline(self):
        # uninterrupted inline run: the byte-identity reference (which also
        # pins cross-shard-count identity, shards 0 vs 2, crash or not)
        out = run_churn_service(self.SPECS, self.STEPS, shards=0)
        assert not out["report"]["errors"] and not out["report"]["lost_sessions"]
        return out["bodies"]

    def run_with_fault(self, tmp_path, faults, *, journal=True, recovery=True,
                       shards=2):
        with arm_faults(tmp_path / "plan", faults) as armed:
            out = run_churn_service(
                self.SPECS, self.STEPS, shards=shards,
                journal_dir=(tmp_path / "journals") if journal else None,
                recovery=recovery,
            )
            return out, fired_count(armed)

    @pytest.mark.parametrize("point,version", [
        ("mutate:before", 1),   # step-2 mutate received, not applied
        ("mutate:after", 2),    # step-2 mutate applied, never acknowledged
        ("snapshot", 2),        # between the journaled mutate and its snapshot
    ])
    def test_crash_points_recover_byte_identical(self, tmp_path, baseline,
                                                 point, version):
        faults = [{"point": point, "session": "churn-0", "version": version}]
        out, fired = self.run_with_fault(tmp_path, faults)
        report = out["report"]
        assert fired == 1, "the planned kill never happened; the test is vacuous"
        assert report["errors"] == [] and report["lost_sessions"] == []
        assert report["recovered_sessions"] >= 1
        assert out["bodies"] == baseline

    def test_crash_during_replay_recovers(self, tmp_path, baseline):
        faults = [
            {"point": "snapshot", "session": "churn-0", "version": 2},
            {"point": "restore", "session": "churn-0"},  # kill recovery #1 too
        ]
        out, fired = self.run_with_fault(tmp_path, faults)
        report = out["report"]
        assert fired == 2
        assert report["errors"] == [] and report["lost_sessions"] == []
        assert report["recovered_sessions"] >= 1
        assert out["bodies"] == baseline

    def test_crash_without_journal_is_lost(self, tmp_path):
        faults = [{"point": "snapshot", "session": "churn-0", "version": 2}]
        out, fired = self.run_with_fault(tmp_path, faults, journal=False)
        report = out["report"]
        assert fired == 1
        assert report["errors"] == []
        assert [e["op"] for e in report["lost_sessions"]] == ["snapshot@2"]
        assert report["recovered_sessions"] == 0

    def test_crash_with_no_recovery_flag_is_lost(self, tmp_path):
        faults = [{"point": "mutate:after", "session": "churn-0", "version": 2}]
        out, fired = self.run_with_fault(tmp_path, faults, recovery=False)
        report = out["report"]
        assert fired == 1
        assert len(report["lost_sessions"]) == 1
        assert report["recovered_sessions"] == 0

    def test_crash_during_open_is_lost_not_recovered(self, tmp_path):
        faults = [{"point": "open", "session": "churn-0", "version": 0}]
        out, fired = self.run_with_fault(tmp_path, faults)
        report = out["report"]
        assert fired == 1
        # nothing was journaled, so nothing is recovered — but the loss is
        # classified, the slot is freed, and the server stays healthy
        assert [e["op"] for e in report["lost_sessions"]] == ["open"]
        assert report["recovered_sessions"] == 0

    def test_crash_during_open_reaches_metrics_and_event_log(self, tmp_path):
        """A session lost in open counts everywhere a later loss does: the
        ``stats`` block, the registry's ``sessions_lost`` counter (what
        ``/metrics`` renders) and a ``session.lost`` event."""
        import io

        from repro.obs import events, registry

        async def scenario():
            service = DecompositionService(shards=1, journal_dir=tmp_path / "journals")
            task, host, port = await start_server(service)
            client = await ServiceClient.connect(host, port)
            try:
                reply = await client.open_stream("s1", STREAM_SPEC)
                stats = await client.stats()
            finally:
                await client.close()
                await stop_server(task, host, port)
            return reply, stats["stats"]["sessions"]

        def lost_counter():
            return registry().snapshot()["counters"].get("sessions_lost", 0)

        before = lost_counter()
        log = io.StringIO()
        events.configure(log)
        try:
            faults = [{"point": "open", "session": "s1", "version": 0}]
            with arm_faults(tmp_path / "plan", faults) as armed:
                reply, sessions = asyncio.run(scenario())
                fired = fired_count(armed)
        finally:
            events.configure(None)
        assert fired == 1
        assert reply["error"] == "session lost: worker process died"
        assert sessions["lost"] == 1
        assert lost_counter() - before == 1
        lost = [e for e in map(json.loads, log.getvalue().splitlines())
                if e["event"] == "session.lost"]
        assert [(e["session"], e["op"], e["error"]) for e in lost] == [
            ("s1", "open_stream", "session lost: worker process died")]

    def test_kill_during_journal_append_recovers(self, tmp_path, baseline):
        """The asynchronous crash: SIGKILL the owning worker at the exact
        moment the server appends the acknowledged op to the journal."""
        killed = []

        async def scenario():
            journal_dir = tmp_path / "journals"
            service = DecompositionService(shards=2, journal_dir=journal_dir)

            def append_hook(sid, entry):
                if not killed and entry.get("version") == 2:
                    shard = service._sessions["churn-0"]["shard"]
                    killed.extend(kill_shard_workers(service, shard))

            service.journal.append_hook = append_hook
            task, host, port = await start_server(service)
            try:
                from repro.service import run_churn

                return await run_churn(host, port, self.SPECS, steps=self.STEPS,
                                       connections=1, shutdown=True)
            finally:
                await asyncio.wait_for(task, 30)

        out = asyncio.run(scenario())
        report = out["report"]
        assert killed, "the append hook never fired"
        assert report["errors"] == [] and report["lost_sessions"] == []
        assert report["recovered_sessions"] >= 1
        assert out["bodies"] == baseline


# ----------------------------------------------------------------------
class TestTornTailHandoff:
    """Satellite of the multi-host ring: a journal whose final record was
    torn mid-append (the owning host died mid-write) must hand off
    deterministically at the longest valid prefix — the restored session is
    byte-identical to the dead host's state after its last durable op."""

    def test_truncated_final_record_restores_longest_prefix(self, tmp_path):
        async def run():
            journal_dir = tmp_path / "dead-host"
            service = DecompositionService(shards=0, journal_dir=journal_dir)
            task, host, port = await start_server(service)
            client = await ServiceClient.connect(host, port)
            assert (await client.open_stream("torn", STREAM_SPEC))["ok"]
            await client.mutate("torn", steps=1)
            await client.mutate("torn", steps=1)
            reference = await client.snapshot("torn")
            await client.mutate("torn", steps=1)
            await client.close()
            task.cancel()  # host death: the journal survives on disk
            with contextlib.suppress(asyncio.CancelledError):
                await task
            path = journal_dir / journal_file_name("torn")
            lines = path.read_bytes().split(b"\n")
            assert lines[-1] == b"" and len(lines) == 5  # header + 3 ops
            path.write_bytes(b"\n".join(lines[:3]) + b"\n"
                             + lines[3][: len(lines[3]) // 2])
            header, ops = read_journal(path)
            assert len(ops) == 2  # the torn third mutate never happened
            # hand the prefix to a fresh host, exactly as the ring router
            # would after reading the dead owner's journal
            takeover = DecompositionService(shards=0, journal_dir=tmp_path / "new-host")
            task2, host2, port2 = await start_server(takeover)
            client2 = await ServiceClient.connect(host2, port2)
            try:
                restored = await client2.call({
                    "op": "restore_stream", "session": "torn",
                    "scenario": header["scenario"], "base": header.get("base"),
                    "ops": ops,
                })
                snap = await client2.snapshot("torn")
                return reference, restored, snap
            finally:
                await client2.close()
                await stop_server(task2, host2, port2)

        reference, restored, snap = asyncio.run(run())
        assert restored["ok"] and restored["restored"]
        assert restored["replayed"] == 2
        assert snap["ok"]
        assert canonical_record(snap["snapshot"]) == canonical_record(
            reference["snapshot"])

    def test_truncation_is_deterministic_across_reads(self, tmp_path):
        store = JournalStore(tmp_path)
        store.create("t", {"scenario": STREAM_SPEC, "base": None})
        store.append("t", {"steps": 1, "version": 1, "hash": "h1"})
        path = store.path_for("t")
        store.close()
        with open(path, "a") as fh:
            fh.write('{"kind": "mutate", "steps": 1, "vers')  # torn append
        first = read_journal(path)
        second = read_journal(path)
        assert first == second and len(first[1]) == 1

    def test_corrupt_terminated_tail_refuses_handoff(self, tmp_path):
        # a newline-terminated corrupt line is damage to an acknowledged op,
        # not a torn append: the router must refuse the handoff rather than
        # silently under-replay the session
        dead, live = "127.0.0.1:1", "127.0.0.1:2"
        store = JournalStore(tmp_path)
        store.create("bad", {"scenario": STREAM_SPEC, "base": None})
        store.append("bad", {"steps": 1, "version": 1, "hash": "h1"})
        path = store.path_for("bad")
        store.close()
        with open(path, "a") as fh:
            fh.write('{"kind": "mutate", bad}\n')
        router = RingRouter([dead, live], journal_dirs={dead: tmp_path})
        router.down.add(dead)
        entry = {"endpoint": dead, "lock": asyncio.Lock(), "mutates_acked": 1}
        reply = asyncio.run(router._handoff_session("bad", entry, "mutate"))
        assert not reply["ok"] and "session lost" in reply["error"]
        assert "journal is unavailable" in reply["error"]
