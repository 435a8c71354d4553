"""Tests for the service's streaming sessions, keep-alive, and loadgen modes."""

import asyncio
import json

import pytest

from repro._util import BoundedLru
from repro.service import (
    ColoringCache,
    DecompositionService,
    ProtocolError,
    ServiceClient,
    parse_mix,
    parse_request,
    run_churn,
    run_loadgen,
    serve,
    stream_request_fields,
)

STREAM_SPEC = {
    "family": "grid",
    "size": 8,
    "k": 4,
    "weights": "zipf",
    "params": {"trace": "random-churn", "steps": 4, "ops": 4},
}


async def start_server(service, idle_timeout=None):
    ready = asyncio.Event()
    bound = {}

    def _ready(host, port):
        bound.update(host=host, port=port)
        ready.set()

    task = asyncio.create_task(
        serve(service, port=0, ready=_ready, idle_timeout=idle_timeout)
    )
    await asyncio.wait_for(ready.wait(), 10)
    return task, bound["host"], bound["port"]


async def stop_server(task, host, port):
    client = await ServiceClient.connect(host, port)
    await client.shutdown()
    await client.close()
    await asyncio.wait_for(task, 30)


class TestStreamProtocol:
    def test_parse_request_accepts_stream_ops(self):
        req = parse_request(b'{"id": 1, "op": "open_stream", "session": "s"}\n')
        assert req["op"] == "open_stream"

    @pytest.mark.parametrize(
        "req,match",
        [
            ({"op": "mutate"}, "non-empty string 'session'"),
            ({"op": "mutate", "session": ""}, "non-empty string 'session'"),
            ({"op": "mutate", "session": "s" * 200}, "longer than"),
            ({"op": "open_stream", "session": "s"}, "needs a 'scenario'"),
            (
                {"op": "open_stream", "session": "s",
                 "scenario": {"family": "grid", "size": 8, "k": 2,
                              "algorithm": "greedy"}},
                "must use algorithm 'stream'",
            ),
            ({"op": "mutate", "session": "s", "mutations": []}, "non-empty list"),
            ({"op": "mutate", "session": "s", "steps": 0}, "steps must be >= 1"),
            ({"op": "mutate", "session": "s", "steps": "x"}, "steps must be an integer"),
        ],
    )
    def test_bad_stream_requests_rejected(self, req, match):
        with pytest.raises(ProtocolError, match=match):
            stream_request_fields(req)

    def test_open_defaults_algorithm_to_stream(self):
        fields = stream_request_fields(
            {"op": "open_stream", "session": "s",
             "scenario": {"family": "grid", "size": 8, "k": 2}}
        )
        assert fields["scenario"].algorithm == "stream"


class TestStreamSessions:
    def run_lifecycle(self, shards):
        async def run():
            service = DecompositionService(shards=shards)
            task, host, port = await start_server(service)
            client = await ServiceClient.connect(host, port)
            try:
                opened = await client.open_stream("s1", STREAM_SPEC)
                snaps = [opened["snapshot"]]
                for _ in range(3):
                    mutated = await client.mutate("s1", steps=1)
                    assert mutated["ok"], mutated
                    snap = await client.snapshot("s1")
                    snaps.append(snap["snapshot"])
                closed = await client.close_stream("s1")
                stats = await client.stats()
                return opened, snaps, closed, stats["stats"]
            finally:
                await client.close()
                await stop_server(task, host, port)

        return asyncio.run(run())

    def test_lifecycle_inline_shard(self):
        opened, snaps, closed, stats = self.run_lifecycle(shards=0)
        assert opened["ok"] and closed["ok"] and closed["closed"]
        assert closed["counters"]["steps"] == 3
        assert [s["version"] for s in snaps] == [0, 1, 2, 3]
        assert stats["sessions"] == {
            "open": 0, "max": 64, "opened": 1, "closed": 1, "lost": 0, "expired": 0,
            "recovered": 0, "restored": 0,
        }

    def test_snapshots_byte_identical_across_shard_counts(self):
        _, snaps0, closed0, _ = self.run_lifecycle(shards=0)
        _, snaps2, closed2, _ = self.run_lifecycle(shards=2)
        to_bytes = lambda snaps: [json.dumps(s, sort_keys=True) for s in snaps]  # noqa: E731
        assert to_bytes(snaps0) == to_bytes(snaps2)
        assert closed0["snapshot"] == closed2["snapshot"]

    def test_session_errors(self):
        async def run():
            service = DecompositionService(shards=0, max_sessions=1)
            task, host, port = await start_server(service)
            client = await ServiceClient.connect(host, port)
            try:
                unknown = await client.mutate("ghost", steps=1)
                await client.open_stream("s1", STREAM_SPEC)
                dup = await client.open_stream("s1", STREAM_SPEC)
                full = await client.open_stream("s2", STREAM_SPEC)
                # trace budget is 4; a 5th step must fail cleanly
                await client.mutate("s1", steps=4)
                exhausted = await client.mutate("s1", steps=1)
                alive = await client.snapshot("s1")
                return unknown, dup, full, exhausted, alive
            finally:
                await client.close()
                await stop_server(task, host, port)

        unknown, dup, full, exhausted, alive = asyncio.run(run())
        assert not unknown["ok"] and "unknown session" in unknown["error"]
        assert not dup["ok"] and "already exists" in dup["error"]
        assert not full["ok"] and "session limit" in full["error"]
        assert not exhausted["ok"] and "trace exhausted" in exhausted["error"]
        assert alive["ok"]  # a failed op does not kill the session

    def test_explicit_mutations_over_wire(self):
        async def run():
            service = DecompositionService(shards=0)
            task, host, port = await start_server(service)
            client = await ServiceClient.connect(host, port)
            try:
                await client.open_stream("s1", STREAM_SPEC)
                good = await client.mutate(
                    "s1", mutations=[["weight", 0, 9.0], ["cost", 0, 1, 3.0]]
                )
                bad = await client.mutate("s1", mutations=[["remove", 0, 7]])
                snap = await client.snapshot("s1")
                return good, bad, snap
            finally:
                await client.close()
                await stop_server(task, host, port)

        good, bad, snap = asyncio.run(run())
        assert good["ok"] and good["results"][0]["mutations"] == 2
        assert not bad["ok"] and "does not exist" in bad["error"]
        assert snap["snapshot"]["version"] == 1  # the bad batch left no trace


class TestRunChurn:
    def test_churn_bodies_deterministic_across_shards(self):
        specs = [
            {**STREAM_SPEC, "algorithm": "stream"},
            {**STREAM_SPEC, "algorithm": "stream", "k": 2},
        ]

        def run_once(shards):
            async def run():
                service = DecompositionService(shards=shards)
                task, host, port = await start_server(service)
                try:
                    return await run_churn(
                        "127.0.0.1", port, specs, steps=3, connections=2
                    )
                finally:
                    await stop_server(task, host, port)

            return asyncio.run(run())

        out0 = run_once(0)
        out2 = run_once(2)
        assert not out0["report"]["errors"] and not out2["report"]["errors"]
        assert out0["bodies"] == out2["bodies"]
        assert len(out0["bodies"]) == len(specs) * (3 + 2)  # open + steps + close
        assert out0["report"]["sessions"] == 2


class TestIdleTimeout:
    def test_idle_connection_reaped_and_heartbeat_keeps_alive(self):
        async def run():
            service = DecompositionService(shards=0)
            task, host, port = await start_server(service, idle_timeout=0.25)
            client = await ServiceClient.connect(host, port)
            # heartbeats inside the window keep the connection alive
            for _ in range(3):
                await asyncio.sleep(0.15)
                pong = await client.ping()
                assert pong["ok"]
            # then going silent gets the connection reaped
            line = await asyncio.wait_for(client._reader.readline(), 5)
            await client.close()
            # the server is still healthy for new connections
            fresh = await ServiceClient.connect(host, port)
            pong = await fresh.ping()
            await fresh.close()
            await stop_server(task, host, port)
            return line, pong

        line, pong = asyncio.run(run())
        assert line == b""  # EOF: server closed the idle connection
        assert pong["ok"]

    def test_in_flight_response_not_dropped_by_reaper(self):
        async def run():
            service = DecompositionService(shards=0)
            original = service.submit

            async def slow_submit(scenario):
                await asyncio.sleep(0.6)  # far beyond the idle timeout
                return await original(scenario)

            service.submit = slow_submit
            task, host, port = await start_server(service, idle_timeout=0.2)
            client = await ServiceClient.connect(host, port)
            resp = await client.decompose({"family": "grid", "size": 6, "k": 2})
            line = await asyncio.wait_for(client._reader.readline(), 5)
            await client.close()
            await stop_server(task, host, port)
            return resp, line

        resp, line = asyncio.run(run())
        assert resp["ok"]  # the slow response arrived despite the timeout
        assert line == b""  # ...and only then was the idle connection reaped


class TestCostAwareCache:
    def test_bounded_lru_weight_accounting(self):
        lru = BoundedLru(max_weight=100)
        lru.put("a", 1, weight=40)
        lru.put("b", 2, weight=40)
        assert lru.weight == 80
        lru.put("c", 3, weight=40)  # evicts "a" (LRU) to fit
        assert "a" not in lru and lru.weight == 80
        lru.get("b")  # refresh b
        lru.put("d", 4, weight=40)  # evicts "c", not the refreshed "b"
        assert "b" in lru and "c" not in lru

    def test_bounded_lru_replace_updates_weight(self):
        lru = BoundedLru(max_weight=100)
        lru.put("a", 1, weight=60)
        lru.put("a", 2, weight=10)
        assert lru.weight == 10 and lru.get("a") == 2

    def test_bounded_lru_oversized_entry_rejected(self):
        lru = BoundedLru(max_weight=50)
        lru.put("big", 1, weight=80)
        assert "big" not in lru and lru.rejected == 1 and lru.weight == 0

    def test_bounded_lru_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="weight must be >= 0"):
            BoundedLru(max_weight=10).put("a", 1, weight=-1)

    def test_small_records_cannot_flush_one_big_record(self):
        """The satellite's motivating case: byte-weighing keeps the big
        record resident as long as it stays warmer than its fair share."""
        cache = ColoringCache(maxsize=1024, max_bytes=1000)
        big = {"scenario_id": "big", "metrics": {"x": list(range(150))}}
        cache.put("big", big)
        for i in range(50):
            cache.put(f"small-{i}", {"scenario_id": f"s{i}"})
            cache.get("big")  # the big record stays warm
        assert cache.get("big") is big
        stats = cache.stats()
        assert stats["bytes"] <= 1000 and stats["max_bytes"] == 1000
        assert stats["evictions"] > 0  # small ones churned instead

    def test_entry_count_mode_unchanged_without_max_bytes(self):
        cache = ColoringCache(maxsize=2)
        cache.put("a", {"r": 1})
        cache.put("b", {"r": 2})
        cache.put("c", {"r": 3})
        assert len(cache) == 2 and "a" not in cache
        assert "bytes" not in cache.stats()


class TestZipfMix:
    def test_parse_mix(self):
        assert parse_mix(None) is None
        assert parse_mix("zipf:1.5") == {"kind": "zipf", "s": 1.5}
        assert parse_mix("zipf") == {"kind": "zipf", "s": 1.1}
        with pytest.raises(ValueError, match="unknown mix"):
            parse_mix("pareto:1")
        with pytest.raises(ValueError, match="bad zipf exponent"):
            parse_mix("zipf:x")
        with pytest.raises(ValueError, match="must be > 0"):
            parse_mix("zipf:0")

    def test_loadgen_mix_recorded_and_skewed(self):
        specs = [
            {"family": "grid", "size": 6, "k": k, "algorithm": "greedy"}
            for k in (2, 3, 4, 6)
        ]

        async def run():
            service = DecompositionService(shards=0)
            task, host, port = await start_server(service)
            try:
                return await run_loadgen(
                    "127.0.0.1", port, specs,
                    connections=2, passes=2, mix="zipf:2.0",
                )
            finally:
                await stop_server(task, host, port)

        out = asyncio.run(run())
        report = out["report"]
        assert report["mix"] == {"kind": "zipf", "s": 2.0, "grid_size": 4}
        assert not report["errors"]
        # sampled bodies are a subset of the grid, all byte-stable
        assert 1 <= len(out["bodies"]) <= len(specs)


class TestStreamCli:
    def test_cli_churn_roundtrip(self, tmp_path):
        """Full CLI path: `repro serve` on a thread, `repro loadgen --churn`
        against it, deterministic snapshot bodies on disk."""
        import threading

        from repro.cli import main

        port_box = {}
        ready = threading.Event()

        def _serve():
            import repro.cli as cli

            original = cli._run_serve

            def patched(args):
                import asyncio as aio

                service = DecompositionService(shards=0)

                def _ready(host, port):
                    port_box["port"] = port
                    ready.set()

                aio.run(serve(service, host=args.host, port=0, ready=_ready))
                return 0

            cli._run_serve = patched
            try:
                main(["serve", "--port", "0", "--shards", "0"])
            finally:
                cli._run_serve = original

        thread = threading.Thread(target=_serve, daemon=True)
        thread.start()
        assert ready.wait(10)
        report = tmp_path / "churn_report.json"
        bodies = tmp_path / "churn_bodies.json"
        rc = main([
            "loadgen", "--port", str(port_box["port"]),
            "--family", "grid", "--size", "8", "--k", "4",
            "--trace", "random-churn", "--policy", "repair",
            "--churn", "3", "--connections", "2", "--shutdown", "--min-rps", "1",
            "-o", str(report), "--bodies", str(bodies),
        ])
        thread.join(timeout=30)
        assert rc == 0
        assert not thread.is_alive()
        doc = json.loads(report.read_text())
        assert doc["mode"] == "churn" and doc["sessions"] == 1 and doc["steps"] == 3
        assert not doc["errors"]
        snaps = json.loads(bodies.read_text())
        # open + 3 steps + close
        assert sorted(snaps) == [
            "churn-0@1", "churn-0@2", "churn-0@3", "churn-0@close", "churn-0@open",
        ]

    def test_cli_trace_policy_expand_params_axis(self):
        from repro.cli import build_parser, _grid_from_args

        args = build_parser().parse_args(
            ["sweep", "--family", "grid", "--size", "8", "--k", "2",
             "--trace", "random-churn", "hotspot", "--policy", "repair", "recompute"]
        )
        grid, scenarios = _grid_from_args(args, "sweep")
        assert len(scenarios) == 4  # 2 traces x 2 policies
        assert {s.algorithm for s in scenarios} == {"stream"}
        combos = {(s.param_dict["trace"], s.param_dict["policy"]) for s in scenarios}
        assert combos == {
            ("random-churn", "repair"), ("random-churn", "recompute"),
            ("hotspot", "repair"), ("hotspot", "recompute"),
        }

    def test_cli_rejects_unknown_trace_and_policy(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown trace"):
            main(["loadgen", "--family", "grid", "--size", "8", "--k", "2",
                  "--trace", "nope"])
        with pytest.raises(SystemExit, match="unknown policy"):
            main(["loadgen", "--family", "grid", "--size", "8", "--k", "2",
                  "--policy", "nope"])


class TestSessionRobustness:
    """Regression tests for the review findings: zombie sessions, TTL
    expiry, solver recursion, and partial multi-step mutates."""

    def test_worker_unknown_session_drops_routing_entry(self):
        """A respawned worker answers 'unknown session'; the server must
        drop its entry (counting it lost) so the id can be reopened."""

        async def run():
            service = DecompositionService(shards=0)
            task, host, port = await start_server(service)
            client = await ServiceClient.connect(host, port)
            try:
                await client.open_stream("s1", STREAM_SPEC)
                # simulate the worker losing its registry (process respawn)
                from repro.service import sessions as worker_sessions

                worker_sessions._SESSIONS.clear()
                lost = await client.mutate("s1", steps=1)
                reopened = await client.open_stream("s1", STREAM_SPEC)
                stats = await client.stats()
                return lost, reopened, stats["stats"]["sessions"]
            finally:
                await client.close()
                await stop_server(task, host, port)

        lost, reopened, sessions = asyncio.run(run())
        assert not lost["ok"] and "unknown session" in lost["error"]
        assert reopened["ok"]  # no zombie: the slot was freed
        assert sessions["lost"] == 1 and sessions["open"] == 1

    def test_idle_sessions_expire_when_limit_hit(self):
        async def run():
            service = DecompositionService(
                shards=0, max_sessions=1, session_ttl=0.2
            )
            task, host, port = await start_server(service)
            client = await ServiceClient.connect(host, port)
            try:
                await client.open_stream("old", STREAM_SPEC)
                blocked = await client.open_stream("new", STREAM_SPEC)
                await asyncio.sleep(0.3)  # let "old" pass its TTL
                allowed = await client.open_stream("new", STREAM_SPEC)
                stats = await client.stats()
                return blocked, allowed, stats["stats"]["sessions"]
            finally:
                await client.close()
                await stop_server(task, host, port)

        blocked, allowed, sessions = asyncio.run(run())
        assert not blocked["ok"] and "session limit" in blocked["error"]
        assert allowed["ok"]  # the idle session was expired to make room
        assert sessions["expired"] == 1 and sessions["open"] == 1

    def test_stream_solver_rejected(self):
        from repro.runtime import build_instance
        from repro.stream import StreamSession
        from repro.runtime import Scenario

        s = Scenario(family="grid", size=8, k=2, algorithm="stream",
                     params={"solver": "stream", "steps": 2})
        with pytest.raises(ValueError, match="unknown solver"):
            StreamSession(build_instance(s), s)
        s2 = s.with_(params={"solver": "nope", "steps": 2})
        with pytest.raises(ValueError, match="unknown solver"):
            StreamSession(build_instance(s2), s2)

    def test_open_stream_rejects_bad_gamma(self):
        """A wire gamma of NaN, inf or <= 0 is an open_stream error, not a
        session with its drift monitor off or always on."""
        bad = [float("nan"), float("inf"), 0.0, -1.0]

        async def run():
            service = DecompositionService(shards=0)
            task, host, port = await start_server(service)
            client = await ServiceClient.connect(host, port)
            try:
                replies = []
                for i, gamma in enumerate(bad):
                    spec = {**STREAM_SPEC, "params": {**STREAM_SPEC["params"], "gamma": gamma}}
                    replies.append(await client.open_stream(f"s{i}", spec))
                stats = await client.stats()
                return replies, stats["stats"]["sessions"]
            finally:
                await client.close()
                await stop_server(task, host, port)

        replies, sessions = asyncio.run(run())
        for reply in replies:
            assert not reply["ok"] and "gamma must be a finite number > 0" in reply["error"]
        assert sessions["open"] == 0 and sessions["opened"] == 0

    def test_multi_step_mutate_is_atomic(self):
        async def run():
            service = DecompositionService(shards=0)
            task, host, port = await start_server(service)
            client = await ServiceClient.connect(host, port)
            try:
                await client.open_stream("s1", STREAM_SPEC)  # trace budget: 4
                await client.mutate("s1", steps=2)
                over = await client.mutate("s1", steps=5)  # only 2 remain
                snap = await client.snapshot("s1")
                return over, snap
            finally:
                await client.close()
                await stop_server(task, host, port)

        over, snap = asyncio.run(run())
        assert not over["ok"] and "trace exhausted" in over["error"]
        # no partial application: the session is still at version 2
        assert snap["snapshot"]["version"] == 2
