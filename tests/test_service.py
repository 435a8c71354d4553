"""Tests for the batched decomposition service (repro.service)."""

import asyncio
import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graphs import grid_graph
from repro.graphs.io import save_npz
from repro.runtime import Scenario, run_sweep
from repro.service import (
    PROTOCOL_VERSION,
    ColoringCache,
    DecompositionService,
    MicroBatcher,
    ProtocolError,
    ServiceClient,
    ServiceError,
    ShardPool,
    canonical_record,
    parse_request,
    run_line_server,
    run_loadgen,
    scenario_from_spec,
    serve,
)

SPECS = [
    {"family": "grid", "size": 8, "k": 2},
    {"family": "grid", "size": 8, "k": 4},
    {"family": "mesh", "size": 8, "k": 2, "weights": "zipf"},
    {"family": "grid", "size": 8, "k": 2, "algorithm": "greedy"},
]


def sweep_bodies(specs) -> dict:
    """scenario_id -> canonical record, computed through the sweep engine."""
    scenarios = [scenario_from_spec(s) for s in specs]
    return {r.scenario_id: canonical_record(r.record()) for r in run_sweep(scenarios)}


async def start_server(service):
    """Start ``serve`` on an ephemeral port; returns (task, host, port)."""
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


class TestProtocol:
    def test_spec_roundtrip_matches_sweep_scenario(self):
        s = scenario_from_spec({"family": "grid", "size": 8, "k": 2, "seed": 3})
        assert s == Scenario(family="grid", size=8, k=2, seed=3)

    def test_oracle_sugar_folds_into_params(self):
        a = scenario_from_spec({"family": "grid", "size": 8, "k": 2, "oracle": "bfs"})
        b = Scenario(family="grid", size=8, k=2, params=(("oracle", "bfs"),))
        assert a == b and a.scenario_id() == b.scenario_id()

    @pytest.mark.parametrize(
        "spec,match",
        [
            ("nope", "must be an object"),
            ({"family": "grid", "size": 8}, "needs keys: k"),
            ({"family": "grid", "size": 8, "k": 2, "bogus": 1}, "unknown scenario keys"),
            ({"family": "nope", "size": 8, "k": 2}, "unknown family"),
            ({"family": "grid", "size": 8, "k": 2, "algorithm": "nope"}, "unknown algorithm"),
            ({"family": "grid", "size": 8, "k": 2, "weights": "nope"}, "unknown weights"),
            ({"family": "grid", "size": "x", "k": 2}, "size must be an integer"),
            ({"family": "grid", "size": 8, "k": 2, "params": 5}, "params must be an object"),
            ({"family": "grid", "size": 8, "k": 2, "params": [1]}, "params must be an object"),
            ({"family": "grid", "size": 12.9, "k": 2}, "size must be an integer"),
            ({"family": "grid", "size": 8, "k": 3.5}, "k must be an integer"),
            ({"family": "grid", "size": 8, "k": 2, "seed": True}, "seed must be an integer"),
            ({"family": "grid", "size": 8, "k": 0}, "k must be >= 1, got 0"),
            ({"family": "grid", "size": 8, "k": -2}, "k must be >= 1, got -2"),
        ],
    )
    def test_bad_specs_rejected(self, spec, match):
        with pytest.raises(ProtocolError, match=match):
            scenario_from_spec(spec)

    def test_parse_request_errors(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            parse_request(b"{nope\n")
        with pytest.raises(ProtocolError, match="must be a JSON object"):
            parse_request(b"[1,2]\n")
        with pytest.raises(ProtocolError, match="unknown op"):
            parse_request(b'{"op": "reboot"}\n')
        with pytest.raises(ProtocolError, match="needs a 'scenario'"):
            parse_request(b'{"id": 1}\n')
        assert parse_request(b'{"op": "ping"}\n') == {"op": "ping"}

    def test_canonical_record_is_key_order_independent(self):
        assert canonical_record({"b": 1, "a": {"y": 2, "x": 3}}) == canonical_record(
            {"a": {"x": 3, "y": 2}, "b": 1}
        )


class TestColoringCache:
    def test_hit_miss_and_stats(self):
        cache = ColoringCache(maxsize=4)
        assert cache.get("a") is None
        cache.put("a", {"v": 1})
        assert cache.get("a") == {"v": 1}
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_lru_eviction_order(self):
        cache = ColoringCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_zero_size_cache_never_stores(self):
        cache = ColoringCache(maxsize=0)
        cache.put("a", 1)
        assert len(cache) == 0 and cache.get("a") is None

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ColoringCache(maxsize=-1)


class TestMicroBatcher:
    @staticmethod
    def _collector():
        batches = []

        async def flush(batch):
            batches.append(batch)

        return batches, flush

    def test_size_flush(self):
        async def run():
            batches, flush = self._collector()
            b = MicroBatcher(flush, max_batch_size=3)
            for i in range(7):
                b.add(i)
            await b.drain()
            return batches, b.stats()

        batches, stats = asyncio.run(run())
        # a same-turn burst: two size flushes of 3, then drain flushes the
        # remainder before the turn flush could; order kept
        assert batches == [[0, 1, 2], [3, 4, 5], [6]]
        assert stats["size_flushes"] == 2 and stats["batches"] == 3
        assert stats["drain_flushes"] == 1 and stats["turn_flushes"] == 0

    def test_lone_add_flushes_on_next_turn(self):
        async def run():
            batches, flush = self._collector()
            b = MicroBatcher(flush)
            b.add("x")
            # no timer: one turn runs the flush, the next its dispatch task
            for _ in range(3):
                await asyncio.sleep(0)
            return batches, b.stats()

        batches, stats = asyncio.run(run())
        assert batches == [["x"]]
        assert stats["turn_flushes"] == 1 and stats["pending"] == 0

    def test_loop_turns_delimit_batches(self):
        async def run():
            batches, flush = self._collector()
            b = MicroBatcher(flush)

            async def arrive(item):
                b.add(item)

            # tasks started together run in one loop turn, like requests
            # read off several sockets at once: they share one batch
            await asyncio.gather(*(arrive(i) for i in range(4)))
            b.add(4)  # a later turn starts the next batch
            await asyncio.sleep(0)
            b.add(5)
            b.add(6)
            for _ in range(3):
                await asyncio.sleep(0)
            return batches, b.stats()

        batches, stats = asyncio.run(run())
        assert batches == [[0, 1, 2, 3], [4], [5, 6]]
        assert stats["turn_flushes"] == 3 and stats["items"] == 7

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(None, max_batch_size=0)


class TestShardPool:
    def test_inline_records_match_sweep(self):
        scenarios = [scenario_from_spec(s) for s in SPECS]
        pool = ShardPool(shards=0)
        try:
            outcomes = asyncio.run(pool.submit_batch(0, scenarios))
        finally:
            pool.close()
        assert all(o["ok"] for o in outcomes)
        expected = sweep_bodies(SPECS)
        for outcome in outcomes:
            sid = outcome["record"]["scenario_id"]
            assert canonical_record(outcome["record"]) == expected[sid]

    def test_inline_wraps_per_scenario_errors(self):
        good = scenario_from_spec(SPECS[0])
        bad = Scenario(family="npz", size=0, k=2, params=(("path", "/nope.npz"),))
        pool = ShardPool(shards=0)
        try:
            outcomes = asyncio.run(pool.submit_batch(0, [bad, good]))
        finally:
            pool.close()
        assert not outcomes[0]["ok"] and "error" in outcomes[0]
        assert outcomes[1]["ok"]

    def test_routing_is_stable_and_instance_keyed(self):
        pool = ShardPool(shards=0)  # nshards == 1, but routing math is the same
        try:
            assert pool.shard_for(scenario_from_spec(SPECS[0])) == 0
        finally:
            pool.close()
        pool4 = ShardPool.__new__(ShardPool)  # routing without spawning processes
        pool4._executors = [None] * 4
        a = Scenario(family="grid", size=8, k=2)
        b = Scenario(family="grid", size=8, k=4, algorithm="greedy")
        c = Scenario(family="grid", size=9, k=2)
        # same instance hash -> same shard, regardless of k/algorithm
        assert pool4.shard_for(a) == pool4.shard_for(b)
        assert a.instance_hash() != c.instance_hash()

    def test_negative_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardPool(shards=-1)


class TestDecompositionService:
    def _service(self, **kw):
        kw.setdefault("shards", 0)
        return DecompositionService(**kw)

    def test_submit_matches_sweep_and_caches(self):
        async def run():
            service = self._service()
            try:
                scenario = scenario_from_spec(SPECS[0])
                first = await service.submit(scenario)
                second = await service.submit(scenario)
                return first, second, service.stats()
            finally:
                await service.close()

        first, second, stats = asyncio.run(run())
        assert canonical_record(first) == sweep_bodies(SPECS[:1])[first["scenario_id"]]
        assert first == second
        assert stats["cache"]["hits"] == 1
        assert stats["shards"]["requests"] == 1  # second submit never hit a shard

    def test_concurrent_duplicates_coalesce(self):
        async def run():
            service = self._service()
            try:
                scenario = scenario_from_spec(SPECS[0])
                records = await asyncio.gather(*(service.submit(scenario) for _ in range(8)))
                return records, service.stats()
            finally:
                await service.close()

        records, stats = asyncio.run(run())
        assert all(r == records[0] for r in records)
        assert stats["coalesced"] == 7
        assert stats["shards"]["requests"] == 1

    def test_cancelled_waiter_does_not_kill_coalesced_sibling(self):
        async def run():
            service = self._service()
            try:
                scenario = scenario_from_spec(SPECS[0])
                first = asyncio.ensure_future(service.submit(scenario))
                second = asyncio.ensure_future(service.submit(scenario))
                await asyncio.sleep(0)  # both registered on the inflight future
                first.cancel()
                record = await second  # must resolve despite the cancellation
                return record, first.cancelled()
            finally:
                await service.close()

        record, first_cancelled = asyncio.run(run())
        assert first_cancelled
        assert canonical_record(record) == sweep_bodies(SPECS[:1])[record["scenario_id"]]

    def test_concurrent_misses_share_one_batch(self):
        specs = [{"family": family, "size": size, "k": k}
                 for family in ("grid", "mesh") for size in (6, 8) for k in (2, 4)]

        async def run():
            service = self._service()
            try:
                records = await asyncio.gather(
                    *(service.submit(scenario_from_spec(s)) for s in specs))
                return records, service.stats()
            finally:
                await service.close()

        records, stats = asyncio.run(run())
        assert stats["batcher"]["batches"] == 1 and stats["batcher"]["items"] == 8
        assert stats["shards"]["batches"] == 1
        assert {r["scenario_id"]: canonical_record(r) for r in records} == sweep_bodies(specs)

    def test_shard_error_propagates_as_service_error(self):
        async def run():
            service = self._service(npz_root="/")  # authorized, but missing file
            try:
                bad = Scenario(family="npz", size=0, k=2, params=(("path", "/nope.npz"),))
                with pytest.raises(ServiceError):
                    await service.submit(bad)
                return service.stats()
            finally:
                await service.close()

        stats = asyncio.run(run())
        assert stats["errors"] == 1

    def test_lru_bound_is_enforced(self):
        async def run():
            service = self._service(cache_size=2)
            try:
                for spec in SPECS[:3]:
                    await service.submit(scenario_from_spec(spec))
                return service.stats()
            finally:
                await service.close()

        stats = asyncio.run(run())
        assert stats["cache"]["entries"] == 2
        assert stats["cache"]["evictions"] == 1


class TestServer:
    def test_k_below_one_is_rejected_before_batching(self):
        async def run():
            service = DecompositionService(shards=0)
            task, host, port = await start_server(service)
            client = await ServiceClient.connect(host, port)
            try:
                bad = await client.decompose({"family": "grid", "size": 6, "k": 0})
                return bad, service.stats()
            finally:
                await client.close()
                await stop_server(task, host, port)

        bad, stats = asyncio.run(run())
        assert not bad["ok"] and "k must be >= 1" in bad["error"]
        # refused on the event loop: no batch was formed, nothing failed in a shard
        assert stats["batcher"]["batches"] == 0 and stats["errors"] == 0

    def test_end_to_end_records_and_control_ops(self):
        async def run():
            service = DecompositionService(shards=0)
            task, host, port = await start_server(service)
            client = await ServiceClient.connect(host, port)
            try:
                responses = [await client.decompose(spec) for spec in SPECS]
                pong = await client.ping()
                stats = await client.stats()
                bad = await client.decompose({"family": "grid", "size": 8})
                return responses, pong, stats, bad
            finally:
                await client.close()
                await stop_server(task, host, port)

        responses, pong, stats, bad = asyncio.run(run())
        expected = sweep_bodies(SPECS)
        assert all(r["ok"] for r in responses)
        for resp in responses:
            sid = resp["record"]["scenario_id"]
            assert canonical_record(resp["record"]) == expected[sid]
        assert pong["ok"] and pong["pong"] == PROTOCOL_VERSION
        assert stats["stats"]["requests"] == len(SPECS)
        assert not bad["ok"] and "needs keys: k" in bad["error"]

    def test_malformed_line_answered_not_fatal(self):
        async def run():
            service = DecompositionService(shards=0)
            task, host, port = await start_server(service)
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"this is not json\n")
                await writer.drain()
                err = json.loads(await reader.readline())
                writer.write(b'{"op": "ping", "id": 5}\n')
                await writer.drain()
                pong = json.loads(await reader.readline())
                writer.close()
                return err, pong
            finally:
                await stop_server(task, host, port)

        err, pong = asyncio.run(run())
        assert not err["ok"] and err["id"] is None
        assert pong["ok"] and pong["id"] == 5

    def test_pipelined_requests_matched_by_id(self):
        async def run():
            service = DecompositionService(shards=0)
            task, host, port = await start_server(service)
            try:
                reader, writer = await asyncio.open_connection(host, port)
                for i, spec in enumerate(SPECS):
                    writer.write(
                        (json.dumps({"id": i, "scenario": spec}) + "\n").encode()
                    )
                await writer.drain()
                responses = [json.loads(await reader.readline()) for _ in SPECS]
                writer.close()
                return responses
            finally:
                await stop_server(task, host, port)

        responses = asyncio.run(run())
        assert sorted(r["id"] for r in responses) == [0, 1, 2, 3]
        assert all(r["ok"] for r in responses)

    def test_process_shards_byte_identical_to_inline(self):
        async def run(shards):
            service = DecompositionService(shards=shards)
            task, host, port = await start_server(service)
            client = await ServiceClient.connect(host, port)
            try:
                return [await client.decompose(spec) for spec in SPECS]
            finally:
                await client.close()
                await stop_server(task, host, port)

        inline = [canonical_record(r["record"]) for r in asyncio.run(run(0))]
        sharded = [canonical_record(r["record"]) for r in asyncio.run(run(2))]
        assert inline == sharded

    def test_shutdown_completes_with_idle_client_connected(self):
        # Server.wait_closed() waits for open handlers since 3.12.1; an idle
        # connection must not be able to hang shutdown (the server cancels
        # stragglers after a grace period instead)
        async def run():
            service = DecompositionService(shards=0)
            task, host, port = await start_server(service)
            idle = await ServiceClient.connect(host, port)  # never speaks
            try:
                await stop_server(task, host, port)
                return True
            finally:
                await idle.close()

        assert asyncio.run(asyncio.wait_for(run(), 30))

    def test_stop_closes_idle_connections_at_once(self):
        # idle keep-alives owe no response: stop must not spend the drain
        # grace on them
        async def run():
            service = DecompositionService(shards=0)
            task, host, port = await start_server(service)
            idle = [await ServiceClient.connect(host, port) for _ in range(3)]
            try:
                loop = asyncio.get_running_loop()
                t0 = loop.time()
                await stop_server(task, host, port)
                return loop.time() - t0
            finally:
                for client in idle:
                    await client.close()

        assert asyncio.run(asyncio.wait_for(run(), 30)) < 1.0

    def test_stop_still_answers_in_flight_request(self):
        # a response still owed at stop time is delivered before its
        # connection closes, while an idle neighbor is dropped at once
        async def run():
            started = asyncio.Event()

            async def handle(req, stop):
                if req["op"] == "ping":  # a slow request
                    started.set()
                    await asyncio.sleep(0.3)
                    return {"id": req["id"], "ok": True, "pong": 1}
                if req["op"] == "shutdown":
                    stop.set()
                return {"id": req["id"], "ok": True}

            ready = asyncio.Event()
            bound = {}

            def _ready(host, port):
                bound.update(host=host, port=port)
                ready.set()

            server = asyncio.create_task(run_line_server(handle, port=0, ready=_ready))
            await asyncio.wait_for(ready.wait(), 10)
            host, port = bound["host"], bound["port"]
            # an established connection with nothing owed
            idle_reader, idle = await asyncio.open_connection(host, port)
            idle.write(b'{"op": "stats", "id": 0}\n')
            await idle.drain()
            assert json.loads(await idle_reader.readline()) == {"id": 0, "ok": True}
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"op": "ping", "id": 1}\n')
            await writer.drain()
            await asyncio.wait_for(started.wait(), 5)  # now in flight
            stop_reader, stop_writer = await asyncio.open_connection(host, port)
            stop_writer.write(b'{"op": "shutdown", "id": 2}\n')
            await stop_writer.drain()
            stopped = json.loads(await stop_reader.readline())
            reply = json.loads(await asyncio.wait_for(reader.readline(), 5))
            dropped = await asyncio.wait_for(idle_reader.read(), 5)
            await asyncio.wait_for(server, 5)
            for w in (idle, writer, stop_writer):
                w.close()
            return stopped, reply, dropped

        stopped, reply, dropped = asyncio.run(asyncio.wait_for(run(), 30))
        assert stopped == {"id": 2, "ok": True}
        assert reply == {"id": 1, "ok": True, "pong": 1}
        assert dropped == b""

    def test_broken_shard_respawns(self):
        async def run():
            pool = ShardPool(shards=1)
            scenario = scenario_from_spec(SPECS[0])
            try:
                first = await pool.submit_batch(0, [scenario])
                # kill the shard's worker process out from under it
                import os
                import signal

                (pid,) = pool._executors[0]._processes.keys()
                os.kill(pid, signal.SIGKILL)
                second = await pool.submit_batch(0, [scenario])
                return first, second, pool.stats()
            finally:
                pool.close()

        first, second, stats = asyncio.run(run())
        assert first[0]["ok"] and second[0]["ok"]
        assert first[0]["record"] == second[0]["record"]
        assert stats["respawns"] == 1

    def test_npz_ref_request(self, tmp_path):
        g = grid_graph(6, 6)
        save_npz(tmp_path / "g.npz", g, weights=np.ones(g.n))
        spec = {"family": "npz", "size": 0, "k": 2,
                "params": {"path": str(tmp_path / "g.npz")}}

        async def run():
            service = DecompositionService(shards=0, npz_root=tmp_path)
            task, host, port = await start_server(service)
            client = await ServiceClient.connect(host, port)
            try:
                return await client.decompose(spec)
            finally:
                await client.close()
                await stop_server(task, host, port)

        resp = asyncio.run(run())
        assert resp["ok"]
        assert resp["record"]["instance"]["n"] == 36
        assert resp["record"]["metrics"]["strictly_balanced"]

    def test_npz_refs_confined_to_root(self, tmp_path):
        async def run(npz_root, path):
            service = DecompositionService(shards=0, npz_root=npz_root)
            task, host, port = await start_server(service)
            client = await ServiceClient.connect(host, port)
            try:
                return await client.decompose(
                    {"family": "npz", "size": 0, "k": 2, "params": {"path": path}}
                )
            finally:
                await client.close()
                await stop_server(task, host, port)

        # disabled by default: no probing the server's filesystem
        off = asyncio.run(run(None, "/etc/passwd"))
        assert not off["ok"] and "disabled" in off["error"]
        # path escape attempts stay inside the root
        out = asyncio.run(run(tmp_path, str(tmp_path / ".." / "escape.npz")))
        assert not out["ok"] and "must live under" in out["error"]

    def test_npz_native_costs_preserved(self, tmp_path):
        from repro.graphs import uniform_costs
        from repro.runtime import run_scenario

        g = grid_graph(6, 6).with_costs(
            uniform_costs(grid_graph(6, 6), 0.5, 3.0, rng=np.random.default_rng(7))
        )
        save_npz(tmp_path / "g.npz", g)
        native = Scenario(family="npz", size=0, k=2, costs="native",
                          params=(("path", str(tmp_path / "g.npz")),))
        default = Scenario(family="npz", size=0, k=2,
                           params=(("path", str(tmp_path / "g.npz")),))
        rec_native = run_scenario(native).record()
        rec_default = run_scenario(default).record()
        # "native" keeps the archive's costs; the default unit distribution
        # overwrites them (uniform semantics across families — documented)
        assert rec_native["instance"]["cost_max"] > 1.0
        assert rec_default["instance"]["cost_max"] == 1.0

    def test_oversized_line_drops_connection_not_server(self):
        async def run():
            service = DecompositionService(shards=0)
            task, host, port = await start_server(service)
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"x" * (2**21) + b"\n")  # 2 MiB > the 1 MiB limit
                try:
                    await writer.drain()
                    line = await reader.readline()
                    answer = json.loads(line) if line else None
                except (ConnectionResetError, BrokenPipeError):
                    # the server may reset us while the flood is still in
                    # flight; what matters is that it answers best-effort
                    # and stays up (below)
                    answer = None
                writer.close()
                survivor = await ServiceClient.connect(host, port)
                try:
                    pong = await survivor.ping()
                finally:
                    await survivor.close()
                return answer, pong
            finally:
                await stop_server(task, host, port)

        answer, pong = asyncio.run(run())
        if answer is not None:
            assert not answer["ok"] and "too long" in answer["error"]
        assert pong["ok"]  # one hostile line never takes the server down


class TestLatencySummary:
    def test_nearest_rank_percentiles(self):
        from repro.service import latency_summary

        sample = [i / 1000.0 for i in range(1, 101)]  # 1..100 ms
        summary = latency_summary(sample)
        assert summary["p50_ms"] == 50.0
        assert summary["p95_ms"] == 95.0
        assert summary["p99_ms"] == 99.0  # not the max
        assert summary["max_ms"] == 100.0
        assert summary["count"] == 100

    def test_tiny_samples(self):
        from repro.service import latency_summary

        assert latency_summary([]) == {"count": 0}
        two = latency_summary([0.001, 0.002])
        assert two["p50_ms"] == 1.0  # nearest rank, not the max


class TestLoadgen:
    def test_report_and_deterministic_bodies(self):
        async def run():
            service = DecompositionService(shards=0)
            task, host, port = await start_server(service)
            try:
                out = await run_loadgen(host, port, SPECS, connections=3, passes=2)
            finally:
                await stop_server(task, host, port)
            return out

        out = asyncio.run(run())
        report, bodies = out["report"], out["bodies"]
        assert [p["pass"] for p in report["passes"]] == [1, 2]
        assert all(p["requests"] == len(SPECS) for p in report["passes"])
        assert all(p["throughput_rps"] > 0 for p in report["passes"])
        assert report["errors"] == []
        assert report["server_stats"]["cache"]["hits"] >= len(SPECS)  # warm pass
        assert bodies == sweep_bodies(SPECS)
        assert list(bodies) == sorted(bodies)

    def test_loadgen_surfaces_request_errors(self):
        async def run():
            service = DecompositionService(shards=0)
            task, host, port = await start_server(service)
            try:
                bad = [{"family": "grid", "size": 8, "k": 2, "algorithm": "nope"}]
                return await run_loadgen(host, port, SPECS[:1] + bad,
                                         connections=2, passes=1)
            finally:
                await stop_server(task, host, port)

        out = asyncio.run(run())
        assert len(out["report"]["errors"]) == 1
        assert "unknown algorithm" in out["report"]["errors"][0]["error"]
        assert len(out["bodies"]) == 1


class TestServiceCli:
    def test_serve_loadgen_roundtrip(self, tmp_path, capsys):
        """Full CLI path: spawn `repro serve` inline on a thread, hit it with
        `repro loadgen --check-sweep`, shut it down via the op."""
        import threading

        port_box = {}
        ready = threading.Event()

        def _serve():
            import repro.cli as cli

            original = cli._run_serve

            # run the real serve but capture the ephemeral port
            def patched(args):
                import asyncio as aio

                from repro.service import DecompositionService
                from repro.service import serve as serve_coro

                service = DecompositionService(shards=0)

                def _ready(host, port):
                    port_box["port"] = port
                    ready.set()

                aio.run(serve_coro(service, host=args.host, port=0, ready=_ready))
                return 0

            cli._run_serve = patched
            try:
                main(["serve", "--port", "0", "--shards", "0"])
            finally:
                cli._run_serve = original

        thread = threading.Thread(target=_serve, daemon=True)
        thread.start()
        assert ready.wait(10)
        report = tmp_path / "report.json"
        bodies = tmp_path / "bodies.json"
        rc = main([
            "loadgen", "--port", str(port_box["port"]),
            "--family", "grid", "--size", "8", "--k", "2", "4",
            "--connections", "2", "--passes", "2",
            "--check-sweep", "--shutdown", "--min-rps", "1",
            "-o", str(report), "--bodies", str(bodies),
        ])
        thread.join(timeout=30)
        assert rc == 0
        assert not thread.is_alive()
        doc = json.loads(report.read_text())
        assert doc["unique_scenarios"] == 2 and "grid" in doc
        assert json.loads(bodies.read_text()) == sweep_bodies(
            [{"family": "grid", "size": 8, "k": 2}, {"family": "grid", "size": 8, "k": 4}]
        )

    @pytest.mark.parametrize("flag, value", [
        ("--max-batch-size", "0"), ("--shards", "-1"), ("--cache-size", "-1"),
    ])
    def test_serve_reports_bad_sizes_in_one_line(self, monkeypatch, flag, value):
        import repro.service.server as server_mod

        built = []

        def recording_pool(**kw):
            built.append(ShardPool(**kw))
            return built[-1]

        monkeypatch.setattr(server_mod, "ShardPool", recording_pool)
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "0", flag, value])
        # a one-line operator error (no traceback), and validation failed
        # before anything that would need closing was built
        assert isinstance(exc.value.code, str) and exc.value.code.startswith("serve: ")
        assert built == []

    @pytest.mark.parametrize("extra, env, message", [
        (["--oracle-cache-size", "-1"], None, "--oracle-cache-size must be >= 0, got -1"),
        ([], "abc", "REPRO_ORACLE_CACHE_SIZE='abc' is not a non-negative integer"),
    ], ids=["flag", "env"])
    def test_serve_reports_bad_oracle_cache_size_in_one_line(self, monkeypatch, extra, env,
                                                             message):
        import repro.service as service_mod
        from repro.separators import reset_solver_state

        def unreachable(**kw):
            raise AssertionError("the service was built despite a bad size")

        monkeypatch.setattr(service_mod, "DecompositionService", unreachable)
        monkeypatch.setenv("REPRO_ORACLE_CACHE", "1")
        if env is not None:
            monkeypatch.setenv("REPRO_ORACLE_CACHE_SIZE", env)
        reset_solver_state()
        try:
            with pytest.raises(SystemExit) as exc:
                main(["serve", "--port", "0", *extra])
        finally:
            reset_solver_state()
        assert exc.value.code == f"serve: {message}"

    def test_serve_has_no_batch_timer_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--max-wait-ms", "2"])

    def test_loadgen_requires_axes(self):
        with pytest.raises(SystemExit, match="loadgen needs"):
            main(["loadgen"])

    def test_loadgen_rejects_unknown_axis_value(self):
        with pytest.raises(SystemExit, match="unknown algorithm"):
            main(["loadgen", "--family", "grid", "--size", "8", "--k", "2",
                  "--algorithm", "nope"])


class TestClientResilience:
    """ServiceClient deadlines and reconnect-with-backoff, plus the
    loadgen's transport-failure classification (`_resilient_call`)."""

    @staticmethod
    async def toy_server(fail_first_n: int):
        """A line server whose first N connections close without replying;
        later connections answer every request with ok."""
        state = {"connections": 0}

        async def handler(reader, writer):
            state["connections"] += 1
            if state["connections"] <= fail_first_n:
                writer.close()
                return
            while True:
                line = await reader.readline()
                if not line:
                    break
                req = json.loads(line)
                writer.write(
                    (json.dumps({"id": req["id"], "ok": True}) + "\n").encode())
                await writer.drain()
            writer.close()

        server = await asyncio.start_server(handler, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        return server, host, port

    def test_request_timeout_bounds_the_round_trip(self):
        async def run():
            async def black_hole(reader, writer):
                try:
                    await reader.read()  # consume forever, never reply
                finally:
                    writer.close()

            server = await asyncio.start_server(black_hole, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            client = await ServiceClient.connect(host, port, request_timeout=0.05)
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await client.ping()
                # a per-call deadline overrides the client default
                with pytest.raises(asyncio.TimeoutError):
                    await client.call({"op": "ping"}, timeout=0.01)
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(run())

    def test_reconnect_restores_a_dead_connection(self):
        async def run():
            server, host, port = await self.toy_server(fail_first_n=1)
            client = await ServiceClient.connect(host, port)
            try:
                with pytest.raises(ConnectionError):
                    await client.call({"op": "ping"})
                await client.reconnect(attempts=2, base_delay_s=0.001)
                return await client.call({"op": "ping"})
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        assert asyncio.run(run())["ok"]

    def test_reconnect_requires_connect_and_bounds_attempts(self):
        async def run():
            server, host, port = await self.toy_server(fail_first_n=0)
            reader, writer = await asyncio.open_connection(host, port)
            bare = ServiceClient(reader, writer)  # no remembered address
            with pytest.raises(ConnectionError, match="cannot reconnect"):
                await bare.reconnect()
            await bare.close()
            client = await ServiceClient.connect(host, port)
            server.close()
            await server.wait_closed()
            try:
                with pytest.raises(ConnectionError, match="2 attempt"):
                    await client.reconnect(attempts=2, base_delay_s=0.001)
            finally:
                await client.close()

        asyncio.run(run())

    def test_resilient_call_retries_transport_failures_once(self):
        from repro.service.loadgen import _resilient_call

        async def run():
            server, host, port = await self.toy_server(fail_first_n=1)
            client = await ServiceClient.connect(host, port)
            counters = {"retried": 0, "failed": 0}
            try:
                resp = await _resilient_call(client, {"op": "ping"}, counters)
            finally:
                await client.close()
                server.close()
                await server.wait_closed()
            return resp, counters

        resp, counters = asyncio.run(run())
        assert resp["ok"]
        assert counters == {"retried": 1, "failed": 0}

    def test_resilient_call_classifies_exhaustion_as_transport(self):
        from repro.service.loadgen import _resilient_call

        async def run():
            server, host, port = await self.toy_server(fail_first_n=99)
            client = await ServiceClient.connect(host, port)
            counters = {"retried": 0, "failed": 0}
            try:
                resp = await _resilient_call(
                    client, {"op": "ping"}, counters, transport_retries=1)
            finally:
                await client.close()
                server.close()
                await server.wait_closed()
            return resp, counters

        resp, counters = asyncio.run(run())
        assert not resp["ok"] and resp["transport_failed"]
        assert resp["error"].startswith("transport:")
        assert counters == {"retried": 1, "failed": 1}

    def test_loadgen_report_carries_transport_block(self):
        async def run():
            service = DecompositionService(shards=0)
            task, host, port = await start_server(service)
            try:
                return await run_loadgen(host, port, SPECS[:2],
                                         connections=2, passes=1)
            finally:
                await stop_server(task, host, port)

        report = asyncio.run(run())["report"]
        assert report["transport"] == {"retried_ops": 0, "failed_ops": 0}
