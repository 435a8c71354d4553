"""Tests for the unified telemetry layer (repro.obs) and its integrations.

The load-bearing contracts:

* snapshots merge associatively across processes (shard workers and sweep
  workers ship them to the parent),
* spans roll up hierarchically and reconcile with measured wall-clock,
* trace ids propagate over the JSON-lines wire in the response envelope,
* and — the hard one — telemetry on/off/scraped changes **no output byte**.
"""

import asyncio
import io
import json
import re

import pytest

from repro.obs import (
    EventLog,
    current_span_path,
    events,
    histogram_summary,
    merge_snapshots,
    metric_key,
    quantile_bounds,
    registry,
    render_prometheus,
    reset_telemetry,
    snapshot_delta,
    span,
    spans_snapshot,
    start_metrics_server,
)
from repro.obs.metrics import (
    HISTOGRAM_BASE,
    HISTOGRAM_BUCKETS,
    split_metric_key,
)
from repro.runtime import Scenario, run_sweep
from repro.runtime.engine import run_scenario
from repro.service import DecompositionService, ServiceClient, serve
from repro.service.loadgen import server_latency_report


@pytest.fixture(autouse=True)
def clean_registry():
    """Each test starts and ends with an empty process registry."""
    reset_telemetry()
    yield
    reset_telemetry()


async def start_server(service, metrics_port=None):
    """Start ``serve`` on ephemeral ports; returns (task, host, port, mport)."""
    ready = asyncio.Event()
    metrics_ready = asyncio.Event()
    bound = {}

    def _ready(host, port):
        bound.update(host=host, port=port)
        ready.set()

    def _metrics_ready(host, port):
        bound["metrics_port"] = port
        metrics_ready.set()

    task = asyncio.create_task(
        serve(service, port=0, ready=_ready, metrics_port=metrics_port,
              metrics_ready=_metrics_ready)
    )
    await asyncio.wait_for(ready.wait(), 10)
    if metrics_port is not None:
        await asyncio.wait_for(metrics_ready.wait(), 10)
    return task, bound["host"], bound["port"], bound.get("metrics_port")


class TestMetricsRegistry:
    def test_counter_gauge_histogram_snapshot(self):
        reg = registry()
        reg.counter("reqs", op="x").inc()
        reg.counter("reqs", op="x").inc(2)
        reg.gauge("open").set(7)
        reg.histogram("lat").observe(0.01)
        snap = reg.snapshot()
        assert snap["counters"]["reqs{op=x}"] == 3
        assert snap["gauges"]["open"] == 7
        assert snap["histograms"]["lat"]["count"] == 1
        assert snap["histograms"]["lat"]["sum"] == pytest.approx(0.01)

    def test_metric_key_roundtrip_and_label_sorting(self):
        key = metric_key("m", {"b": "2", "a": "1"})
        assert key == "m{a=1,b=2}"
        assert split_metric_key(key) == ("m", {"a": "1", "b": "2"})
        assert split_metric_key("plain") == ("plain", {})

    def test_histogram_bucket_placement(self):
        h = registry().histogram("h")
        h.observe(HISTOGRAM_BASE / 2)      # first bucket
        h.observe(HISTOGRAM_BASE * 3)      # base*2 < x <= base*4 -> bucket 2
        h.observe(1e9)                     # overflow
        assert h.counts[0] == 1
        assert h.counts[2] == 1
        assert h.counts[HISTOGRAM_BUCKETS] == 1
        assert h.count == 3

    def test_merge_snapshots_is_associative_addition(self):
        def make(n):
            reset_telemetry()
            reg = registry()
            reg.counter("c").inc(n)
            reg.histogram("h").observe(0.001 * n)
            reg.record_span("a/b", 0.5)
            return reg.snapshot()

        s1, s2, s3 = make(1), make(2), make(3)
        left = merge_snapshots([merge_snapshots([s1, s2]), s3])
        right = merge_snapshots([s1, merge_snapshots([s2, s3])])
        assert left == right
        assert left["counters"]["c"] == 6
        assert left["histograms"]["h"]["count"] == 3
        assert left["spans"]["a/b"] == {"calls": 3, "seconds": pytest.approx(1.5)}

    def test_snapshot_delta_inverts_merge(self):
        reg = registry()
        reg.counter("c").inc(2)
        reg.counter("still").inc(5)
        reg.gauge("g").set(3)
        reg.histogram("h").observe(0.0625)
        reg.record_span("a", 0.5)
        before = reg.snapshot()
        reg.counter("c").inc(3)
        reg.counter("new", path="x").inc()
        reg.gauge("g").set(1)
        reg.histogram("h").observe(0.25)
        reg.histogram("fresh").observe(0.125)
        reg.record_span("a", 0.25)
        reg.record_span("a/b", 0.125)
        after = reg.snapshot()
        delta = snapshot_delta(before, after)
        # only what changed, as a difference; unchanged entries are left out
        assert delta["counters"] == {"c": 3, "new{path=x}": 1}
        assert delta["gauges"] == {"g": -2}
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["sum"] == 0.25
        assert delta["histograms"]["fresh"] == after["histograms"]["fresh"]
        assert delta["spans"] == {"a": {"calls": 1, "seconds": 0.25},
                                  "a/b": {"calls": 1, "seconds": 0.125}}
        # a delta is a snapshot: merged onto ``before`` it gives ``after``
        assert merge_snapshots([before, delta]) == after

    def test_quantile_bounds_and_summary(self):
        h = registry().histogram("q")
        for _ in range(99):
            h.observe(0.001)   # bucket with upper bound ~0.0016
        h.observe(10.0)        # one slow outlier
        snap = registry().snapshot()["histograms"]["q"]
        lo, hi = quantile_bounds(snap, 0.5)
        assert lo < 0.001 <= hi
        summary = histogram_summary(snap)
        assert summary["count"] == 100
        assert summary["p50_ms"] <= 2.0
        assert summary["p99_ms"] >= summary["p50_ms"]
        assert summary["mean_ms"] == pytest.approx(1000 * snap["sum"] / 100, rel=1e-6)

    def test_empty_histogram_summary(self):
        assert histogram_summary({"counts": [], "sum": 0.0, "count": 0}) == {"count": 0}
        assert quantile_bounds({"counts": [], "count": 0}, 0.5) is None


class TestSpans:
    def test_paths_nest_hierarchically(self):
        with span("outer"):
            assert current_span_path() == "outer"
            with span("inner"):
                assert current_span_path() == "outer/inner"
        assert current_span_path() == ""
        snap = spans_snapshot()
        assert set(snap) == {"outer", "outer/inner"}
        assert snap["outer"][0] == 1

    def test_recursive_spans_do_not_self_nest(self):
        # an oracle portfolio delegating to sub-oracles re-enters its own
        # span; only the outermost entry may count, or parent totals would
        # be multiply counted and path cardinality unbounded
        with span("oracle.split"):
            with span("oracle.split"):
                with span("oracle.split"):
                    assert current_span_path() == "oracle.split"
        snap = spans_snapshot()
        assert set(snap) == {"oracle.split"}
        assert snap["oracle.split"][0] == 1

    def test_exception_still_pops_the_stack(self):
        with pytest.raises(RuntimeError):
            with span("boom"):
                raise RuntimeError("x")
        assert current_span_path() == ""
        assert spans_snapshot()["boom"][0] == 1

    def test_disabled_spans_record_nothing(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        reset_telemetry()
        with span("ghost"):
            assert current_span_path() == ""
        assert spans_snapshot() == {}

    def test_spans_delta(self):
        with span("a"):
            pass
        before = registry().snapshot()
        with span("a"):
            pass
        with span("b"):
            pass
        delta = snapshot_delta(before, registry().snapshot())["spans"]
        assert delta["a"]["calls"] == 1
        assert delta["b"]["calls"] == 1


class TestEventLog:
    def test_disabled_by_default(self):
        log = EventLog()
        log.emit("x", a=1)
        assert not log.enabled and log.emitted == 0

    def test_emits_sorted_json_lines(self):
        buf = io.StringIO()
        log = EventLog(buf)
        log.emit("request.slow", op="decompose", ms=12.5, skipped=None)
        doc = json.loads(buf.getvalue())
        assert doc["event"] == "request.slow"
        assert doc["op"] == "decompose" and doc["ms"] == 12.5
        assert "skipped" not in doc and "ts" in doc
        assert log.emitted == 1

    def test_broken_stream_never_raises(self):
        class Dead:
            def write(self, _):
                raise OSError("gone")

        log = EventLog(Dead())
        log.emit("x")  # must not raise
        assert log.emitted == 0


def check_exposition(text: str) -> dict:
    """Assert Prometheus text-format well-formedness; return name -> samples."""
    sample_re = re.compile(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.e+-]+|\+Inf|NaN)$"
    )
    samples: dict[str, list] = {}
    for line in text.strip().split("\n"):
        if line.startswith("# HELP") or line.startswith("# TYPE"):
            assert len(line.split(maxsplit=3)) == 4, line
            continue
        m = sample_re.match(line)
        assert m, f"malformed sample line: {line!r}"
        samples.setdefault(m.group(1), []).append((m.group(2) or "", m.group(3)))
    return samples


class TestPrometheusExposition:
    def test_render_counters_gauges_histograms_spans(self):
        reg = registry()
        reg.counter("requests", op="decompose").inc(5)
        reg.gauge("sessions_open").set(2)
        reg.histogram("request_seconds", op="decompose").observe(0.01)
        reg.record_span("scenario.algorithm/pipeline.prop7", 0.25)
        text = render_prometheus(reg.snapshot())
        samples = check_exposition(text)
        assert ('{op="decompose"}', "5") in samples["repro_requests_total"]
        assert ("", "2") in samples["repro_sessions_open"]
        # cumulative buckets: monotone, +Inf equals _count
        buckets = samples["repro_request_seconds_bucket"]
        values = [float(v) for _, v in buckets]
        assert values == sorted(values)
        assert buckets[-1][1] == samples["repro_request_seconds_count"][0][1]
        assert len(buckets) == HISTOGRAM_BUCKETS + 1
        assert any('span="scenario.algorithm/pipeline.prop7"' in lbl
                   for lbl, _ in samples["repro_span_seconds_total"])

    def test_label_escaping(self):
        reg = registry()
        reg.counter("c", path='we"ird\\x').inc()
        text = render_prometheus(reg.snapshot())
        assert '\\"' in text and "\\\\" in text

    def test_metrics_http_endpoint(self):
        async def run():
            registry().counter("hits").inc(3)

            async def collect():
                return render_prometheus(registry().snapshot())

            server = await start_metrics_server(collect, port=0)
            port = server.sockets[0].getsockname()[1]

            async def get(path, method="GET"):
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(f"{method} {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
                await writer.drain()
                data = await reader.read()
                writer.close()
                head, _, body = data.decode().partition("\r\n\r\n")
                return head.split("\r\n")[0], head, body

            metrics = await get("/metrics")
            health = await get("/healthz")
            missing = await get("/nope")
            posted = await get("/metrics", method="POST")
            server.close()
            await server.wait_closed()
            return metrics, health, missing, posted

        metrics, health, missing, posted = asyncio.run(run())
        assert "200 OK" in metrics[0] and "version=0.0.4" in metrics[1]
        check_exposition(metrics[2])
        assert "repro_hits_total 3" in metrics[2]
        assert "200 OK" in health[0] and health[2] == "ok\n"
        assert "404" in missing[0]
        assert "405" in posted[0]


class TestScenarioSpans:
    def test_span_stats_reconcile_with_wall_clock(self):
        r = run_scenario(Scenario(family="grid", size=8, k=2))
        spans = r.telemetry["spans"]
        assert spans["scenario.algorithm"]["calls"] == 1
        # the algorithm span is measured inside the wall-clock window
        assert 0 < spans["scenario.algorithm"]["seconds"] <= r.wall_clock_s + 1e-6
        # children are nested inside the algorithm span, never exceeding it
        child_total = sum(
            v["seconds"] for path, v in spans.items()
            if path.startswith("scenario.algorithm/") and path.count("/") == 1
        )
        assert child_total <= spans["scenario.algorithm"]["seconds"] + 1e-6

    def test_records_byte_identical_telemetry_on_off(self, monkeypatch):
        scenarios = [
            Scenario(family="grid", size=8, k=2),
            Scenario(family="grid", size=8, k=4,
                     algorithm="stream",
                     params=(("steps", 4), ("trace", "random-churn"))),
        ]
        on = [run_scenario(s).record() for s in scenarios]
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        reset_telemetry()
        off = [run_scenario(s).record() for s in scenarios]
        assert json.dumps(on, sort_keys=True) == json.dumps(off, sort_keys=True)
        assert all(not run_scenario(s).telemetry["spans"] for s in scenarios)

    def test_sweep_workers_ship_span_deltas(self):
        # workers=2 crosses the process boundary: telemetry deltas must
        # pickle and come back per scenario
        scenarios = [Scenario(family="grid", size=8, k=2),
                     Scenario(family="grid", size=8, k=4),
                     Scenario(family="mesh", size=8, k=2)]
        results = run_sweep(scenarios, workers=2)
        for r in results:
            assert r.telemetry["spans"]["scenario.algorithm"]["calls"] == 1


class TestServiceTelemetry:
    SPECS = [
        {"family": "grid", "size": 8, "k": 2},
        {"family": "grid", "size": 8, "k": 4},
        {"family": "mesh", "size": 8, "k": 2},
    ]

    def test_metrics_merge_across_spawn_shards_and_trace_echo(self):
        async def run():
            service = DecompositionService(shards=2)
            task, host, port, mport = await start_server(service, metrics_port=0)
            client = await ServiceClient.connect(host, port)
            responses = [
                await client.call({"scenario": spec, "trace": f"t-{i}"})
                for i, spec in enumerate(self.SPECS)
            ]
            pong = await client.call({"op": "ping", "trace": "hb-1"})
            bad = await client.call({"scenario": self.SPECS[0], "trace": 42})
            stats = (await client.stats())["stats"]

            reader, writer = await asyncio.open_connection(host, mport)
            writer.write(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            scrape = (await reader.read()).decode().partition("\r\n\r\n")[2]
            writer.close()

            await client.shutdown()
            await client.close()
            await asyncio.wait_for(task, 30)
            return responses, pong, bad, stats, scrape

        responses, pong, bad, stats, scrape = asyncio.run(run())
        # trace ids echo in the envelope, for every op kind
        assert [r.get("trace") for r in responses] == ["t-0", "t-1", "t-2"]
        assert all(r["ok"] and "trace" not in r["record"] for r in responses)
        assert pong["trace"] == "hb-1"
        assert not bad["ok"] and "trace" in bad["error"]

        # front-end histograms + worker spans merged into one snapshot:
        # spans were recorded inside spawn-mode shard processes, so their
        # presence proves the cross-process merge
        tel = stats["telemetry"]
        # the rejected-trace request never reached dispatch, so only the
        # three served ones are timed (and only those hit the service)
        hist = tel["histograms"][metric_key("request_seconds", {"op": "decompose"})]
        assert hist["count"] == len(self.SPECS)
        assert tel["spans"]["scenario.algorithm"]["calls"] == len(self.SPECS)
        assert tel["gauges"]["service_requests"] == len(self.SPECS)

        # span rollups reconcile with measured request wall-clock: the
        # worker-side phases are strictly inside the front-end's request
        # timer (which adds batching wait + IPC on top)
        span_total = sum(
            v["seconds"] for path, v in tel["spans"].items()
            if path.startswith("scenario.") and "/" not in path
        )
        assert 0 < span_total <= hist["sum"] + 0.05

        samples = check_exposition(scrape)
        assert "repro_request_seconds_bucket" in samples
        assert "repro_span_seconds_total" in samples

        # the server-side percentile summary loadgen reports comes straight
        # off this histogram
        report = server_latency_report(stats, "decompose")
        assert report["count"] == hist["count"]
        assert report["p99_ms"] >= report["p50_ms"]

    def test_response_bodies_byte_identical_telemetry_on_off(self, monkeypatch):
        async def collect_bodies():
            service = DecompositionService(shards=1)
            task, host, port, _ = await start_server(service)
            client = await ServiceClient.connect(host, port)
            bodies = {}
            for spec in self.SPECS:
                resp = await client.decompose(spec)
                assert resp["ok"], resp
                record = resp["record"]
                bodies[record["scenario_id"]] = json.dumps(record, sort_keys=True)
            await client.shutdown()
            await client.close()
            await asyncio.wait_for(task, 30)
            return bodies

        on = asyncio.run(collect_bodies())
        # spawn-mode workers inherit the environment, so setting the toggle
        # here disables telemetry in the shard processes too
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        reset_telemetry()
        off = asyncio.run(collect_bodies())
        assert on == off

    def test_slow_request_events_carry_trace(self, monkeypatch):
        buf = io.StringIO()
        monkeypatch.setattr(events, "_stream", buf)

        async def run():
            service = DecompositionService(shards=0, slow_request_s=0.0)
            task, host, port, _ = await start_server(service)
            client = await ServiceClient.connect(host, port)
            await client.call({"scenario": self.SPECS[0], "trace": "slow-1"})
            await client.shutdown()
            await client.close()
            await asyncio.wait_for(task, 30)

        asyncio.run(run())
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        slow = [e for e in lines if e["event"] == "request.slow"]
        assert slow and slow[0]["op"] == "decompose"
        assert slow[0]["trace"] == "slow-1"
        assert slow[0]["ms"] >= 0

    def test_oracle_cache_tier_is_a_view_of_the_merged_snapshot(self, monkeypatch):
        from repro.cli import _oracle_cache_env
        from repro.separators import reset_solver_state, solver_stats
        from repro.service.protocol import scenario_from_spec

        monkeypatch.setenv("REPRO_ORACLE_CACHE", "1")
        monkeypatch.setenv("REPRO_ORACLE_CACHE_SIZE", "256")
        reset_solver_state()
        # repro serve's front-end size check publishes no cache of its own
        _oracle_cache_env("serve", False, 5)
        assert solver_stats()["cache"] is None

        async def run():
            service = DecompositionService(shards=2)
            used = {service.pool.shard_for(scenario_from_spec(spec)) for spec in self.SPECS}
            task, host, port, _ = await start_server(service)
            client = await ServiceClient.connect(host, port)
            for spec in self.SPECS:
                await client.decompose(spec)
            stats = (await client.stats())["stats"]
            await client.shutdown()
            await client.close()
            await asyncio.wait_for(task, 30)
            return used, stats

        used, stats = asyncio.run(run())
        assert used == {0, 1}
        oracle = stats["oracle_cache"]
        assert oracle == solver_stats(stats["telemetry"])
        assert oracle["cache"]["maxsize"] == 2 * 5
        assert oracle["counters"]["solves"] > 0
        assert oracle["cache"]["misses"] == oracle["cache"]["entries"] > 0
        assert "per_shard" not in oracle
        assert "repro_fiedler_solves_total" in render_prometheus(stats["telemetry"])

    def test_oracle_cache_tier_counts_with_telemetry_off(self, monkeypatch):
        from repro.separators import reset_solver_state
        from repro.service.protocol import scenario_from_spec

        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        monkeypatch.setenv("REPRO_ORACLE_CACHE", "1")
        reset_telemetry()
        reset_solver_state()

        async def run():
            service = DecompositionService(shards=0)
            try:
                for spec in self.SPECS:
                    await service.submit(scenario_from_spec(spec))
                return await service.stats_async()
            finally:
                await service.close()

        stats = asyncio.run(run())
        assert "telemetry" not in stats
        assert stats["oracle_cache"]["counters"]["solves"] > 0
        assert stats["oracle_cache"]["cache"]["misses"] > 0

    def test_stats_telemetry_omitted_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        reset_telemetry()

        async def run():
            service = DecompositionService(shards=0)
            task, host, port, _ = await start_server(service)
            client = await ServiceClient.connect(host, port)
            stats = (await client.stats())["stats"]
            await client.shutdown()
            await client.close()
            await asyncio.wait_for(task, 30)
            return stats

        stats = asyncio.run(run())
        assert "telemetry" not in stats

    @staticmethod
    def _shard_call_counts() -> dict:
        """Drive one of every shard call through an inline service and
        return the ``shard_call_seconds`` observation count per op."""
        stream_spec = {"family": "grid", "size": 8, "k": 2,
                       "params": {"trace": "random-churn", "steps": 2, "ops": 2}}

        async def run():
            service = DecompositionService(shards=0)
            try:
                scenario = Scenario(family="grid", size=8, k=2)
                await service.submit(scenario)  # miss: one batch call
                await service.submit(scenario)  # hit: no shard call
                for op, extra in (("open_stream", {"scenario": stream_spec}),
                                  ("mutate", {"steps": 1}), ("snapshot", {}),
                                  ("close_stream", {})):
                    await service.stream_request(op, {"op": op, "session": "a", **extra})
                await service.stream_request("restore_stream", {
                    "op": "restore_stream", "session": "b", "scenario": stream_spec,
                    "ops": [{"steps": 1}]})
                await service.stream_request("close_stream",
                                             {"op": "close_stream", "session": "b"})
            finally:
                await service.close()

        asyncio.run(run())
        counts = {}
        for key, hist in registry().snapshot()["histograms"].items():
            name, labels = split_metric_key(key)
            if name == "shard_call_seconds":
                counts[labels["op"]] = hist["count"]
        return counts

    def test_shard_calls_timed_per_op(self):
        assert self._shard_call_counts() == {
            "batch": 1, "open": 1, "mutate": 1, "snapshot": 1, "close": 2, "restore": 1,
        }

    def test_shard_calls_untimed_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        reset_telemetry()
        assert self._shard_call_counts() == {}

    def test_inline_pool_metrics_not_double_counted(self):
        async def run():
            service = DecompositionService(shards=0)
            task, host, port, _ = await start_server(service)
            client = await ServiceClient.connect(host, port)
            await client.decompose(self.SPECS[0])
            stats = (await client.stats())["stats"]
            await client.shutdown()
            await client.close()
            await asyncio.wait_for(task, 30)
            return stats

        stats = asyncio.run(run())
        # inline mode shares the process registry; the algorithm ran once
        # and must be counted once
        assert stats["telemetry"]["spans"]["scenario.algorithm"]["calls"] == 1


class TestServerLatencyReport:
    def make_stats(self, seconds: list[float]) -> dict:
        reg = registry()
        for s in seconds:
            reg.histogram("request_seconds", op="decompose").observe(s)
        return {"telemetry": reg.snapshot()}

    def test_no_telemetry_returns_none(self):
        assert server_latency_report({}, "decompose") is None
        assert server_latency_report({"telemetry": {"histograms": {}}}, "decompose") is None

    def test_agreement_within_bucket_resolution(self):
        stats = self.make_stats([0.02] * 10)
        report = server_latency_report(stats, "decompose", [0.021] * 10)
        assert report["disagreements"] == []

    def test_flags_disagreement_beyond_resolution(self):
        stats = self.make_stats([0.02] * 10)
        # client claims ~10x the server bracket: beyond one bucket + 1ms
        report = server_latency_report(stats, "decompose", [0.2] * 10)
        quantiles = {d["quantile"] for d in report["disagreements"]}
        assert "p50" in quantiles

    def test_client_faster_needs_matching_populations(self):
        # cumulative server histogram (10 observations) vs a later 2-request
        # client run: client-faster is expected, not a disagreement ...
        stats = self.make_stats([0.2] * 10)
        report = server_latency_report(stats, "decompose", [0.005] * 2)
        assert report["disagreements"] == []
        # ... but with the same population it IS one
        report = server_latency_report(stats, "decompose", [0.005] * 10)
        assert {d["quantile"] for d in report["disagreements"]} >= {"p50"}


class TestSweepSpansBlock:
    def test_timing_tier_carries_spans(self, tmp_path):
        from repro.runtime import read_results, write_results

        results = run_sweep([Scenario(family="grid", size=8, k=2)])
        path = tmp_path / "r.json"
        write_results(path, results, timing=True)
        doc = json.loads(path.read_text())
        sid = results[0].scenario_id
        assert doc["telemetry"][sid]["spans"]["scenario.algorithm"]["calls"] == 1
        back = read_results(path)
        assert back[0].telemetry == doc["telemetry"][sid]

    def test_worker_telemetry_carries_solver_counts_and_spans(self, tmp_path):
        from repro.runtime import read_results, write_results
        from repro.separators import reset_solver_state, solver_stats

        reset_solver_state()  # forked workers must not inherit a warm cache
        scenarios = [Scenario(family="grid", size=16, k=4),
                     Scenario(family="mesh", size=16, k=4)]
        results = run_sweep(scenarios, workers=2)
        for r in results:
            assert solver_stats(r.telemetry)["counters"]["solves"] > 0
            assert r.telemetry["counters"]["oracle_cache_misses"] > 0
            assert r.telemetry["spans"]["scenario.algorithm"]["calls"] == 1
        path = tmp_path / "r.json"
        write_results(path, results, timing=True)
        back = read_results(path)
        assert [b.telemetry for b in back] == [r.telemetry for r in results]

    def test_deterministic_payload_has_no_spans(self, tmp_path):
        from repro.runtime import write_results

        results = run_sweep([Scenario(family="grid", size=8, k=2)])
        path = tmp_path / "r.json"
        write_results(path, results, timing=False)
        doc = json.loads(path.read_text())
        assert "telemetry" not in doc and "timing" not in doc
