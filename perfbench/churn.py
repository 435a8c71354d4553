"""``service-churn``: streaming sessions against ``repro serve
--journal-dir``.  Each of two closed-loop connections runs sessions
``open_stream -> STEPS x (mutate 1 step, snapshot) -> close_stream`` over
edge-churn (``random-churn``, ``hotspot``) and vertex-growth (``growth``,
``remesh``) traces on grids of side 16-24 — the only workload that reaches
``repro.stream`` and the journal.  The final snapshots of the first
sessions must equal an in-process ``StreamSession`` replay of the same
trace.
"""

from __future__ import annotations

import asyncio
import pathlib
import shutil
import sys
import tempfile
import time

from common import BUILD, median, ratio, self_peak_rss_mb, span_total, windowed
from service import (
    CONNECTIONS,
    Transport,
    connect,
    delta,
    hist,
    measure_setup,
    service_layers,
    shard_layers,
    start_server,
    stats,
)

TRACES = ("random-churn", "hotspot", "growth", "remesh")
CHURN_SIZES = (16, 20, 24)
STEPS = 8
OPS = 6
CHECK_SESSIONS = 8
#: more sessions than a run can finish; specs are built before timing
MAX_SESSIONS = 400
SCREEN_STRIDE = 7919


def churn_spec(seed: int, index: int) -> dict:
    """Session ``index``: trace families and grid sides in a fixed rotation.

    The remesh generator fails on a few instances ("vertex N is not
    alive"), so its specs are screened and a failing draw is replaced by
    the next one; the replacements are reported on standard error.
    """
    trace = TRACES[index % len(TRACES)]
    spec = {"family": "grid", "size": CHURN_SIZES[(index // len(TRACES)) % len(CHURN_SIZES)],
            "k": 4, "algorithm": "stream", "weights": "zipf", "seed": seed * 1000 + index,
            "params": {"trace": trace, "steps": STEPS, "ops": OPS, "refresh": 4}}
    while trace == "remesh" and not _trace_generates(spec):
        print(f"benchmark: remesh trace fails to generate for {spec}; next draw",
              file=sys.stderr)
        spec["seed"] += SCREEN_STRIDE
    return spec


def _trace_generates(spec: dict) -> bool:
    """Build the session's trace the way ``StreamSession`` seeds it."""
    from repro.runtime.instances import build_instance
    from repro.runtime.scenario import derive_seed
    from repro.service.protocol import scenario_from_spec
    from repro.stream.mutations import GraphState, MutationError
    from repro.stream.traces import make_trace

    scenario = scenario_from_spec(spec)
    kind = spec["params"]["trace"]
    inst = build_instance(scenario)
    seed = derive_seed({"instance": scenario.instance_spec(), "trace": kind,
                        "steps": STEPS, "ops": OPS}, salt="trace")
    try:
        make_trace(kind, GraphState.from_graph(inst.graph, inst.weights), STEPS, OPS, seed)
    except MutationError:
        return False
    return True


class ChurnLog:
    def __init__(self, specs: list[dict]):
        self.specs = specs
        self.mutate: list[tuple[float, float]] = []   # (finish time, seconds)
        self.snapshot: list[float] = []
        self.finals: dict[int, dict] = {}
        self.attempted = 0
        self.problems: list[str] = []
        self.start = 0.0


async def _churn_loop(port, deadline, transport, log: ChurnLog) -> None:
    """Each connection runs whole sessions, taking the next spec, until the
    specs run out or the deadline passed."""
    clients = [await connect(port) for _ in range(CONNECTIONS)]
    indices = iter(range(len(log.specs)))

    async def session(client, index):
        sid = f"bench-{index}"
        spec = log.specs[index]

        async def call(message):
            log.attempted += 1
            t0 = time.perf_counter()
            reply = await transport.call(client, {**message, "session": sid})
            if not reply.get("ok"):
                log.problems.append(f"{message['op']} {sid}: {reply.get('error')}")
                return None, 0.0
            return reply, time.perf_counter() - t0

        if (await call({"op": "open_stream", "scenario": spec}))[0] is None:
            return
        final = None
        for _ in range(STEPS):
            reply, dt = await call({"op": "mutate", "steps": 1})
            if reply is None:
                break
            log.mutate.append((time.perf_counter(), dt))
            reply, dt = await call({"op": "snapshot"})
            if reply is None:
                break
            log.snapshot.append(dt)
            final = reply["snapshot"]
        if (await call({"op": "close_stream"}))[0] is not None and final is not None:
            log.finals[index] = final

    async def caller(client):
        for index in indices:
            if deadline is not None and time.perf_counter() >= deadline:
                return
            await session(client, index)

    try:
        await asyncio.gather(*(caller(c) for c in clients))
    finally:
        await asyncio.gather(*(c.close() for c in clients))


def _churn_window(server, specs, warm_specs, seconds, transport):
    warm = ChurnLog(warm_specs)
    asyncio.run(_churn_loop(server.port, None, transport, warm))
    log = ChurnLog(specs)
    log.problems += warm.problems
    before = asyncio.run(stats(server.port))
    log.start = time.perf_counter()
    asyncio.run(_churn_loop(server.port, log.start + seconds, transport, log))
    after = asyncio.run(stats(server.port))
    return log, before, after


def _churn_check(logs, traced) -> tuple[int, list[str], dict]:
    """Replay the first sessions in process and compare final snapshots.

    In a traced run the replay also times ``GraphState.apply`` and
    ``GraphState.graph`` per step, which the shard does not export.
    """
    from repro.runtime.instances import build_instance
    from repro.service.protocol import canonical_record, scenario_from_spec
    from repro.stream import StreamSession

    timers = {"apply": 0.0, "graph": 0.0, "steps": 0}

    def timed(state, name):
        inner = getattr(state, name)

        def wrapper(*args):
            t0 = time.perf_counter()
            try:
                return inner(*args)
            finally:
                timers[name] += time.perf_counter() - t0

        setattr(state, name, wrapper)

    failed, problems, expected = 0, [], {}
    for log in logs:
        for index in sorted(log.finals)[:CHECK_SESSIONS]:
            if index not in expected:
                scenario = scenario_from_spec(log.specs[index])
                session = StreamSession(build_instance(scenario), scenario)
                if traced:
                    timed(session.state, "apply")
                    timed(session.state, "graph")
                for _ in range(STEPS):
                    session.step()
                timers["steps"] += STEPS
                expected[index] = session.snapshot()
            if canonical_record(log.finals[index]) != canonical_record(expected[index]):
                failed += 1
                problems.append(f"session {index}: final snapshot differs from replay")
    return failed, problems, timers


def _churn_e2e(log, seconds) -> dict:
    finals = log.finals.values()
    return {**windowed(log.mutate, log.start, seconds, 0.90),
            "bound_ratio_mean": sum(f["metrics"]["bound_ratio_thm5"] for f in finals)
            / len(finals)}


def _churn_layers(log, before, after, timers, compiled, transport) -> dict:
    mutates, server_s = hist(before, after, "request_seconds{op=mutate}")
    steps = sum(delta(before, after, "telemetry", "counters", key)
                for key in after["telemetry"]["counters"] if key.startswith("stream_steps{"))
    spans, layers = shard_layers(before, after, "stream.step", steps, compiled)
    step_s = span_total(spans, "stream.step")[1]
    repair_s = span_total(spans, "stream.repair", "stream.step")[1]
    recompute_s = span_total(spans, "stream.recompute", "stream.step")[1]
    _, roundtrip_s = hist(before, after, "bench_session_roundtrip_seconds{op=mutate}")
    _, append_s = hist(before, after, "bench_journal_append_seconds")
    _, sync_s = hist(before, after, "bench_journal_sync_seconds")
    journal_bytes = delta(before, after, "telemetry", "counters", "bench_journal_bytes")
    apply_s = ratio(timers["apply"], timers["steps"])
    graph_s = ratio(timers["graph"], timers["steps"])

    def action(name):
        return delta(before, after, "telemetry", "counters",
                      f"stream_steps{{action={name}}}") / steps

    layers.update(service_layers(transport, sum(
        delta(before, after, "telemetry", "counters", key)
        for key in after["telemetry"]["counters"] if key.startswith("request_errors{"))))
    layers.update({
        "stream.steps": steps,
        "stream.step_s": step_s / steps,
        "stream.apply_s": apply_s,
        "stream.graph_s": graph_s,
        "stream.repair_s": repair_s / steps,
        "stream.recompute_s": recompute_s / steps,
        "stream.step_residual_s": (step_s - repair_s - recompute_s) / steps - apply_s - graph_s,
        "stream.recomputes_drift": action("recompute-drift"),
        "stream.recomputes_refresh": action("recompute-refresh"),
        "stream.recomputes_balance": action("recompute-balance"),
        "stream.journal_append_s": append_s / mutates,
        "stream.journal_sync_s": sync_s / mutates,
        "stream.journal_bytes": journal_bytes / mutates,
        "stream.mutate_residual_s": (server_s - step_s - append_s - sync_s) / mutates,
        "stream.snapshot_p50_ms": median(log.snapshot) * 1e3,
        "service.requests": mutates,
        "service.shard_roundtrip_s": roundtrip_s / mutates,
        "service.shard_compute_s": step_s / mutates,
        "service.ipc_residual_s": (roundtrip_s - step_s) / mutates,
        "service.frontend_self_s": (server_s - roundtrip_s - append_s - sync_s) / mutates,
        "service.client_server_gap_ms":
            (sum(dt for _, dt in log.mutate) - server_s) / mutates * 1e3,
    })
    return layers


def run(name: str, seed: int, seconds: float, trace: bool, compiled: bool) -> dict:
    specs = [churn_spec(seed, i) for i in range(MAX_SESSIONS)]
    warm_specs = [churn_spec(seed, MAX_SESSIONS + i) for i in range(len(TRACES))]
    window_s = seconds / 2 if trace else seconds
    transport = Transport()
    out = {"problems": []}
    logs, windows = [], []
    journal_root = pathlib.Path(tempfile.mkdtemp(prefix="journals-", dir=BUILD / "tmp"))
    try:
        for n, traced in enumerate([False, True] if trace else [False]):
            args = ["--journal-dir", str(journal_root / str(n))]
            if trace:
                server = start_server(traced, args)[0]
            else:
                server, out["setup_s"] = measure_setup(args)
            try:
                log, before, after = _churn_window(server, specs, warm_specs, window_s,
                                                   transport)
                rss = server.peak_rss_mb() + self_peak_rss_mb()
            finally:
                server.stop()
            logs.append(log)
            windows.append((before, after))
    finally:
        shutil.rmtree(journal_root, ignore_errors=True)
    failed, problems, timers = _churn_check(logs, trace)
    out["attempted"] = sum(log.attempted for log in logs)
    out["failed"] = failed + sum(len(log.problems) for log in logs)
    out["problems"] = [p for log in logs for p in log.problems] + problems
    untraced = {**_churn_e2e(logs[0], window_s), "peak_rss_mb": rss}
    if not trace:
        out["e2e"] = untraced
        return out
    traced = _churn_e2e(logs[1], window_s)
    out["layers"] = {
        **_churn_layers(logs[1], *windows[1], timers, compiled, transport),
        "trace.latency_p50_delta_ms": traced["latency_p50_ms"] - untraced["latency_p50_ms"],
        "trace.throughput_delta_per_s": traced["throughput_per_s"] - untraced["throughput_per_s"],
    }
    return out
