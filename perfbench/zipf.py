"""``service-zipf``: ``decompose`` requests over two closed-loop
connections, sampled zipf(1.1) over a pool of 150 distinct small cells
(grid/mesh, sides 12-16, k in {2, 4, 8}, zipf weights), against a
coloring cache smaller than the pool.  A median request is a cache hit
(front end and protocol), the tail a miss (batcher, shard IPC, compute).
An untimed warm-up pass precedes the timed window.  Every response body
must be byte-equal to an in-process ``run_scenario(...).record()`` of its
cell, and the window's hit ratio must stay inside ``HIT_RATIO_BAND``.
"""

from __future__ import annotations

import asyncio
import sys
import time

import numpy as np

from common import ratio, self_peak_rss_mb, span_total, windowed
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

POOL_SIZES = (12, 13, 14, 15, 16)
POOL_KS = (2, 4, 8)
POOL_SEEDS = 5
ZIPF_S = 1.1
CACHE_SIZE = 48
WARMUP_REQUESTS = 300
HIT_RATIO_BAND = (0.5, 0.85)


def zipf_pool(seed: int) -> list[dict]:
    return [{"family": fam, "size": size, "k": k, "weights": "zipf",
             "seed": seed * 10 + j}
            for fam in ("grid", "mesh") for size in POOL_SIZES for k in POOL_KS
            for j in range(POOL_SEEDS)]


def zipf_sequence(seed: int, n: int, length: int) -> np.ndarray:
    """Pool indices: zipf(ZIPF_S) over ranks, ranks shuffled by the seed."""
    rng = np.random.default_rng(seed)
    p = np.arange(1, n + 1, dtype=np.float64) ** -ZIPF_S
    by_rank = rng.permutation(n)
    return by_rank[rng.choice(n, size=length, p=p / p.sum())]


async def _zipf_loop(port, pool, sequence, deadline, transport):
    """Closed loop over ``sequence``; returns ``[(pool index, seconds,
    reply, finish time)]``."""
    clients = [await connect(port) for _ in range(CONNECTIONS)]
    cursor = iter(sequence)
    done = []

    async def caller(client):
        for idx in cursor:
            if deadline is not None and time.perf_counter() >= deadline:
                return
            t0 = time.perf_counter()
            reply = await transport.call(client, {"scenario": pool[idx]})
            t1 = time.perf_counter()
            done.append((int(idx), t1 - t0, reply, t1))

    try:
        await asyncio.gather(*(caller(c) for c in clients))
    finally:
        await asyncio.gather(*(c.close() for c in clients))
    return done


def _zipf_window(server, pool, sequence, seconds, transport):
    """Untimed warm-up, then the timed window; stats around the window."""
    warm = asyncio.run(_zipf_loop(server.port, pool, sequence[:WARMUP_REQUESTS],
                                  None, transport))
    before = asyncio.run(stats(server.port))
    start = time.perf_counter()
    done = asyncio.run(_zipf_loop(server.port, pool, sequence[WARMUP_REQUESTS:],
                                  start + seconds, transport))
    after = asyncio.run(stats(server.port))
    return warm, done, start, before, after


def _zipf_check(pool, replies) -> tuple[list[bool], list[str], list[float]]:
    """Compare every reply with an in-process record of its cell.

    Returns a bad/good flag per reply, the problems found, and the
    Theorem-5 bound ratio of each distinct cell answered.
    """
    from repro.runtime import InstanceCache, run_scenario
    from repro.service.protocol import canonical_record, scenario_from_spec

    cache = InstanceCache()
    expected, ratios, bad, problems = {}, [], [], []
    for idx, _, reply, _ in replies:
        if idx not in expected:
            record = run_scenario(scenario_from_spec(pool[idx]), cache=cache).record()
            expected[idx] = canonical_record(record)
            ratios.append(record["metrics"]["bound_ratio_thm5"])
        if not reply.get("ok"):
            problem = reply.get("error")
        elif canonical_record(reply["record"]) != expected[idx]:
            problem = "body differs from run_scenario"
        else:
            problem = None
        bad.append(problem is not None)
        if problem is not None:
            problems.append(f"decompose {pool[idx]}: {problem}")
    return bad, problems, ratios


def _zipf_layers(done, before, after, compiled, transport) -> dict:
    requests, server_s = hist(before, after, "request_seconds{op=decompose}")
    spans, layers = shard_layers(before, after, "scenario.algorithm", requests, compiled)
    _, queue_s = hist(before, after, "bench_queue_wait_seconds")
    _, waited_s = hist(before, after, "bench_shard_wait_seconds")
    _, roundtrip_s = hist(before, after, "bench_shard_roundtrip_seconds")
    phases = {p: span_total(spans, f"scenario.{p}")[1]
              for p in ("instance", "algorithm", "evaluate")}
    compute_s = sum(phases.values())
    batches = delta(before, after, "batcher", "batches")
    client_mean = sum(d[1] for d in done) / len(done)
    layers.update({f"runtime.{p}_s": t / requests for p, t in phases.items()})
    layers.update(service_layers(transport, delta(before, after, "errors")))
    layers.update({
        "service.requests": requests,
        "service.cache_hit_ratio": _hit_ratio(before, after),
        "service.coalesced": delta(before, after, "coalesced"),
        "service.batches": batches,
        "service.batch_size_mean": ratio(delta(before, after, "batcher", "items"), batches),
        # amortized over every decompose, hits included, so that
        # server time = queue wait + shard wait + front end
        "service.queue_wait_s": queue_s / requests,
        "service.shard_roundtrip_s": roundtrip_s / requests,
        "service.shard_compute_s": compute_s / requests,
        "service.ipc_residual_s": (roundtrip_s - compute_s) / requests,
        "service.frontend_self_s": (server_s - queue_s - waited_s) / requests,
        "service.client_server_gap_ms": (client_mean - server_s / requests) * 1e3,
    })
    return layers


def _hit_ratio(before, after) -> float:
    hits = delta(before, after, "cache", "hits")
    return ratio(hits, hits + delta(before, after, "cache", "misses"))


def _zipf_e2e(done, start, seconds) -> dict:
    return windowed([(t1, dt) for _, dt, _, t1 in done], start, seconds, 0.99)


def run(name: str, seed: int, seconds: float, trace: bool, compiled: bool) -> dict:
    pool = zipf_pool(seed)
    sequence = zipf_sequence(seed, len(pool), 500_000)
    args = ["--cache-size", str(CACHE_SIZE)]
    transport = Transport()
    out = {"problems": []}
    # traced: half the time untraced, half traced; the difference is the
    # tracing overhead
    window_s = seconds / 2 if trace else seconds
    results, warm_replies = [], []
    for traced in [False, True] if trace else [False]:
        if trace:
            server = start_server(traced, args)[0]
        else:
            server, out["setup_s"] = measure_setup(args)
        try:
            warm, done, start, before, after = _zipf_window(server, pool, sequence,
                                                            window_s, transport)
            rss = server.peak_rss_mb() + self_peak_rss_mb()
        finally:
            server.stop()
        results.append((done, start, window_s, before, after))
        warm_replies += warm
        hit = _hit_ratio(before, after)
        print(f"benchmark: coloring-cache hit ratio {hit:.3f}", file=sys.stderr)
        if not HIT_RATIO_BAND[0] <= hit <= HIT_RATIO_BAND[1]:
            out["problems"].append(f"regime drift: coloring-cache hit ratio {hit:.3f} "
                                   f"outside {HIT_RATIO_BAND}")
    timed = [r for done, *_ in results for r in done]
    out["attempted"] = len(timed)
    bad, problems, ratios = _zipf_check(pool, warm_replies + timed)
    out["failed"] = sum(bad[len(warm_replies):])
    out["problems"] += problems
    untraced = {**_zipf_e2e(*results[0][:3]),
                "bound_ratio_mean": sum(ratios) / len(ratios), "peak_rss_mb": rss}
    if not trace:
        out["e2e"] = untraced
        return out
    done, start, window_s, before, after = results[1]
    traced = _zipf_e2e(done, start, window_s)
    out["layers"] = {
        **_zipf_layers(done, before, after, compiled, transport),
        "trace.latency_p50_delta_ms": traced["latency_p50_ms"] - untraced["latency_p50_ms"],
        "trace.throughput_delta_per_s": traced["throughput_per_s"] - untraced["throughput_per_s"],
    }
    return out
