"""``repro serve`` with the benchmark's layer timers attached (traced runs).

Builds the same :class:`DecompositionService` the ``serve`` command builds
and wraps a few of its public collaborators with pass-through timers:

* ``batcher.add`` / ``pool.submit_batch`` — queue wait of every decompose
  that misses the coloring cache, the shard round trip of each batch, and
  the time each request waits for its batch's round trip;
* ``pool.submit_session`` — the shard round trip of each session op;
* ``journal.append`` / ``journal.sync_session`` — journal time and bytes.

The timers record into the program's own metrics registry, so the
``stats`` op's telemetry block carries them next to the program's spans
and request histograms.  Usage mirrors ``repro serve``::

    python3 perfbench/traced_serve.py --port 0 --shards 1 --cache-size 48
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from time import perf_counter

from repro.obs import registry
from repro.service import DecompositionService
from repro.service.server import serve


def instrument(service: DecompositionService) -> None:
    reg = registry()
    queued_at: dict[str, float] = {}
    add = service.batcher.add

    def stamped_add(item):
        queued_at[item[0]] = perf_counter()
        add(item)

    service.batcher.add = stamped_add
    submit_batch = service.pool.submit_batch

    async def timed_batch(shard, scenarios):
        t0 = perf_counter()
        for s in scenarios:
            reg.histogram("bench_queue_wait_seconds").observe(
                t0 - queued_at.pop(s.scenario_id(), t0))
        try:
            return await submit_batch(shard, scenarios)
        finally:
            dt = perf_counter() - t0
            reg.histogram("bench_shard_roundtrip_seconds").observe(dt)
            # every request of the batch waits for the whole round trip
            for _ in scenarios:
                reg.histogram("bench_shard_wait_seconds").observe(dt)

    service.pool.submit_batch = timed_batch
    submit_session = service.pool.submit_session

    async def timed_session(shard, payload):
        t0 = perf_counter()
        try:
            return await submit_session(shard, payload)
        finally:
            reg.histogram("bench_session_roundtrip_seconds",
                          op=payload["op"]).observe(perf_counter() - t0)

    service.pool.submit_session = timed_session
    journal = service.journal
    if journal is not None:
        append = journal.append

        def timed_append(session_id, entry):
            path = journal.path_for(session_id)
            size = path.stat().st_size
            t0 = perf_counter()
            try:
                return append(session_id, entry)
            finally:
                reg.histogram("bench_journal_append_seconds").observe(perf_counter() - t0)
                reg.counter("bench_journal_bytes").inc(path.stat().st_size - size)

        journal.append = timed_append
        sync = journal.sync_session

        def timed_sync(session_id):
            t0 = perf_counter()
            try:
                sync(session_id)
            finally:
                reg.histogram("bench_journal_sync_seconds").observe(perf_counter() - t0)

        journal.sync_session = timed_sync


def main() -> int:
    ap = argparse.ArgumentParser(description="repro serve with layer timers")
    ap.add_argument("--port", type=int, default=0)
    ap.add_argument("--shards", type=int, default=1)
    ap.add_argument("--cache-size", type=int, default=1024)
    ap.add_argument("--journal-dir")
    args = ap.parse_args()
    service = DecompositionService(shards=args.shards, cache_size=args.cache_size,
                                   journal_dir=args.journal_dir)
    instrument(service)

    def ready(host, port):
        print(f"serve: listening on {host}:{port}", file=sys.stderr, flush=True)

    asyncio.run(serve(service, port=args.port, ready=ready))
    return 0


if __name__ == "__main__":
    sys.exit(main())
