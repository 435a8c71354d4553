"""Persistent worker shards for the decomposition service.

A :class:`ShardPool` owns N single-process ``ProcessPoolExecutor`` shards
that live for the whole service lifetime.  Requests are routed by
**instance hash** (:meth:`Scenario.instance_hash` — the same content hash
the sweep engine caches instances under), so every scenario built from the
same graph+weights lands on the same shard and hits that process's warm
:class:`~repro.runtime.InstanceCache` instead of regenerating the instance.

Routing never affects results: each record is a pure function of its
scenario (see :mod:`repro.runtime.engine`), so any shard count — including
the inline ``shards=0`` debug mode — produces byte-identical records.

Telemetry leaves a shard one way: :func:`shard_metrics` ships the worker's
whole registry snapshot — span rollups, eigensolver and solve-cache
counts — and the front-end merges them (:meth:`ShardPool.metrics_snapshots`).
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from time import perf_counter

from ..obs import events, registry, telemetry_enabled
from ..runtime import InstanceCache, Scenario
from ..runtime.engine import run_scenario, worker_init, worker_run_record

__all__ = ["ShardPool", "shard_run", "shard_metrics"]

#: distinguishes pools within one process — the inline (``shards=0``) mode
#: shares the worker-side session registry with every other inline pool in
#: the process, so session keys must be namespaced per pool
_POOL_SEQ = itertools.count()


def shard_run(scenarios: list[Scenario], run=None) -> list[dict]:
    """Executed inside a shard process: run a batch, wrapping failures.

    Errors are captured *per scenario* so one failing request (say, a dead
    npz path) reports back alone instead of taking its batch-mates down.
    ``run`` defaults to the per-process worker; the inline shard mode passes
    its own so the outcome shape has exactly one definition.
    """
    run = worker_run_record if run is None else run
    out = []
    for scenario in scenarios:
        try:
            out.append({"ok": True, "record": run(scenario)})
        except Exception as exc:  # noqa: BLE001 — the wire carries the reason
            out.append({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
    return out


def shard_metrics() -> dict:
    """Executed inside a shard process: its telemetry registry snapshot.

    The snapshot is a plain picklable dict that merges by addition
    (:func:`repro.obs.merge_snapshots`), so the front-end sums every
    worker's view with its own.  The worker's solve cache keeps its
    accounting there too, so the ``stats`` op's oracle-cache tier is read
    from the same merged snapshot.
    """
    return registry().snapshot()


@contextmanager
def _timed_call(op: str):
    """Time one shard call into ``shard_call_seconds{op=...}``.

    The front-end's side of a shard round trip — executor queueing, pickling
    both ways, the worker's compute and any respawn retry — so ``/metrics``
    can set it against the worker's own spans without outside wrappers.
    """
    t0 = perf_counter()
    try:
        yield
    finally:
        if telemetry_enabled():
            registry().histogram("shard_call_seconds", op=op).observe(perf_counter() - t0)


class ShardPool:
    """N persistent worker shards plus content-hash routing.

    ``shards >= 1`` spawns that many single-worker process pools.
    ``shards == 0`` runs batches on one worker *thread* with a local
    instance cache — no subprocesses, same records; the debuggable mode
    unit tests and tiny deployments use.  ``instance_cache_entries``
    bounds each worker's in-memory instance cache (LRU) so a long-lived
    service cannot grow a shard without limit.
    """

    def __init__(self, shards: int = 2, cache_dir=None, instance_cache_entries: int = 512):
        if shards < 0:
            raise ValueError("shards must be >= 0")
        self.shards = int(shards)
        self.cache_dir = cache_dir
        self.instance_cache_entries = instance_cache_entries
        self.batches = 0
        self.requests = 0
        self.respawns = 0
        self.session_ops = 0
        self._session_ns = f"{os.getpid()}.{next(_POOL_SEQ)}"
        if self.shards == 0:
            self._executors = [ThreadPoolExecutor(max_workers=1)]
            cache = InstanceCache(directory=cache_dir, max_entries=instance_cache_entries)

            def _inline_run(scenarios: list[Scenario]) -> list[dict]:
                return shard_run(
                    scenarios, run=lambda s: run_scenario(s, cache=cache).record()
                )

            self._run = _inline_run
        else:
            self._executors = [self._spawn_executor() for _ in range(self.shards)]
            self._run = shard_run

    def _spawn_executor(self) -> ProcessPoolExecutor:
        # spawn, never fork: a forked worker inherits duplicates of every
        # open client socket, so a departing client's FIN is never delivered
        # (the worker's dup keeps the kernel refcount up) and the server
        # burns its whole shutdown grace period on connections that already
        # closed — and forking a threaded asyncio server is unsound anyway
        return ProcessPoolExecutor(
            max_workers=1,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=worker_init,
            initargs=(self.cache_dir, self.instance_cache_entries),
        )

    @property
    def nshards(self) -> int:
        return len(self._executors)

    def shard_for(self, scenario: Scenario) -> int:
        """Stable instance-hash routing: same instance -> same shard."""
        return int(scenario.instance_hash(), 16) % self.nshards

    def worker_pids(self, shard: int) -> list[int]:
        """Pids of ``shard``'s live worker processes (empty for inline mode).

        A test/chaos hook: the fault-injection harness kills these out from
        under the pool to exercise the respawn and recovery paths.
        """
        processes = getattr(self._executors[shard], "_processes", None)
        return sorted(processes) if processes else []

    async def submit_session(self, shard: int, payload: dict) -> dict:
        """Run one streaming-session operation on ``shard``.

        Session state lives only in the worker, so a dead worker cannot be
        retried blindly like a stateless batch: the executor is respawned
        (future work gets a healthy shard) and the caller gets a
        session-lost outcome.  The *server* owns what happens next — with a
        journal it replays the session's mutation log into the fresh worker
        (``op="restore"``) and retries; without one the loss is surfaced to
        the client.  The pool stays policy-free.
        """
        from .sessions import session_call

        self.session_ops += 1
        loop = asyncio.get_running_loop()
        executor = self._executors[shard]
        payload = {**payload, "session": f"{self._session_ns}:{payload['session']}"}
        with _timed_call(payload["op"]):
            try:
                return await loop.run_in_executor(executor, session_call, payload)
            except BrokenProcessPool:
                self._respawn(shard, executor)
                return {
                    "ok": False,
                    "session_lost": True,
                    "error": "session lost: worker process died",
                }

    async def submit_batch(self, shard: int, scenarios: list[Scenario]) -> list[dict]:
        """Run one batch on ``shard``; returns per-scenario ok/error dicts.

        A shard whose worker process died (OOM kill, segfault in native
        code) is respawned and the batch retried once, so a single crash
        never takes 1/N of the keyspace down for the rest of the service's
        life.  A second consecutive break propagates to the caller.
        """
        self.batches += 1
        self.requests += len(scenarios)
        loop = asyncio.get_running_loop()
        executor = self._executors[shard]
        with _timed_call("batch"):
            try:
                return await loop.run_in_executor(executor, self._run, list(scenarios))
            except BrokenProcessPool:
                self._respawn(shard, executor)
                return await loop.run_in_executor(
                    self._executors[shard], self._run, list(scenarios)
                )

    def _respawn(self, shard: int, broken) -> None:
        # concurrent batches can observe the same crash; only the first one
        # replaces the executor — tearing down whatever currently occupies
        # the slot would cancel a sibling's already-running retry
        if self._executors[shard] is not broken:
            return
        self.respawns += 1
        events.emit("shard.respawn", shard=shard, respawns=self.respawns)
        try:
            broken.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass  # the pool is already broken; releasing it is best-effort
        self._executors[shard] = self._spawn_executor()

    async def metrics_snapshots(self) -> list[dict]:
        """Per-shard telemetry snapshots, ready for ``merge_snapshots``.

        Inline (``shards=0``) pools share this process's registry with the
        front-end, so they contribute nothing here — the caller's own
        snapshot already covers them (returning it again would double
        count).  A shard that cannot answer (worker mid-respawn) is
        skipped rather than failing the scrape.
        """
        if self.shards == 0:
            return []
        loop = asyncio.get_running_loop()
        results = await asyncio.gather(
            *(loop.run_in_executor(ex, shard_metrics) for ex in self._executors),
            return_exceptions=True,
        )
        return [r for r in results if isinstance(r, dict)]

    def stats(self) -> dict:
        return {
            "shards": self.shards,
            "batches": self.batches,
            "requests": self.requests,
            "respawns": self.respawns,
            "session_ops": self.session_ops,
        }

    def close(self) -> None:
        # wait=True: callers drain in-flight batches first, so the join is
        # immediate — and skipping it races the executor's management thread
        # against interpreter teardown (noisy "Bad file descriptor" atexit)
        for executor in self._executors:
            executor.shutdown(wait=True, cancel_futures=True)
        # inline pools share this process's session registry: free our
        # namespace (process shards take their registries down with them)
        from .sessions import drop_namespace

        drop_namespace(self._session_ns)
