"""Shared harness for the service workloads: ``repro serve`` as a
subprocess with one shard, loaded by this process over closed-loop
connections (each caller sends its next request only after the previous
reply arrived), and the ``stats`` op read around the timed window.

Set-up (``setup_s``) is the median over several cold starts of the time
from launching the server to its first answered ``decompose`` (which
spawns and warms the shard).  The last started server is the measured one.
"""

from __future__ import annotations

import asyncio
import os
import pathlib
import subprocess
import sys
import threading
import time

from common import ROOT, median, pipeline_layers, process_tree_peak_rss_mb, spans_diff

HERE = pathlib.Path(__file__).resolve().parent
CONNECTIONS = 2
SETUP_REPEATS = 3
READY_CELL = {"family": "grid", "size": 6, "k": 2}


class Server:
    """One ``repro serve`` (or traced launcher) subprocess on an ephemeral port."""

    def __init__(self, traced: bool, args: list[str]):
        if traced:
            cmd = [sys.executable, str(HERE / "traced_serve.py")]
        else:
            cmd = [sys.executable, "-m", "repro", "serve"]
        cmd += ["--port", "0", "--shards", "1", *args]
        env = dict(os.environ, REPRO_TELEMETRY="1" if traced else "0")
        self.proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env, text=True,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        self.port = None
        self.log: list[str] = []
        ready = threading.Event()

        def drain():
            for line in self.proc.stderr:
                self.log.append(line)
                if self.port is None and line.startswith("serve: listening on "):
                    self.port = int(line.split()[3].rsplit(":", 1)[1])
                    ready.set()
            ready.set()

        self._reader = threading.Thread(target=drain, daemon=True)
        self._reader.start()
        if not ready.wait(120) or self.port is None:
            self.kill()
            raise RuntimeError("server did not start:\n" + "".join(self.log[-20:]))

    def peak_rss_mb(self) -> float:
        return process_tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        async def shutdown():
            client = await connect(self.port)
            try:
                await client.shutdown()
            finally:
                await client.close()

        try:
            asyncio.run(shutdown())
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            pass
        self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=5)


async def connect(port: int):
    from repro.service.loadgen import ServiceClient

    return await ServiceClient.connect("127.0.0.1", port, connect_timeout=30,
                                       request_timeout=120)


class Transport:
    """Reconnect-once-and-retry on transport failures, counted."""

    def __init__(self):
        self.retried = 0
        self.failed = 0

    async def call(self, client, message: dict) -> dict:
        try:
            return await client.call(message)
        except (OSError, asyncio.TimeoutError):
            self.retried += 1
        try:
            await client.reconnect()
            return await client.call(message)
        except (OSError, asyncio.TimeoutError) as exc:
            self.failed += 1
            return {"ok": False, "error": f"transport: {type(exc).__name__}"}


def start_server(traced: bool, args: list[str]) -> tuple[Server, float]:
    """Launch a server and wait for its first answered decompose."""
    t0 = time.perf_counter()
    server = Server(traced, args)

    async def first():
        client = await connect(server.port)
        try:
            return await client.decompose(READY_CELL)
        finally:
            await client.close()

    try:
        reply = asyncio.run(first())
    except (OSError, asyncio.TimeoutError):
        server.kill()
        raise
    if not reply.get("ok"):
        server.stop()
        raise RuntimeError(f"server cannot decompose: {reply.get('error')}")
    return server, time.perf_counter() - t0


def measure_setup(args: list[str]) -> tuple[Server, float]:
    samples = []
    for i in range(SETUP_REPEATS):
        server, dt = start_server(False, args)
        samples.append(dt)
        if i < SETUP_REPEATS - 1:
            server.stop()
    return server, median(samples)


async def stats(port: int) -> dict:
    client = await connect(port)
    try:
        return (await client.stats())["stats"]
    finally:
        await client.close()


def delta(before: dict, after: dict, *path) -> float:
    for key in path:
        before, after = before.get(key, {}), after.get(key, {})
    return (after or 0) - (before or 0)


def hist(before: dict, after: dict, key: str) -> tuple[int, float]:
    """Count and sum a telemetry histogram gained between two stats docs."""
    b = before["telemetry"]["histograms"].get(key, {"count": 0, "sum": 0.0})
    a = after["telemetry"]["histograms"].get(key, {"count": 0, "sum": 0.0})
    return a["count"] - b["count"], a["sum"] - b["sum"]


def shard_layers(before: dict, after: dict, root: str, ops: int, compiled: bool):
    """Span rollups gained in the shard, plus the pipeline figures."""
    spans = spans_diff(before["telemetry"]["spans"], after["telemetry"]["spans"])
    solver = {k: delta(before, after, "oracle_cache", "counters", k)
              for k in after["oracle_cache"]["counters"]}
    hits = delta(before, after, "oracle_cache", "cache", "hits")
    misses = delta(before, after, "oracle_cache", "cache", "misses")
    return spans, pipeline_layers(spans, root, ops, solver, hits, misses, compiled)


def service_layers(transport, errors: float) -> dict:
    return {"service.errors": errors,
            "service.transport_retried": transport.retried,
            "service.transport_failed": transport.failed}
