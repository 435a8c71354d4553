"""The native module's fallback is observable, never silent.

Whatever keeps :func:`repro.core._bucketc.load_bucket_loop` from returning
the compiled module — the ``REPRO_BUCKET_C=0`` switch, no compiler, a
failed compile, a failed ``dlopen`` — it emits one ``native.unavailable``
event with the reason and sets a ``native_unavailable{reason=...}`` gauge,
which the service's ``stats`` telemetry tier carries.
"""

import asyncio
import io
import json
import subprocess

import pytest

import repro.core._bucketc as B
from repro.obs import events, registry, telemetry_enabled
from repro.service import DecompositionService


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A not-yet-loaded module with an empty artifact cache and a captured
    event log; restores the process's real loader state afterwards."""
    monkeypatch.setattr(B, "_lib", B._UNSET)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.delenv("REPRO_BUCKET_C", raising=False)
    log = io.StringIO()
    events.configure(log)
    try:
        yield log
    finally:
        events.configure(None)


def logged(log) -> list[dict]:
    return [json.loads(line) for line in log.getvalue().splitlines()]


def unavailable_gauge(reason: str):
    return registry().snapshot()["gauges"].get(f"native_unavailable{{reason={reason}}}")


def test_no_compiler_is_reported(fresh_loader, monkeypatch):
    monkeypatch.setattr(B.shutil, "which", lambda name: None)
    assert B.load_bucket_loop() is None
    assert B.load_bucket_loop() is None  # memoized: one event, not two
    (event,) = logged(fresh_loader)
    assert event["event"] == "native.unavailable"
    assert event["reason"] == "no-compiler"
    if telemetry_enabled():
        assert unavailable_gauge("no-compiler") == 1


def test_switch_off_is_reported(fresh_loader, monkeypatch):
    monkeypatch.setenv("REPRO_BUCKET_C", "0")
    assert B.load_bucket_loop() is None
    assert [e["reason"] for e in logged(fresh_loader)] == ["disabled"]


def test_compile_failure_is_reported(fresh_loader, monkeypatch):
    def broken(cc, sofile):
        raise subprocess.CalledProcessError(1, [cc], stderr=b"native.c: error: boom")

    monkeypatch.setattr(B, "_compile", broken)
    monkeypatch.setattr(B.shutil, "which", lambda name: "/usr/bin/cc")
    assert B.load_bucket_loop() is None
    (event,) = logged(fresh_loader)
    assert event["reason"] == "compile-failed"
    assert "boom" in event["detail"]


def test_dlopen_failure_is_reported(fresh_loader, monkeypatch, tmp_path):
    monkeypatch.setattr(B.shutil, "which", lambda name: "/usr/bin/cc")
    tag = B.hashlib.sha256(B._C_SOURCE.encode()).hexdigest()[:16]
    artifact = B._cache_dir() / f"bucketc-{tag}.so"
    artifact.parent.mkdir(parents=True)
    artifact.write_bytes(b"not an ELF object")
    assert B.load_bucket_loop() is None
    assert [e["reason"] for e in logged(fresh_loader)] == ["dlopen-failed"]


def test_stats_telemetry_tier_carries_the_gauge(fresh_loader, monkeypatch):
    if not telemetry_enabled():
        pytest.skip("telemetry is switched off")
    monkeypatch.setattr(B.shutil, "which", lambda name: None)
    B.load_bucket_loop()

    async def stats():
        service = DecompositionService(shards=0)
        try:
            return await service.stats_async()
        finally:
            await service.close()

    gauges = asyncio.run(stats())["telemetry"]["gauges"]
    assert gauges["native_unavailable{reason=no-compiler}"] >= 1


def test_loaded_module_is_reported(fresh_loader):
    lib = B.load_bucket_loop()
    if lib is None:
        pytest.skip("no C compiler on this host")
    assert callable(lib.bfs_levels) and callable(lib.bucket_pass)
    assert logged(fresh_loader) == []
    if telemetry_enabled():
        assert registry().snapshot()["gauges"]["native_loaded"] >= 1
