"""Fault-injection harness for crash-safe streaming sessions.

The controllable shard-killer behind ``tests/test_recovery.py`` and the CI
chaos-smoke job.  A *fault plan* is a JSON file naming crash points compiled
into the worker paths (see :func:`repro.service.sessions.maybe_fault`):

* ``mutate:before`` — op received, state untouched (unacked, unjournaled);
* ``mutate:after``  — state mutated, reply never sent (unacked: the journal
  must *not* contain the op, and retry-after-replay must apply it once);
* ``mutate:grow``   — like ``mutate:after`` but only after a batch that
  changed the vertex set (mid-``add_vertex``/``remove_vertex``): the crash
  the dynamic-vertex-set journal replay must survive;
* ``snapshot``      — between a journaled mutate and its snapshot;
* ``restore``       — during journal replay itself (recovery of recovery);
* ``open``          — session built but never acknowledged.

Each spec matches a point, optionally a session id and the state version at
the call site, and fires **once** across all worker processes via an
``O_EXCL`` marker file; the process that armed the plan never fires (the
inline ``shards=0`` worker is a thread in the server process).  Arming is an
environment variable (``REPRO_FAULT_PLAN``), inherited by shard workers at
spawn — including the respawned ones, which is what lets a plan kill a
recovery attempt too.

Run as a script, this is the chaos job: replay the streaming smoke grid
through churn sessions against an uninterrupted ``--shards 1`` server, then
against a journaled ``--shards 4`` server with one shard killed mid-run at
each chosen crash point, and require the recovered snapshot bodies to be
byte-identical to the uninterrupted run::

    PYTHONPATH=src python tests/faultinject.py --shards 4 --steps 5
    PYTHONPATH=src python tests/faultinject.py --steps 8 \
        --kill-point mutate:before --kill-point mutate:after \
        --kill-point snapshot --kill-point restore      # the nightly sweep

``--hosts N`` switches to the ring chaos job: N real ``repro serve``
subprocesses behind a :class:`~repro.service.RingRouter`, one **whole
host** SIGKILLed mid-churn.  The gates are the ring's zero-loss contract:
no errors, no ``session lost``, at least one journal handoff, churn
snapshot bodies byte-identical to an uninterrupted single-host run, and
stateless decompose bodies identical across ring sizes 1 and N::

    PYTHONPATH=src python tests/faultinject.py --hosts 3 --steps 5
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import threading

from repro.service import (
    DecompositionService,
    RingRouter,
    ServiceClient,
    route_serve,
    run_churn,
    run_loadgen,
    serve,
)
from repro.service.sessions import FAULT_PLAN_ENV, reset_fault_plan

__all__ = [
    "arm_faults",
    "fired_count",
    "kill_shard_workers",
    "run_churn_service",
    "spawn_serve_host",
    "stream_specs",
]

#: crash points the chaos script exercises; ``open`` exists too but is
#: test-only (an unacknowledged open is never journaled, so it is reported
#: lost rather than recovered — the client simply retries the open)
KILL_POINTS = ("mutate:before", "mutate:after", "mutate:grow", "snapshot",
               "restore")


@contextlib.contextmanager
def arm_faults(directory, faults: list[dict]):
    """Write a fault plan and export ``REPRO_FAULT_PLAN`` while active.

    ``faults`` is a list of ``{"point", "session"?, "version"?}`` specs;
    each gets a unique once-only marker file under ``directory``.  Yields
    the armed spec list (markers resolved) so callers can assert with
    :func:`fired_count` that the kills actually happened — a chaos test
    that never crashed anything proves nothing.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    armed = [
        {
            **spec,
            "marker": str(directory / f"fault-{index}.fired"),
            "armed_pid": os.getpid(),
        }
        for index, spec in enumerate(faults)
    ]
    plan_path = directory / "fault_plan.json"
    plan_path.write_text(json.dumps({"faults": armed}, indent=2))
    previous = os.environ.get(FAULT_PLAN_ENV)
    os.environ[FAULT_PLAN_ENV] = str(plan_path)
    reset_fault_plan()  # this process may have cached "no plan"
    try:
        yield armed
    finally:
        if previous is None:
            os.environ.pop(FAULT_PLAN_ENV, None)
        else:
            os.environ[FAULT_PLAN_ENV] = previous
        reset_fault_plan()


def fired_count(armed: list[dict]) -> int:
    """How many armed faults actually killed a worker (marker exists)."""
    return sum(1 for spec in armed if os.path.exists(spec["marker"]))


def kill_shard_workers(service: DecompositionService, shard: int) -> list[int]:
    """SIGKILL every worker process of one shard (asynchronous crash).

    The direct-kill alternative to a planned fault: used for crashes that
    do not align with a worker code path, e.g. "during journal append"
    (which runs on the server's event loop, not in the worker).
    """
    pids = service.pool.worker_pids(shard)
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
    return pids


def stream_specs(steps: int, presets: tuple[str, ...] = ("stream", "growth")) -> list[dict]:
    """The streaming smoke grids as churn-session specs (one per trace kind),
    with every trace budget stretched to serve ``steps`` mutates.

    ``presets`` defaults to both the edge-churn grid and the dynamic-vertex
    grid, so every chaos/ring run covers sessions whose vertex set grows
    mid-run.  Session ids follow list order: the ``stream`` cells are
    ``churn-0``..``churn-3`` and the ``growth`` cells ``churn-4``..``churn-6``.
    """
    from repro.cli import SWEEP_PRESETS
    from repro.runtime import ScenarioGrid

    specs = []
    for preset in presets:
        for scenario in ScenarioGrid(**SWEEP_PRESETS[preset]).scenarios():
            params = dict(scenario.param_dict)
            params["steps"] = max(int(params.get("steps", 0)), int(steps))
            specs.append(scenario.with_(params=params).spec())
    return specs


async def _serve_churn(specs, steps, *, shards, journal_dir, recovery, connections):
    service = DecompositionService(
        shards=shards, journal_dir=journal_dir, recovery=recovery,
    )
    ready = asyncio.Event()
    bound = {}

    def _ready(host, port):
        bound.update(host=host, port=port)
        ready.set()

    server_task = asyncio.create_task(serve(service, port=0, ready=_ready))
    await asyncio.wait_for(ready.wait(), 30)
    finished = False
    try:
        out = await run_churn(
            bound["host"], bound["port"], specs,
            steps=steps, connections=connections, shutdown=True,
        )
        finished = True  # the shutdown op was sent: let serve() drain itself
        return out
    finally:
        if not finished:
            server_task.cancel()
        with contextlib.suppress(asyncio.CancelledError, asyncio.TimeoutError):
            await asyncio.wait_for(server_task, 30)


def run_churn_service(specs, steps, *, shards, journal_dir=None, recovery=True,
                      connections=2) -> dict:
    """Start a service, replay churn sessions through it, and shut it down.

    Returns ``run_churn``'s ``{"report", "bodies"}``.  With a fault plan
    armed (see :func:`arm_faults`) the shard workers inherit it and crash at
    the planned points; ``journal_dir``/``recovery`` control whether the
    server can replay them back.
    """
    return asyncio.run(
        _serve_churn(specs, steps, shards=shards, journal_dir=journal_dir,
                     recovery=recovery, connections=connections)
    )


# ----------------------------------------------------------------------
# chaos script (the CI chaos-smoke / nightly-chaos entry point)


def _chaos_faults(point: str, kill_session: str, kill_version: int) -> list[dict]:
    """The fault list for one chaos run at ``point``.

    ``restore`` only executes during a recovery, so it is armed *with* a
    primary crash (between mutate and snapshot) that triggers one.
    """
    if point == "restore":
        return [
            {"point": "snapshot", "session": kill_session, "version": kill_version},
            {"point": "restore", "session": kill_session},
        ]
    return [{"point": point, "session": kill_session, "version": kill_version}]


def run_chaos(points, *, shards: int, steps: int, kill_session: str,
              kill_version: int, connections: int) -> dict:
    """Baseline + one killed-shard churn run per crash point.

    The verdict per point: every armed fault fired, no request failed, at
    least one session was recovered by replay, and the snapshot bodies are
    byte-identical to the uninterrupted single-shard baseline.
    """
    specs = stream_specs(steps)
    print(f"chaos: baseline churn, {len(specs)} session(s) x {steps} step(s), "
          f"shards=1 (uninterrupted)", file=sys.stderr)
    baseline = run_churn_service(specs, steps, shards=1, connections=connections)
    if baseline["report"]["errors"] or baseline["report"]["lost_sessions"]:
        raise SystemExit(f"chaos: baseline run failed: {baseline['report']['errors']} "
                         f"{baseline['report']['lost_sessions']}")
    results = {}
    ok = True
    for point in points:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
            scratch = pathlib.Path(scratch)
            faults = _chaos_faults(point, kill_session, kill_version)
            print(f"chaos: killing 1 of {shards} shard(s) at {point!r} "
                  f"(session {kill_session}, version {kill_version}), "
                  f"journaled recovery on", file=sys.stderr)
            with arm_faults(scratch / "plan", faults) as armed:
                out = run_churn_service(
                    specs, steps, shards=shards,
                    journal_dir=scratch / "journals", connections=connections,
                )
                fired = fired_count(armed)
            report = out["report"]
            identical = out["bodies"] == baseline["bodies"]
            verdict = {
                "point": point,
                "faults_armed": len(armed),
                "faults_fired": fired,
                "errors": len(report["errors"]),
                "lost_sessions": len(report["lost_sessions"]),
                "recovered_sessions": report["recovered_sessions"],
                "bodies_identical_to_baseline": identical,
            }
            verdict["ok"] = (
                fired == len(armed)
                and not report["errors"]
                and not report["lost_sessions"]
                and report["recovered_sessions"] >= 1
                and identical
            )
            results[point] = verdict
            ok = ok and verdict["ok"]
            print(f"chaos: {point!r}: fired {fired}/{len(armed)}, "
                  f"recovered {report['recovered_sessions']}, "
                  f"errors {len(report['errors'])}, "
                  f"lost {len(report['lost_sessions'])}, "
                  f"byte-identical={identical} -> "
                  f"{'ok' if verdict['ok'] else 'FAIL'}", file=sys.stderr)
    return {
        "ok": ok,
        "shards": shards,
        "steps": steps,
        "sessions": len(specs),
        "kill_session": kill_session,
        "kill_version": kill_version,
        "points": results,
    }


# ----------------------------------------------------------------------
# multi-host ring chaos (whole-host kills behind the router)

#: a small stateless grid for the ring-size byte-identity gate
RING_DECOMPOSE_SPECS = [
    {"family": "grid", "size": 10, "k": 2},
    {"family": "grid", "size": 10, "k": 4},
    {"family": "mesh", "size": 10, "k": 2, "weights": "zipf"},
    {"family": "grid", "size": 10, "k": 2, "algorithm": "greedy"},
    {"family": "torus", "size": 10, "k": 4, "weights": "zipf"},
]


def spawn_serve_host(journal_dir, *, shards: int = 0):
    """Spawn one real ``repro serve`` host subprocess on an ephemeral port.

    Returns ``(proc, endpoint)`` once the host prints its bound address.
    ``shards=0`` keeps each host single-process (the chaos subject is the
    *host*, killed whole — no orphaned worker processes to leak when it is
    SIGKILLed).
    """
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--shards", str(shards), "--journal-dir", str(journal_dir)],
        stderr=subprocess.PIPE, text=True, env=env,
    )
    endpoint = None
    for line in proc.stderr:
        if "listening on " in line:
            endpoint = line.split("listening on ", 1)[1].split()[0]
            break
    if endpoint is None:
        proc.kill()
        proc.wait()
        raise RuntimeError("serve host exited before binding a port")
    # keep draining stderr so the host can never block on a full pipe
    threading.Thread(target=proc.stderr.read, daemon=True).start()
    return proc, endpoint


async def _route_run(endpoints, journal_dirs, run_fn, *, retries=1, kill=None):
    """Serve a RingRouter over ``endpoints`` and drive ``run_fn`` at it.

    ``run_fn(host, port)`` must finish with a ``shutdown`` op (the loadgen
    ``shutdown=True`` path) — that stops ``route_serve``; the router never
    propagates it, so the backend hosts survive for the next phase.
    """
    router = RingRouter(
        endpoints, journal_dirs=journal_dirs, retries=retries,
        backoff_base_s=0.02, propagate_shutdown=False,
    )
    ready = asyncio.Event()
    bound = {}

    def _ready(host, port):
        bound.update(host=host, port=port)
        ready.set()

    task = asyncio.create_task(route_serve(router, port=0, ready=_ready))
    await asyncio.wait_for(ready.wait(), 30)
    killer = asyncio.create_task(kill(router)) if kill is not None else None
    try:
        out = await run_fn(bound["host"], bound["port"])
    finally:
        if killer is not None and not killer.done():
            killer.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await killer
    await asyncio.wait_for(task, 60)
    return router, out


async def _shutdown_host(endpoint: str) -> None:
    host, _, port = endpoint.rpartition(":")
    with contextlib.suppress(OSError, asyncio.TimeoutError):
        client = await ServiceClient.connect(
            host, int(port), connect_timeout=5.0, request_timeout=5.0)
        try:
            await client.shutdown()
        finally:
            await client.close()


def run_host_chaos(*, hosts: int, steps: int, connections: int,
                   kill_session: str = "churn-0") -> dict:
    """Kill one whole serve host mid-churn behind the ring router.

    Two phases against the same host fleet: (1) stateless decompose through
    a ring of all N hosts and a ring of 1 — the bodies must be identical
    (placement is invisible in results); (2) churn with the owner of
    ``kill_session`` SIGKILLed at roughly a quarter of the op budget — the
    router must hand its sessions off by journal replay with zero loss and
    bodies byte-identical to an uninterrupted single-host baseline.
    """
    specs = stream_specs(steps)
    print(f"ring-chaos: baseline churn, {len(specs)} session(s) x {steps} "
          f"step(s), single host (uninterrupted)", file=sys.stderr)
    baseline = run_churn_service(specs, steps, shards=0, connections=connections)
    if baseline["report"]["errors"] or baseline["report"]["lost_sessions"]:
        raise SystemExit(
            f"ring-chaos: baseline run failed: {baseline['report']['errors']} "
            f"{baseline['report']['lost_sessions']}")
    with tempfile.TemporaryDirectory(prefix="repro-ring-chaos-") as scratch:
        scratch = pathlib.Path(scratch)
        procs, endpoints, journal_dirs = [], [], {}
        try:
            for index in range(hosts):
                journal_dir = scratch / f"host{index}-journals"
                proc, endpoint = spawn_serve_host(journal_dir)
                procs.append(proc)
                endpoints.append(endpoint)
                journal_dirs[endpoint] = journal_dir
            print(f"ring-chaos: {hosts} host(s) up: {', '.join(endpoints)}",
                  file=sys.stderr)

            # phase 1: ring-size byte-identity for stateless requests
            async def decompose(host, port):
                return await run_loadgen(host, port, RING_DECOMPOSE_SPECS,
                                         connections=2, passes=1, shutdown=True)

            _, ring_n = asyncio.run(
                _route_run(endpoints, journal_dirs, decompose))
            _, ring_1 = asyncio.run(
                _route_run(endpoints[:1], journal_dirs, decompose))
            ring_invariant = ring_n["bodies"] == ring_1["bodies"] \
                and not ring_n["report"]["errors"] \
                and not ring_1["report"]["errors"]
            print(f"ring-chaos: decompose ring={hosts} vs ring=1 "
                  f"byte-identical={ring_invariant}", file=sys.stderr)

            # phase 2: churn with the owner of kill_session SIGKILLed
            victim_box: dict = {}

            async def kill(router):
                # target the session's *recorded* owner (not recomputed ring
                # math — they can diverge if a host was transiently marked
                # down), and trigger on that session's own progress so the
                # kill always lands mid-session, with journaled ops to
                # replay and ops still to come
                while True:
                    entry = router._sessions.get(kill_session)
                    if entry is not None and entry["mutates_acked"] >= 1:
                        break
                    await asyncio.sleep(0.001)
                # no await between reading the entry and the kill: the
                # session cannot move or close in between
                victim = entry["endpoint"]
                proc = procs[endpoints.index(victim)]
                proc.kill()
                victim_box["endpoint"] = victim
                victim_box["acked_at_kill"] = entry["mutates_acked"]
                victim_box["returncode"] = proc.wait()
                print(f"ring-chaos: killed host {victim} after "
                      f"{entry['mutates_acked']} acked mutate(s) on "
                      f"{kill_session}", file=sys.stderr)

            async def churn(host, port):
                return await run_churn(host, port, specs, steps=steps,
                                       connections=connections, shutdown=True)

            router, out = asyncio.run(
                _route_run(endpoints, journal_dirs, churn, kill=kill))
        finally:
            for proc, endpoint in zip(procs, endpoints):
                if proc.poll() is None:
                    asyncio.run(_shutdown_host(endpoint))
                try:
                    proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
    report = out["report"]
    identical = out["bodies"] == baseline["bodies"]
    verdict = {
        "hosts": hosts,
        "steps": steps,
        "sessions": len(specs),
        "kill_session": kill_session,
        "victim": victim_box.get("endpoint"),
        "victim_killed": victim_box.get("returncode") is not None,
        "acked_mutates_at_kill": victim_box.get("acked_at_kill"),
        "hosts_down_after": sorted(router.down),
        "errors": len(report["errors"]),
        "lost_sessions": len(report["lost_sessions"]),
        "handoffs": router.handoffs,
        "transport": report["transport"],
        "bodies_identical_to_baseline": identical,
        "decompose_ring_invariant": ring_invariant,
    }
    verdict["ok"] = (
        verdict["victim_killed"]
        and not report["errors"]
        and not report["lost_sessions"]
        and router.handoffs >= 1
        and identical
        and ring_invariant
    )
    print(f"ring-chaos: victim_killed={verdict['victim_killed']}, "
          f"handoffs={router.handoffs}, errors={verdict['errors']}, "
          f"lost={verdict['lost_sessions']}, byte-identical={identical} -> "
          f"{'ok' if verdict['ok'] else 'FAIL'}", file=sys.stderr)
    return verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="chaos harness: kill shard workers mid-churn and require "
        "journal-replay recovery to reproduce the uninterrupted snapshots "
        "byte-for-byte")
    parser.add_argument("--shards", type=int, default=4,
                        help="shard count for the chaos runs (default 4)")
    parser.add_argument("--hosts", type=int,
                        help="ring mode: run this many real serve host "
                        "subprocesses behind a RingRouter and SIGKILL one "
                        "whole host mid-churn (ignores --shards/--kill-point)")
    parser.add_argument("--steps", type=int, default=5,
                        help="mutate steps per session (default 5)")
    parser.add_argument("--connections", type=int, default=2)
    parser.add_argument("--kill-point", action="append", choices=KILL_POINTS,
                        help="crash point(s) to exercise, repeatable "
                        "(default: snapshot — between mutate and snapshot)")
    parser.add_argument("--kill-session", default="churn-0",
                        help="churn session the fault matches (default churn-0)")
    parser.add_argument("--kill-version", type=int,
                        help="state version the fault matches "
                        "(default: mid-run, steps//2)")
    parser.add_argument("-o", "--output", help="write the chaos report JSON here")
    args = parser.parse_args(argv)
    if args.hosts is not None:
        if args.hosts < 2:
            raise SystemExit("ring chaos needs --hosts >= 2: a failover "
                             "requires a surviving host to hand off to")
        report = run_host_chaos(hosts=args.hosts, steps=args.steps,
                                connections=args.connections,
                                kill_session=args.kill_session)
        if args.output:
            out = pathlib.Path(args.output)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
            print(f"wrote {out}", file=sys.stderr)
        print(f"ring-chaos: {'ok' if report['ok'] else 'FAILED'}",
              file=sys.stderr)
        return 0 if report["ok"] else 1
    if args.shards < 1:
        raise SystemExit("chaos needs process shards (--shards >= 1): the "
                         "inline worker is a thread and cannot be killed")
    points = args.kill_point or ["snapshot"]
    kill_version = args.kill_version if args.kill_version is not None \
        else max(1, args.steps // 2)
    report = run_chaos(points, shards=args.shards, steps=args.steps,
                       kill_session=args.kill_session, kill_version=kill_version,
                       connections=args.connections)
    if args.output:
        out = pathlib.Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    print(f"chaos: {'all points ok' if report['ok'] else 'FAILED'} "
          f"({', '.join(points)})", file=sys.stderr)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
