"""Command-line interface: partition an edge-list or npz graph.

Usage::

    python -m repro partition graph.txt -k 8 --weights w.txt -o labels.txt
    python -m repro evaluate graph.txt labels.txt --weights w.txt
    python -m repro demo --side 24 -k 8
    python -m repro sweep --family grid mesh --size 16 --k 2 8 \
        --workers 4 -o sweep.json
    python -m repro serve --port 8642 --shards 4
    python -m repro loadgen --port 8642 --preset smoke --connections 16
    python -m repro profile --preset smoke --top 20

``partition`` writes one class id per line (vertex order).  ``evaluate``
prints the metric panel for an existing labeling.  ``demo`` runs the
pipeline on a generated grid and prints the audit table.  ``sweep`` expands
a scenario grid, fans it across worker processes, and writes deterministic
JSON results (see :mod:`repro.runtime`).  ``serve`` runs the batched
decomposition service and ``loadgen`` replays a scenario grid against it as
concurrent requests (see :mod:`repro.service`).  ``profile`` runs a grid
inline under cProfile and prints the hottest functions — the dev tool
backing perf PRs like the E15 kernel work.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

import numpy as np

from .analysis import Table, evaluate_coloring, theorem4_rhs
from .core import Coloring, DecompositionParams, min_max_partition
from .graphs import grid_graph
from .graphs.io import load_npz, read_edgelist

__all__ = ["main", "build_parser"]


def _load_graph(path: str):
    p = pathlib.Path(path)
    if p.suffix == ".npz":
        return load_npz(p)
    return read_edgelist(p), None


def _load_weights(path: str | None, n: int, stored):
    if path is not None:
        w = np.loadtxt(path, dtype=np.float64).ravel()
        if w.size != n:
            raise SystemExit(f"weights file has {w.size} entries, graph has {n} vertices")
        return w
    if stored is not None:
        return stored
    return np.ones(n, dtype=np.float64)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    part = sub.add_parser("partition", help="compute a strictly balanced k-partition")
    part.add_argument("graph", help="edge-list (.txt: 'u v [cost]') or .npz graph")
    part.add_argument("-k", type=int, required=True, help="number of classes")
    part.add_argument("--weights", help="vertex weights file (one per line)")
    part.add_argument("-o", "--output", help="write labels here (default: stdout)")
    part.add_argument("--p", type=float, default=2.0, help="splittability exponent")
    part.add_argument("--no-refine", action="store_true", help="skip the FM post-pass")

    ev = sub.add_parser("evaluate", help="score an existing labeling")
    ev.add_argument("graph")
    ev.add_argument("labels", help="file with one class id per vertex")
    ev.add_argument("--weights")

    demo = sub.add_parser("demo", help="run the pipeline on a generated grid")
    demo.add_argument("--side", type=int, default=24)
    demo.add_argument("-k", type=int, default=8)

    sw = sub.add_parser("sweep", help="run a scenario-grid sweep and emit JSON results")
    _add_grid_arguments(sw)
    sw.add_argument("--workers", type=int, default=1, help="worker processes (1 = inline)")
    sw.add_argument("-o", "--output", help="write results JSON here")
    sw.add_argument("--timing", action="store_true",
                    help="include the (non-deterministic) timing block in the JSON")
    sw.add_argument("--table", action="store_true", help="print the results table")
    sw.add_argument("--cache-dir", help="on-disk instance cache directory")
    sw.add_argument("--baseline", help="baseline results JSON to gate against")
    sw.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed relative regression vs the baseline (default 0.20)")
    sw.add_argument("--no-oracle-cache", action="store_true",
                    help="disable the eigensolver result cache (results are "
                    "byte-identical either way; this is a perf knob)")

    sv = sub.add_parser("serve", help="run the batched decomposition service")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8642, help="TCP port (0 = ephemeral)")
    sv.add_argument("--shards", type=int, default=2,
                    help="persistent worker processes (0 = inline thread, debug)")
    sv.add_argument("--cache-size", type=int, default=1024,
                    help="max entries in the LRU coloring cache")
    sv.add_argument("--cache-max-bytes", type=int,
                    help="additionally bound the coloring cache by total "
                    "canonical-record bytes (cost-aware eviction)")
    sv.add_argument("--max-batch-size", type=int, default=32,
                    help="flush a micro-batch at this many requests (a "
                    "batch otherwise flushes on the next event-loop turn)")
    sv.add_argument("--cache-dir", help="on-disk instance cache for the shards")
    sv.add_argument("--npz-root", help="directory npz-ref requests may read from "
                    "(npz refs are rejected unless this is set)")
    sv.add_argument("--idle-timeout", type=float,
                    help="reap connections idle for this many seconds "
                    "(ping is the keep-alive heartbeat)")
    sv.add_argument("--max-sessions", type=int, default=64,
                    help="max concurrently open streaming sessions")
    sv.add_argument("--session-ttl", type=float, default=900.0,
                    help="expire streaming sessions idle for this many seconds "
                    "(enforced when the session limit is hit; 0 disables)")
    sv.add_argument("--journal-dir",
                    help="persist per-session mutation journals here; a "
                    "streaming session whose shard worker crashes is then "
                    "rebuilt by replaying its journal instead of being lost")
    sv.add_argument("--no-recovery", action="store_true",
                    help="escape hatch: keep journaling (if --journal-dir is "
                    "set) but never replay — crashed sessions report "
                    "'session lost' as without a journal")
    sv.add_argument("--no-oracle-cache", action="store_true",
                    help="disable the per-shard eigensolver result cache "
                    "(responses are byte-identical either way)")
    sv.add_argument("--oracle-cache-size", type=int,
                    help="max entries in each shard's eigensolver cache "
                    "(default 256)")
    sv.add_argument("--metrics-port", type=int,
                    help="serve Prometheus text format on GET /metrics at "
                    "this port (0 = ephemeral; scrapes never affect results)")
    sv.add_argument("--log-json", action="store_true",
                    help="write structured JSON-lines events (slow requests, "
                    "session loss/recovery, shard respawns) to stderr")
    sv.add_argument("--slow-ms", type=float,
                    help="emit a request.slow event for requests taking "
                    "longer than this many milliseconds")

    rt = sub.add_parser("route",
                        help="ring-aware front-end routing across serve hosts "
                        "with journal-based session failover")
    rt.add_argument("--host", default="127.0.0.1")
    rt.add_argument("--port", type=int, default=8641, help="TCP port (0 = ephemeral)")
    rt.add_argument("--backends", required=True,
                    help="comma-separated host:port list of repro serve hosts "
                    "forming the ring")
    rt.add_argument("--journal-root",
                    help="shared storage root holding each host's journal "
                    "directory (<root>/<host_port>, i.e. each backend runs "
                    "with --journal-dir there); enables zero-loss session "
                    "handoff when a host dies or is drained")
    rt.add_argument("--replicas", type=int, default=64,
                    help="virtual nodes per host on the hash ring")
    rt.add_argument("--retries", type=int, default=2,
                    help="per-request retry budget against one host before "
                    "it is marked down")
    rt.add_argument("--request-timeout", type=float, default=120.0,
                    help="per-hop request deadline in seconds (default "
                    "matches loadgen's 120s request deadline — a shorter "
                    "hop deadline would mark healthy-but-slow hosts down)")
    rt.add_argument("--connect-timeout", type=float, default=5.0,
                    help="backend connection deadline in seconds")
    rt.add_argument("--backoff-ms", type=float, default=50.0,
                    help="base of the jittered exponential retry backoff")
    rt.add_argument("--probe-interval", type=float,
                    help="re-ping down hosts every this many seconds and "
                    "return responders to the ring (off by default)")
    rt.add_argument("--idle-timeout", type=float,
                    help="reap connections idle for this many seconds "
                    "(ping is the keep-alive heartbeat)")
    rt.add_argument("--metrics-port", type=int,
                    help="serve the router's Prometheus metrics (ring gauges, "
                    "per-hop latencies) on GET /metrics at this port")
    rt.add_argument("--log-json", action="store_true",
                    help="write structured JSON-lines events (host.down, "
                    "session.handoff, slow requests) to stderr")
    rt.add_argument("--slow-ms", type=float,
                    help="emit a request.slow event for routed requests "
                    "taking longer than this many milliseconds")
    rt.add_argument("--no-shutdown-backends", action="store_true",
                    help="a shutdown op stops only the router, leaving the "
                    "serve hosts behind it running")

    pf = sub.add_parser("profile",
                        help="run a scenario grid under cProfile and print the "
                        "hottest functions (dev tool backing perf PRs)")
    _add_grid_arguments(pf)
    pf.add_argument("--top", type=int, default=20,
                    help="number of functions to show (default 20)")
    pf.add_argument("--sort", choices=("cumulative", "tottime"), default="cumulative",
                    help="ranking statistic (default cumulative)")

    lg = sub.add_parser("loadgen",
                        help="replay a scenario grid against a running service")
    _add_grid_arguments(lg)
    lg.add_argument("--host", default="127.0.0.1")
    lg.add_argument("--port", type=int, default=8642)
    lg.add_argument("--connections", type=int, default=8, help="concurrent connections")
    lg.add_argument("--passes", type=int, default=2,
                    help="grid replays (pass 1 cold, later passes warm)")
    lg.add_argument("-o", "--output", default="benchmarks/out/serve_report.json",
                    help="throughput/latency report JSON (volatile)")
    lg.add_argument("--bodies", help="write the deterministic scenario_id -> "
                    "canonical response body map here (for byte-identity diffs)")
    lg.add_argument("--check-sweep", action="store_true",
                    help="run the same grid through the sweep engine inline and "
                    "fail unless every response body is byte-identical")
    lg.add_argument("--shutdown", action="store_true",
                    help="send a shutdown op to the server when done")
    lg.add_argument("--min-rps", type=float,
                    help="fail unless the best pass sustains this many req/s")
    lg.add_argument("--mix", metavar="zipf:S",
                    help="sample the grid non-uniformly (zipf over grid order) "
                    "instead of replaying it; recorded in the report")
    lg.add_argument("--churn", type=int, metavar="STEPS",
                    help="churn mode: open one streaming session per scenario "
                    "and replay STEPS mutation-trace steps through it")
    return parser


def _add_grid_arguments(sub) -> None:
    """Scenario-grid axis flags shared by ``sweep`` and ``loadgen``."""
    sub.add_argument("--preset", choices=sorted(SWEEP_PRESETS),
                     help="start from a predefined grid (axis flags override it)")
    sub.add_argument("--family", nargs="+", help="graph families (grid, mesh, torus, ...)")
    sub.add_argument("--size", nargs="+", type=int, help="family size parameters")
    sub.add_argument("--k", nargs="+", type=int, help="class counts")
    sub.add_argument("--algorithm", nargs="+",
                     help="algorithms (minmax, greedy, recursive-bisection, kst, multilevel)")
    sub.add_argument("--weights", nargs="+", help="weight distributions (unit, zipf, ...)")
    sub.add_argument("--costs", nargs="+", help="cost distributions (unit, lognormal, ...)")
    sub.add_argument("--seed", nargs="+", type=int, help="instance seeds")
    sub.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                     help="extra scenario parameter (repeatable), e.g. --param eps=0.3")
    sub.add_argument("--trace", nargs="+",
                     help="streaming trace kinds (expands the params axis; "
                     "implies algorithm=stream scenarios)")
    sub.add_argument("--policy", nargs="+",
                     help="streaming repair policies (repair, patch, recompute); "
                     "expands the params axis")
    sub.add_argument("--kernel", nargs="+",
                     help="FM kernels (bucket, incremental, reference); "
                     "expands the params axis")


#: predefined grids; ``smoke`` is the CI bench-smoke grid and must stay small.
SWEEP_PRESETS = {
    "smoke": dict(
        family=["grid", "mesh"], size=[12], k=[2, 4, 8],
        algorithm=["minmax", "greedy"], weights=["unit", "zipf"], costs=["unit"], seed=[0],
    ),
    "quality": dict(
        family=["grid", "mesh", "torus"], size=[16, 24], k=[2, 4, 8, 16],
        algorithm=["minmax", "greedy", "recursive-bisection", "multilevel"],
        weights=["unit", "zipf", "bimodal"], costs=["unit", "lognormal"], seed=[0, 1],
    ),
    "scaling": dict(
        family=["grid"], size=[16, 24, 34, 48], k=[2, 8, 32],
        algorithm=["minmax"], weights=["zipf"], costs=["unit"], seed=[0],
    ),
    # one streaming cell per trace family; used by the CI streaming-smoke
    # job and as the churn-loadgen default grid — keep it small
    "stream": dict(
        family=["grid"], size=[10], k=[4], algorithm=["stream"],
        weights=["zipf"], costs=["unit"], seed=[0],
        # refresh=4: small instances are noisy, and cheap to refresh
        params=[
            {"trace": trace, "steps": 6, "ops": 6, "refresh": 4}
            for trace in ("random-churn", "sliding-window", "hotspot", "adversarial-cut")
        ],
    ),
    # one cell per dynamic-vertex-set trace family (index-space growth);
    # kept separate from "stream" so its checked-in baseline stays stable.
    # arrival-departure refreshes faster: departures of settled vertices
    # drift the repaired solution harder than pure growth does
    "growth": dict(
        family=["grid"], size=[10], k=[4], algorithm=["stream"],
        weights=["zipf"], costs=["unit"], seed=[0],
        params=[
            {"trace": "growth", "steps": 6, "ops": 6, "refresh": 4},
            {"trace": "remesh", "steps": 6, "ops": 6, "refresh": 4},
            {"trace": "arrival-departure", "steps": 6, "ops": 6, "refresh": 2},
        ],
    ),
}


def _parse_param(text: str):
    if "=" not in text:
        raise SystemExit(f"--param expects NAME=VALUE, got {text!r}")
    name, raw = text.split("=", 1)
    if raw.lower() in ("true", "false"):
        return name, raw.lower() == "true"
    try:
        value = int(raw)
    except ValueError:
        try:
            value = float(raw)
        except ValueError:
            value = raw
    return name, value


def _grid_from_args(args, command: str):
    """Expand the shared axis flags into a validated ``(grid, scenarios)``."""
    from .runtime import ALGORITHMS, COST_DISTS, FAMILIES, WEIGHT_DISTS, ScenarioGrid

    axes = dict(SWEEP_PRESETS[args.preset]) if args.preset else {}
    for name in ("family", "size", "k", "algorithm", "weights", "costs", "seed"):
        value = getattr(args, name)
        if value is not None:
            axes[name] = value
    if not axes:
        raise SystemExit(f"{command} needs a --preset or at least one axis flag")
    if args.param:
        axes["params"] = [dict(_parse_param(p) for p in args.param)]
    if getattr(args, "trace", None) or getattr(args, "policy", None):
        # --trace / --policy are grid axes over the params dimension: the
        # existing params cells are crossed with every (trace, policy) combo
        from .stream import POLICIES, TRACES

        traces = getattr(args, "trace", None) or [None]
        policies = getattr(args, "policy", None) or [None]
        for t in traces:
            if t is not None and t not in TRACES:
                raise SystemExit(
                    f"{command}: unknown trace {t!r} (have {', '.join(sorted(TRACES))})"
                )
        for p in policies:
            if p is not None and p not in POLICIES:
                raise SystemExit(
                    f"{command}: unknown policy {p!r} (have {', '.join(POLICIES)})"
                )
        cells = axes.get("params") or [{}]
        axes["params"] = [
            {**cell,
             **({"trace": t} if t is not None else {}),
             **({"policy": p} if p is not None else {})}
            for cell in cells for t in traces for p in policies
        ]
        axes.setdefault("algorithm", ["stream"])
    kernels = getattr(args, "kernel", None)
    if kernels:
        # --kernel crosses the params axis like --trace / --policy; names are
        # validated here so typos die at the prompt, not mid-sweep
        from .core.kernels import REGISTRY as _KERNELS

        for name in kernels:
            if name not in _KERNELS:
                raise SystemExit(
                    f"{command}: unknown kernel {name!r} "
                    f"(have {', '.join(sorted(_KERNELS))})"
                )
        cells = axes.get("params") or [{}]
        axes["params"] = [{**cell, "kernel": kn} for cell in cells for kn in kernels]
    grid = ScenarioGrid(**axes)
    registries = {
        "family": FAMILIES, "weights": WEIGHT_DISTS,
        "costs": COST_DISTS, "algorithm": ALGORITHMS,
    }
    for axis, registry in registries.items():
        unknown = [v for v in getattr(grid, axis) if v not in registry]
        if unknown:
            raise SystemExit(
                f"{command}: unknown {axis} {', '.join(map(repr, unknown))} "
                f"(have {', '.join(sorted(registry))})"
            )
    try:
        return grid, grid.scenarios()
    except ValueError as exc:
        raise SystemExit(f"{command}: {exc}") from exc


def _oracle_cache_env(command: str, disable: bool, size: int | None = None) -> None:
    """Set the solve-cache environment, then check it, before workers spawn.

    Workers inherit the environment and build their cache on first use, so
    a bad size must fail here as one ``command: ...`` line rather than in
    every request or cell.
    """
    if disable:
        os.environ["REPRO_ORACLE_CACHE"] = "0"
    if size is not None:
        if size < 0:
            raise SystemExit(f"{command}: --oracle-cache-size must be >= 0, got {size}")
        os.environ["REPRO_ORACLE_CACHE_SIZE"] = str(size)
    from .separators import process_cache

    try:
        process_cache()
    except ValueError as exc:
        raise SystemExit(f"{command}: {exc}") from exc


#: subcommands that run FM passes, in this process or in workers it starts
_FM_COMMANDS = frozenset({"partition", "demo", "sweep", "profile", "serve"})


def _kernel_env(command: str) -> None:
    """Reject an unknown ``REPRO_KERNEL`` in one ``command: ...`` line
    before any work; workers inherit the environment, so the same name
    would otherwise fail every cell or request."""
    from .core.kernels import default_kernel

    try:
        default_kernel()
    except ValueError as exc:
        raise SystemExit(f"{command}: {exc}") from exc


def _run_sweep(args) -> int:
    from .runtime import (
        compare_to_baseline,
        read_results,
        results_table,
        run_sweep,
        write_results,
    )

    grid, scenarios = _grid_from_args(args, "sweep")
    _oracle_cache_env("sweep", args.no_oracle_cache)
    total = len(scenarios)
    print(f"sweep: {total} scenarios, {args.workers} worker(s)", file=sys.stderr)

    def _progress(done, total, result):
        print(
            f"  [{done}/{total}] {result.scenario_id} "
            f"{result.scenario.family}/{result.scenario.size} k={result.scenario.k} "
            f"{result.scenario.algorithm}: max ∂ = {result.metrics['max_boundary']:.6g} "
            f"({result.wall_clock_s:.2f}s)",
            file=sys.stderr,
        )

    results = run_sweep(scenarios, workers=args.workers, cache_dir=args.cache_dir,
                        progress=_progress)
    if args.workers <= 1:
        # inline runs share this process's solver state, so the counters
        # describe the whole sweep (worker counters stay in the workers)
        from .separators import solver_stats

        stats = solver_stats()
        cache = stats["cache"] or {}
        print(f"sweep: oracle solves={stats['counters']['solves']} "
              f"cache_hits={cache.get('hits', 0)} "
              f"cache_misses={cache.get('misses', 0)}", file=sys.stderr)
    if args.output:
        write_results(args.output, results, grid=grid, timing=args.timing)
        print(f"wrote {args.output}", file=sys.stderr)
    if args.timing:
        _show_span_rollup(results)
    if args.table or not args.output:
        results_table(results).show()
    if args.baseline:
        report = compare_to_baseline(results, read_results(args.baseline), tolerance=args.tolerance)
        print(report.render())
        if not report.ok:
            return 1
    return 0


def _show_span_rollup(results) -> None:
    """Merge the per-scenario telemetry and show its span rollups as one
    phase-timing table.

    Shown with ``sweep --timing`` when telemetry is on: where the sweep's
    wall-clock went, by hierarchical phase path.  Share is relative to the
    total of the top-level spans (children are nested inside them, so the
    top-level sum is the reconciled whole).
    """
    from .obs import merge_snapshots

    totals = merge_snapshots([r.telemetry for r in results])["spans"]
    if not totals:
        return
    top_level_s = sum(t["seconds"] for path, t in totals.items() if "/" not in path)
    table = Table(
        "span rollup — wall-clock by phase",
        ["span", "calls", "seconds", "share %"],
        note="hierarchical paths; children are included in their parents",
    )
    for path in sorted(totals):
        calls, seconds = totals[path]["calls"], totals[path]["seconds"]
        share = 100.0 * seconds / top_level_s if top_level_s > 0 else 0.0
        table.add(path, calls, round(seconds, 3), f"{share:.1f}")
    table.show()


def _run_profile(args) -> int:
    """Profile a scenario grid inline under cProfile.

    The table is deterministic up to the measured times: rows rank by the
    chosen statistic with ties (and the displayed function names) resolved
    by ``module:line(function)`` with paths stripped to basenames, so two
    runs of the same checkout list the same hot spots in a stable, diffable
    format.
    """
    import cProfile
    import pstats

    from .runtime import run_sweep

    grid, scenarios = _grid_from_args(args, "profile")
    print(f"profile: {len(scenarios)} scenario(s), inline under cProfile",
          file=sys.stderr)
    prof = cProfile.Profile()
    prof.enable()
    run_sweep(scenarios, workers=1)
    prof.disable()
    stats = pstats.Stats(prof)
    total = stats.total_tt
    rows = []
    for (filename, lineno, funcname), (cc, nc, tt, ct, _callers) in stats.stats.items():
        name = f"{pathlib.Path(filename).name}:{lineno}({funcname})"
        rows.append((ct if args.sort == "cumulative" else tt, name, nc, tt, ct))
    rows.sort(key=lambda r: (-r[0], r[1]))
    table = Table(
        f"profile — {len(scenarios)} scenario(s), sorted by {args.sort}",
        ["function", "calls", "tottime s", "cumtime s", "cum %"],
        note=f"total profiled time {total:.3f}s; times vary run to run, the "
        "ranking and naming are stable",
    )
    for _, name, nc, tt, ct in rows[: max(0, args.top)]:
        share = 100.0 * ct / total if total > 0 else 0.0
        table.add(name, nc, round(tt, 3), round(ct, 3), f"{share:.1f}")
    table.show()
    return 0


def _run_serve(args) -> int:
    import asyncio

    from .service import DecompositionService, serve
    from .stream import JournalError

    _oracle_cache_env("serve", args.no_oracle_cache, args.oracle_cache_size)
    if args.log_json:
        from .obs import events

        events.configure(sys.stderr)
    try:
        service = DecompositionService(
            shards=args.shards,
            cache_size=args.cache_size,
            max_batch_size=args.max_batch_size,
            cache_dir=args.cache_dir,
            npz_root=args.npz_root,
            cache_max_bytes=args.cache_max_bytes,
            max_sessions=args.max_sessions,
            session_ttl=args.session_ttl,
            journal_dir=args.journal_dir,
            recovery=not args.no_recovery,
            slow_request_s=args.slow_ms / 1000.0 if args.slow_ms is not None else None,
        )
    except (JournalError, OSError, ValueError) as exc:
        # an unusable --journal-dir (unwritable, or owned by another
        # server) or an out-of-range size is an operator error: one line,
        # not a traceback
        raise SystemExit(f"serve: {exc}") from exc

    def _ready(host, port):
        print(f"serve: listening on {host}:{port} "
              f"(shards={args.shards}, cache={args.cache_size}, "
              f"batch={args.max_batch_size})",
              file=sys.stderr, flush=True)

    def _metrics_ready(host, port):
        print(f"serve: metrics on http://{host}:{port}/metrics",
              file=sys.stderr, flush=True)

    def _on_close(stats):
        oc = stats.get("oracle_cache") or {}
        counters = oc.get("counters") or {}
        cache = oc.get("cache") or {}
        print(f"serve: oracle cache {'on' if oc.get('enabled') else 'off'} — "
              f"solves={counters.get('solves', 0)} "
              f"hits={cache.get('hits', 0)} misses={cache.get('misses', 0)} "
              f"evictions={cache.get('evictions', 0)}",
              file=sys.stderr, flush=True)

    try:
        asyncio.run(serve(service, host=args.host, port=args.port, ready=_ready,
                          idle_timeout=args.idle_timeout, on_close=_on_close,
                          metrics_port=args.metrics_port,
                          metrics_ready=_metrics_ready))
    except KeyboardInterrupt:
        print("serve: interrupted", file=sys.stderr)
    return 0


def _run_route(args) -> int:
    import asyncio

    from .service import RingRouter, route_serve

    if args.probe_interval is not None and not args.probe_interval > 0:
        raise SystemExit(f"route: --probe-interval must be > 0, got {args.probe_interval}")
    if args.log_json:
        from .obs import events

        events.configure(sys.stderr)
    try:
        router = RingRouter(
            args.backends,
            journal_root=args.journal_root,
            replicas=args.replicas,
            retries=args.retries,
            backoff_base_s=args.backoff_ms / 1000.0,
            connect_timeout=args.connect_timeout,
            request_timeout=args.request_timeout,
            slow_request_s=args.slow_ms / 1000.0 if args.slow_ms is not None else None,
            propagate_shutdown=not args.no_shutdown_backends,
        )
    except ValueError as exc:
        raise SystemExit(f"route: {exc}") from exc

    def _ready(host, port):
        print(f"route: listening on {host}:{port} "
              f"(ring={len(router.endpoints)} host(s), "
              f"journal_root={args.journal_root or 'none'}, "
              f"retries={args.retries})",
              file=sys.stderr, flush=True)

    def _metrics_ready(host, port):
        print(f"route: metrics on http://{host}:{port}/metrics",
              file=sys.stderr, flush=True)

    def _on_close(stats):
        ring = stats.get("ring", {})
        print(f"route: forwarded={ring.get('forwarded', 0)} "
              f"retried={ring.get('retried', 0)} "
              f"handoffs={ring.get('handoffs', 0)} "
              f"lost={ring.get('sessions_lost', 0)} "
              f"down={','.join(ring.get('down', [])) or 'none'}",
              file=sys.stderr, flush=True)

    try:
        asyncio.run(route_serve(router, host=args.host, port=args.port,
                                ready=_ready, idle_timeout=args.idle_timeout,
                                metrics_port=args.metrics_port,
                                metrics_ready=_metrics_ready,
                                probe_interval=args.probe_interval,
                                on_close=_on_close))
    except KeyboardInterrupt:
        print("route: interrupted", file=sys.stderr)
    return 0


def _run_loadgen(args) -> int:
    import asyncio
    import json as _json

    from .runtime import run_sweep
    from .service import canonical_record, run_loadgen

    grid, scenarios = _grid_from_args(args, "loadgen")
    if args.mix is not None:
        from .service import parse_mix

        try:
            parse_mix(args.mix)
        except ValueError as exc:
            raise SystemExit(f"loadgen: {exc}") from exc
    if args.churn is not None:
        if args.churn < 1:
            raise SystemExit("loadgen: --churn needs at least 1 step")
        return _run_loadgen_churn(args, scenarios)
    specs = [s.spec() for s in scenarios]
    print(f"loadgen: {len(specs)} scenarios x {args.passes} pass(es), "
          f"{args.connections} connection(s) -> {args.host}:{args.port}", file=sys.stderr)
    out = asyncio.run(
        run_loadgen(
            args.host, args.port, specs,
            connections=args.connections, passes=args.passes, shutdown=args.shutdown,
            mix=args.mix,
        )
    )
    report, bodies = out["report"], out["bodies"]
    report["grid"] = grid.spec()
    for p in report["passes"]:
        lat = p["latency"]
        print(f"  pass {p['pass']}: {p['requests']} requests in {p['wall_s']}s "
              f"= {p['throughput_rps']} req/s "
              f"(p50 {lat.get('p50_ms')}ms, p99 {lat.get('p99_ms')}ms)", file=sys.stderr)
    _print_server_latency(report.get("server_latency"))
    if args.output:
        out_path = pathlib.Path(args.output)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(_json.dumps(report, sort_keys=True, indent=2) + "\n")
        print(f"wrote {out_path}", file=sys.stderr)
    if args.bodies:
        bodies_path = pathlib.Path(args.bodies)
        bodies_path.parent.mkdir(parents=True, exist_ok=True)
        bodies_path.write_text(_json.dumps(bodies, sort_keys=True, indent=2) + "\n")
        print(f"wrote {bodies_path}", file=sys.stderr)
    status = 0
    if report["errors"]:
        print(f"loadgen: {len(report['errors'])} request(s) failed, e.g. "
              f"{report['errors'][0]['error']}", file=sys.stderr)
        status = 1
    if args.check_sweep and status != 0:
        print("loadgen: skipping --check-sweep (requests already failed)", file=sys.stderr)
    elif args.check_sweep:
        workers = 1 if len(scenarios) < 16 else min(4, os.cpu_count() or 1)
        reference = run_sweep(scenarios, workers=workers)
        expected = {r.scenario_id: canonical_record(r.record()) for r in reference}
        if args.mix:
            # a sampled mix need not cover the whole grid: gate byte-identity
            # on every scenario that was actually requested
            mismatched = [sid for sid, body in bodies.items() if expected.get(sid) != body]
            missing = 0
        else:
            mismatched = [sid for sid, body in expected.items() if bodies.get(sid) != body]
            missing = len(set(bodies) ^ set(expected))
        if mismatched or missing:
            print(f"loadgen: responses NOT byte-identical to sweep records "
                  f"({len(mismatched)} mismatched, {missing} missing)", file=sys.stderr)
            status = 1
        else:
            print(f"loadgen: all {len(bodies)} response bodies byte-identical "
                  f"to sweep records", file=sys.stderr)
    if args.min_rps is not None:
        best = max((p["throughput_rps"] for p in report["passes"]), default=0.0)
        if best < args.min_rps:
            print(f"loadgen: best pass {best} req/s < required {args.min_rps}",
                  file=sys.stderr)
            status = 1
        else:
            print(f"loadgen: throughput gate ok ({best} >= {args.min_rps} req/s)",
                  file=sys.stderr)
    return status


def _print_server_latency(server_side: dict | None) -> None:
    """Report server-side histogram percentiles next to the client's.

    Server percentiles come from the service's ``request_seconds`` latency
    histograms at bucket resolution (``pNN`` is the bucket upper bound), so
    a client/server gap under one bucket is expected; anything beyond is
    flagged as a disagreement by :func:`repro.service.server_latency_report`.
    """
    if not server_side:
        return
    print(f"  server:  op={server_side['op']} p50 ≤ {server_side.get('p50_ms')}ms, "
          f"p99 ≤ {server_side.get('p99_ms')}ms over {server_side['count']} "
          f"request(s) (bucket resolution)", file=sys.stderr)
    for d in server_side.get("disagreements", []):
        print(f"loadgen: WARNING client/server {d['quantile']} disagree beyond "
              f"bucket resolution: client {d['client_ms']}ms vs server "
              f"({d['server_lo_ms']}, {d['server_hi_ms']}]ms", file=sys.stderr)


def _run_loadgen_churn(args, scenarios) -> int:
    """Churn mode: replay mutation traces through stateful sessions."""
    import asyncio
    import json as _json

    from .service import run_churn

    steps = int(args.churn)
    specs = []
    seen = set()
    for s in scenarios:
        # every base scenario becomes one streaming session; the trace must
        # be able to serve the requested number of mutate steps
        params = dict(s.param_dict)
        if int(params.get("steps", 0)) < steps:
            params["steps"] = steps
        spec = s.with_(algorithm="stream", params=tuple(sorted(params.items()))).spec()
        key = _json.dumps(spec, sort_keys=True)
        if key not in seen:  # distinct algorithms collapse onto one session
            seen.add(key)
            specs.append(spec)
    print(f"loadgen: churn mode, {len(specs)} session(s) x {steps} step(s), "
          f"{args.connections} connection(s) -> {args.host}:{args.port}", file=sys.stderr)
    out = asyncio.run(
        run_churn(
            args.host, args.port, specs,
            steps=steps, connections=args.connections, shutdown=args.shutdown,
        )
    )
    report, bodies = out["report"], out["bodies"]
    lat = report["latency"]
    print(f"  {report['requests']} requests in {report['wall_s']}s "
          f"= {report['throughput_rps']} req/s "
          f"(p50 {lat.get('p50_ms')}ms, p99 {lat.get('p99_ms')}ms)", file=sys.stderr)
    for op, entry in sorted((report.get("server_latency") or {}).items()):
        print(f"  server:  op={op} p50 ≤ {entry.get('p50_ms')}ms, "
              f"p99 ≤ {entry.get('p99_ms')}ms over {entry['count']} request(s)",
              file=sys.stderr)
    if args.output:
        out_path = pathlib.Path(args.output)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(_json.dumps(report, sort_keys=True, indent=2) + "\n")
        print(f"wrote {out_path}", file=sys.stderr)
    if args.bodies:
        bodies_path = pathlib.Path(args.bodies)
        bodies_path.parent.mkdir(parents=True, exist_ok=True)
        bodies_path.write_text(_json.dumps(bodies, sort_keys=True, indent=2) + "\n")
        print(f"wrote {bodies_path}", file=sys.stderr)
    status = 0
    if report["recovered_sessions"]:
        print(f"loadgen: {report['recovered_sessions']} session(s) recovered by "
              f"journal replay", file=sys.stderr)
    if report["errors"]:
        print(f"loadgen: {len(report['errors'])} session op(s) failed, e.g. "
              f"{report['errors'][0]['error']}", file=sys.stderr)
        status = 1
    if report["lost_sessions"]:
        print(f"loadgen: {len(report['lost_sessions'])} session(s) lost to shard "
              f"crashes (not recovered), e.g. {report['lost_sessions'][0]['error']}",
              file=sys.stderr)
        status = 1
    if args.min_rps is not None:
        if report["throughput_rps"] < args.min_rps:
            print(f"loadgen: {report['throughput_rps']} req/s < required {args.min_rps}",
                  file=sys.stderr)
            status = 1
        else:
            print(f"loadgen: throughput gate ok ({report['throughput_rps']} >= "
                  f"{args.min_rps} req/s)", file=sys.stderr)
    return status


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in _FM_COMMANDS or getattr(args, "check_sweep", False):
        _kernel_env(args.command)
    if args.command == "partition":
        g, stored_w = _load_graph(args.graph)
        w = _load_weights(args.weights, g.n, stored_w)
        params = DecompositionParams(p=args.p, final_refine=not args.no_refine)
        res = min_max_partition(g, args.k, weights=w, params=params)
        lines = "\n".join(str(int(x)) for x in res.labels) + "\n"
        if args.output:
            pathlib.Path(args.output).write_text(lines)
        else:
            sys.stdout.write(lines)
        m = evaluate_coloring(g, res.coloring, w)
        print(
            f"# strictly_balanced={m.strictly_balanced} max_boundary={m.max_boundary:.6g} "
            f"avg_boundary={m.avg_boundary:.6g}",
            file=sys.stderr,
        )
        return 0 if m.strictly_balanced else 1

    if args.command == "evaluate":
        g, stored_w = _load_graph(args.graph)
        w = _load_weights(args.weights, g.n, stored_w)
        labels = np.loadtxt(args.labels, dtype=np.int64).ravel()
        if labels.size != g.n:
            raise SystemExit("labels/graph size mismatch")
        k = int(labels.max()) + 1
        m = evaluate_coloring(g, Coloring(labels, k), w)
        table = Table("evaluation", ["metric", "value"])
        table.add("k", m.k)
        table.add("strictly balanced", m.strictly_balanced)
        table.add("balance margin", m.balance_margin)
        table.add("max boundary", m.max_boundary)
        table.add("avg boundary", m.avg_boundary)
        table.add("total cut", m.total_cut)
        table.show()
        return 0

    if args.command == "demo":
        g = grid_graph(args.side, args.side)
        res = min_max_partition(g, args.k)
        table = Table(f"demo — {args.side}×{args.side} grid, k={args.k}", ["metric", "value"])
        table.add("strictly balanced", res.is_strictly_balanced())
        table.add("max boundary", res.max_boundary(g))
        table.add("Theorem 4 RHS", theorem4_rhs(g, args.k, 2.0))
        table.show()
        return 0

    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "profile":
        return _run_profile(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "route":
        return _run_route(args)
    if args.command == "loadgen":
        return _run_loadgen(args)
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
