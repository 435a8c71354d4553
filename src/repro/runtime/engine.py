"""The sweep engine: fan scenarios across processes, collect results.

``run_sweep`` is the single entry point.  Determinism contract: the result
list depends only on the scenario list — never on the worker count, the
completion order, or the host — because

* every scenario derives its own seeds from its content hash (no ambient
  RNG state crosses the process boundary),
* workers receive the (tiny, picklable) scenarios and rebuild instances
  locally through a per-process :class:`InstanceCache`,
* results are collected in scenario order via ``Executor.map``.

Wall-clock is measured per scenario but kept out of the deterministic
payload (see :mod:`.results`).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

from ..analysis import evaluate_coloring, theorem5_rhs
from ..core.kernels import use_kernel
from ..obs import registry, snapshot_delta, span
from .algorithms import resolved_kernel_name, resolved_oracle_name, run_algorithm
from .instances import Instance, InstanceCache
from .results import ScenarioResult
from .scenario import Scenario, ScenarioGrid

__all__ = ["run_scenario", "run_sweep", "worker_init", "worker_run", "worker_run_record"]

# per-worker-process cache, installed by worker_init
_WORKER_CACHE: InstanceCache | None = None


def worker_init(cache_dir=None, max_entries=None):
    """Install the per-process :class:`InstanceCache`.

    Used as the ``ProcessPoolExecutor`` initializer by both the sweep engine
    and the service shards (:mod:`repro.service.shards`), so every persistent
    worker process reuses instances across the scenarios it is handed.
    Sweeps are finite and leave the cache unbounded; long-lived shards pass
    ``max_entries`` so worker memory stays bounded under diverse traffic.
    """
    global _WORKER_CACHE
    _WORKER_CACHE = InstanceCache(directory=cache_dir, max_entries=max_entries)


def worker_run(scenario: Scenario) -> ScenarioResult:
    """Run one scenario against the per-process cache (full result object)."""
    return run_scenario(scenario, cache=_WORKER_CACHE)


def worker_run_record(scenario: Scenario) -> dict:
    """Run one scenario and return its deterministic JSON record.

    This is the unit of work the service shards execute: the returned dict is
    exactly one element of a ``repro sweep`` results file's ``results`` list,
    which is what makes service responses byte-identical to sweep output.
    """
    return worker_run(scenario).record()


def _instance_stats(inst: Instance) -> dict:
    g = inst.graph
    return {
        "n": int(g.n),
        "m": int(g.m),
        "cost_norm_p2": float(g.cost_norm(2.0)),
        "cost_max": float(g.costs.max()) if g.m else 0.0,
        "max_cost_degree": float(g.max_cost_degree()),
        "weight_total": float(inst.weights.sum()),
        "weight_max": float(inst.weights.max()) if inst.weights.size else 0.0,
    }


def _kernel_context(scenario: Scenario):
    """Scoped default-kernel switch for scenarios carrying a ``kernel`` param.

    Every refinement layer reads the process default through
    :func:`repro.core.kernels.run_pair_kernel`, so one scoped switch routes
    the whole scenario — minmax's final refine, the multilevel baseline, and
    the streaming repairer alike — without threading the name through every
    call chain.
    """
    name = scenario.param_dict.get("kernel")
    return use_kernel(str(name)) if name is not None else nullcontext()


def run_scenario(scenario: Scenario, cache: InstanceCache | None = None) -> ScenarioResult:
    """Build the instance, run the algorithm, evaluate, and time one cell.

    Telemetry: each phase runs inside a ``scenario.*`` span, and what the
    obs registry gained during this scenario alone — span rollups, solver
    counts, kernel passes — travels back on the result as one volatile
    snapshot delta, the mergeable unit sweep workers ship to the parent.
    """
    before = registry().snapshot()
    with span("scenario.instance"):
        if cache is not None:
            inst = cache.get(scenario)
        else:
            from .instances import build_instance

            inst = build_instance(scenario)
    # streaming scenarios replay a mutation trace: metrics must be evaluated
    # on the *final mutated* graph, which only the stream session knows — so
    # they bypass the static evaluate path
    stream = scenario.algorithm == "stream"
    if stream:
        from ..stream import run_stream_scenario
    t0 = time.perf_counter()
    with _kernel_context(scenario), span("scenario.algorithm"):
        out = run_stream_scenario(inst, scenario) if stream else run_algorithm(inst, scenario)
    wall = time.perf_counter() - t0
    metrics = out if stream else _evaluate(inst, scenario, out)
    kernel_name = resolved_kernel_name(scenario)
    if kernel_name is not None:
        # fixed before the run starts (param or process default)
        metrics["kernel"] = kernel_name
    return ScenarioResult(
        scenario=scenario,
        instance=_instance_stats(inst),
        metrics=metrics,
        wall_clock_s=wall,
        telemetry=snapshot_delta(before, registry().snapshot()),
    )


def _evaluate(inst: Instance, scenario: Scenario, coloring) -> dict:
    """The static cell's deterministic metrics."""
    g = inst.graph
    with span("scenario.evaluate"):
        m = evaluate_coloring(g, coloring, inst.weights)
        rhs5 = theorem5_rhs(g, scenario.k, p=2.0)
    metrics = {
        "max_boundary": float(m.max_boundary),
        "avg_boundary": float(m.avg_boundary),
        "total_cut": float(m.total_cut),
        "balance_margin": float(m.balance_margin),
        "strictly_balanced": bool(m.strictly_balanced),
        "bound_ratio_thm5": float(m.max_boundary / rhs5) if rhs5 > 0 else 0.0,
    }
    oracle_name = resolved_oracle_name(scenario)
    if oracle_name is not None:
        # the resolved registry name is a pure function of the scenario, so
        # it belongs in the deterministic record (unlike the solver counts)
        metrics["oracle"] = oracle_name
    return metrics


def run_sweep(
    grid: ScenarioGrid | list[Scenario],
    workers: int = 1,
    cache_dir=None,
    progress=None,
) -> list[ScenarioResult]:
    """Run every scenario in ``grid``; results come back in scenario order.

    ``workers <= 1`` runs inline (no subprocesses — debuggable, and what the
    benchmarks use under pytest).  ``progress`` is an optional callable
    ``(done, total, result)`` invoked as results arrive.
    """
    scenarios = grid.scenarios() if isinstance(grid, ScenarioGrid) else list(grid)
    total = len(scenarios)
    results: list[ScenarioResult] = []
    if workers <= 1:
        cache = InstanceCache(directory=cache_dir)
        for i, s in enumerate(scenarios):
            r = run_scenario(s, cache=cache)
            results.append(r)
            if progress is not None:
                progress(i + 1, total, r)
        return results

    # sweeps parallelize across scenarios; keep BLAS single-threaded in the
    # workers so cores are not oversubscribed and timings stay comparable.
    # Must happen in the parent before the pool forks/spawns — numpy sizes
    # its thread pool from the environment it is imported into.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    chunksize = max(1, total // (workers * 4))
    with ProcessPoolExecutor(
        max_workers=workers, initializer=worker_init, initargs=(cache_dir,)
    ) as pool:
        for i, r in enumerate(pool.map(worker_run, scenarios, chunksize=chunksize)):
            results.append(r)
            if progress is not None:
                progress(i + 1, total, r)
    return results
