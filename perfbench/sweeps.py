"""Sweep workloads: Theorem-4 ``minmax`` cells through ``run_scenario``.

One *round* runs the cell mix {grid, mesh} x k in {8, 32} with zipf vertex
weights on one instance draw, inline in this process; the seed picks the
draws.  Every round starts from the same cache state — a fresh
``InstanceCache`` and ``reset_solver_state()`` for the process
``SolveCache`` — so no round replays another round's splits.  Cell run
times vary up to 2x between draws, so a run takes a new draw every round
and its figures average over all of them.
"""

from __future__ import annotations

import subprocess
import sys
import time

from common import (
    ROOT,
    median,
    percentile,
    pipeline_layers,
    ratio,
    self_peak_rss_mb,
    set_telemetry,
    span_total,
    spans_diff,
    verify_decomposition,
)

CONFIGS = {
    "sweep-unit": {"costs": "unit", "size": 64,
                   # separators must dominate: oracle.split share of algorithm
                   "regime": ("separators.split_share", 0.70)},
    "sweep-lognormal": {"costs": "lognormal", "size": 96,
                        # the interpreted gain-table FM path must dominate
                        "regime": ("core.kernel_pass_share", 0.50)},
}
FAMILIES = ("grid", "mesh")
KS = (8, 32)
#: draws every run completes; the Theorem-5 ratio is averaged over these
#: so that it is the same figure however fast the run goes
MIN_DRAWS = 4
SETUP_REPEATS = 5

_SETUP_PROGRAM = (
    "from repro.runtime import run_scenario, InstanceCache, Scenario\n"
    "from repro.core._bucketc import load_bucket_loop\n"
    "load_bucket_loop()\n"
)


def measure_setup() -> float:
    """Median time for a fresh interpreter to become ready to run cells:
    start, import the runtime and load the compiled FM loop."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_PROGRAM], check=True,
                       cwd=str(ROOT))
        samples.append(time.perf_counter() - t0)
    return median(samples)


class Sweep:
    """Runs rounds, checks every cell, and keeps what the metrics need."""

    def __init__(self, cfg: dict, seed: int):
        from repro.runtime import engine

        self.cfg = cfg
        self.seed = seed
        self.draws = 0
        self.ratios: list[float] = []   # Theorem-5 ratio of the first draws' cells
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # run_scenario returns metrics only: wrap the algorithm entry point
        # it calls with a pass-through that keeps the coloring to check
        inner = engine.run_algorithm
        self._last = None

        def capture(inst, scenario):
            self._last = (inst, inner(inst, scenario))
            return self._last[1]

        engine.run_algorithm = capture

    def round_cells(self, draw: int) -> list:
        from repro.runtime import Scenario

        return [Scenario(family=f, size=self.cfg["size"], k=k, weights="zipf",
                         costs=self.cfg["costs"], seed=self.seed * 1000 + draw)
                for f in FAMILIES for k in KS]

    def run_round(self, cells) -> tuple[list, object]:
        from repro.runtime import InstanceCache, run_scenario
        from repro.separators.solve import reset_solver_state

        reset_solver_state()
        cache = InstanceCache()
        out = []
        for scenario in cells:
            t0 = time.perf_counter()
            result = run_scenario(scenario, cache=cache)
            out.append((result, time.perf_counter() - t0, self._last))
        self._last = None
        return out, cache

    def measure(self, seconds: float, on_round=None) -> list[float]:
        """One round per instance draw until ``seconds`` have passed;
        returns the cell wall times."""
        times = []
        start = time.perf_counter()
        while self.draws < MIN_DRAWS or time.perf_counter() - start < seconds:
            results, cache = self.run_round(self.round_cells(self.draws))
            self.draws += 1
            if on_round is not None:
                on_round(results, cache)
            times += [dt for _, dt, _ in results]
            self.check(results)
        return times

    def check(self, results) -> None:
        """Verify each cell from its labels and the raw edge list."""
        for result, _, (inst, coloring) in results:
            self.attempted += 1
            g = inst.graph
            problems = verify_decomposition(g.edges, g.costs, inst.weights,
                                            coloring.labels, result.scenario.k,
                                            result.metrics)
            if self.draws <= MIN_DRAWS:
                self.ratios.append(result.metrics["bound_ratio_thm5"])
            if problems:
                self.failed += 1
                self.problems.append(f"{result.scenario_id}: {'; '.join(problems)}")

    def e2e(self, times: list[float]) -> dict:
        return {
            "throughput_per_s": len(times) / sum(times),
            "latency_p50_ms": median(times) * 1e3,
            "latency_tail_ms": percentile(times, 0.90) * 1e3,
            "bound_ratio_mean": sum(self.ratios) / len(self.ratios),
        }


class LayerTotals:
    """Span rollups and counters summed over the traced rounds."""

    def __init__(self):
        from repro.obs import spans_snapshot

        self.spans: dict = {}
        self.solver: dict = {}
        self.oracle = [0, 0]
        self.instances = [0, 0]
        self.wall = 0.0
        self.cells = 0
        self._before = spans_snapshot()

    def __call__(self, results, cache) -> None:
        from repro.obs import spans_snapshot
        from repro.separators.solve import solver_stats

        now = spans_snapshot()
        for path, (c, s) in spans_diff(self._before, now).items():
            old = self.spans.get(path, (0, 0.0))
            self.spans[path] = (old[0] + c, old[1] + s)
        self._before = now
        stats = solver_stats()
        for key, value in stats["counters"].items():
            self.solver[key] = self.solver.get(key, 0) + value
        self.oracle[0] += stats["cache"]["hits"]
        self.oracle[1] += stats["cache"]["misses"]
        self.instances[0] += cache.hits
        self.instances[1] += cache.misses
        self.wall += sum(dt for _, dt, _ in results)
        self.cells += len(results)

    def layers(self, compiled: bool) -> dict:
        phases = {p: span_total(self.spans, f"scenario.{p}")[1]
                  for p in ("instance", "algorithm", "evaluate")}
        hits, misses = self.instances
        return {
            **{f"runtime.{p}_s": t / self.cells for p, t in phases.items()},
            "runtime.instance_cache_hit_ratio": ratio(hits, hits + misses),
            "runtime.scenario_residual_s": (self.wall - sum(phases.values())) / self.cells,
            **pipeline_layers(self.spans, "scenario.algorithm", self.cells, self.solver,
                              *self.oracle, compiled),
        }


def run(name: str, seed: int, seconds: float, trace: bool, compiled: bool) -> dict:
    from repro.runtime import Scenario

    cfg = CONFIGS[name]
    sweep = Sweep(cfg, seed)
    out = {}
    if not trace:
        out["setup_s"] = measure_setup()
    set_telemetry(False)
    # one small untimed cell absorbs lazy imports and loads the FM loop
    sweep.run_round([Scenario(family="grid", size=16, k=8, weights="zipf",
                              costs=cfg["costs"])])
    if not trace:
        out["e2e"] = {**sweep.e2e(sweep.measure(seconds)), "peak_rss_mb": self_peak_rss_mb()}
    else:
        # half the time untraced, half traced: the difference is the
        # tracing overhead
        untraced = sweep.e2e(sweep.measure(seconds / 2))
        set_telemetry(True)
        totals = LayerTotals()
        traced = sweep.e2e(sweep.measure(seconds / 2, on_round=totals))
        out["layers"] = layers = totals.layers(compiled)
        layers["trace.latency_p50_delta_ms"] = traced["latency_p50_ms"] - untraced["latency_p50_ms"]
        layers["trace.throughput_delta_per_s"] = (traced["throughput_per_s"]
                                                  - untraced["throughput_per_s"])
        metric, floor = cfg["regime"]
        if layers[metric] < floor:
            sweep.problems.append(f"regime drift: {metric} = {layers[metric]:.3f} < {floor}")
    out.update(attempted=sweep.attempted, failed=sweep.failed, problems=sweep.problems)
    return out
