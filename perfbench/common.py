"""Shared pieces of the repository benchmark: process environment,
statistics, span arithmetic, memory readings and the independent
decomposition check.

``prepare_environment`` must run before numpy is imported anywhere in the
process: it pins the BLAS/OpenMP thread pools to one thread, which every
child process (the ``repro serve`` server and its shard workers) inherits
through the environment.
"""

from __future__ import annotations

import math
import os
import pathlib
import platform
import resource
import statistics
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: the benchmark runs from the root of a checkout of the repository
ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"
#: everything the benchmark writes lives under this directory of the
#: checkout: the compiled FM loop, journals and temporary files
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def prepare_environment() -> dict:
    """Pin thread pools, drop inherited ``REPRO_*`` variables, point caches
    and temp files into the checkout and expose ``src``.

    Returns the dropped ``REPRO_*`` variables for the environment record:
    every run configures the program the same way.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    inherited = {k: os.environ.pop(k) for k in list(os.environ) if k.startswith("REPRO_")}
    (BUILD / "cache").mkdir(parents=True, exist_ok=True)
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    # the compiled FM loop is cached under $XDG_CACHE_HOME/repro
    os.environ["XDG_CACHE_HOME"] = str(BUILD / "cache")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return inherited


def set_telemetry(on: bool) -> None:
    """Switch the program's own spans/counters on or off in this process
    and in every process started afterwards."""
    os.environ["REPRO_TELEMETRY"] = "1" if on else "0"
    from repro.obs import reload_enabled

    reload_enabled()


def environment_record(compiled_loop: bool, inherited: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "inherited_repro_vars": inherited,
        "compiled_fm_loop": compiled_loop,
        "comparable": compiled_loop,
    }


# -- statistics ------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile (the same rule ``repro loadgen`` reports)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values) -> float:
    return statistics.median(values)


def windowed(events, start: float, seconds: float, tail_q: float,
             windows: int = 5) -> dict:
    """Throughput and latency as medians over equal sub-windows.

    ``events`` are ``(finish time, latency seconds)`` pairs.  The measured
    span is cut into ``windows`` slices; each slice yields its throughput,
    median latency and ``tail_q`` latency, and the median across slices is
    reported, so a slow spell of the machine moves one slice, not the
    figure.
    """
    width = seconds / windows
    slices = [[] for _ in range(windows)]
    for finish, latency in events:
        i = int((finish - start) // width)
        if 0 <= i < windows:
            slices[i].append(latency)
    busy = [s for s in slices if s]
    return {
        "throughput_per_s": median([len(s) / width for s in slices]),
        "latency_p50_ms": median([median(s) for s in busy]) * 1e3,
        "latency_tail_ms": median([percentile(s, tail_q) for s in busy]) * 1e3,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- span arithmetic over ``path -> {calls, seconds}`` rollups --------------

def spans_diff(before: dict, after: dict) -> dict:
    """Per-path ``(calls, seconds)`` accumulated between two snapshots.

    Accepts both snapshot shapes the program exports: the in-process
    ``spans_snapshot()`` tuples and the ``stats`` op's dicts.
    """
    def pair(v):
        return (v["calls"], v["seconds"]) if isinstance(v, dict) else (v[0], v[1])

    out = {}
    for path, value in after.items():
        calls, seconds = pair(value)
        b_calls, b_seconds = pair(before[path]) if path in before else (0, 0.0)
        if calls - b_calls or seconds - b_seconds > 0:
            out[path] = (calls - b_calls, seconds - b_seconds)
    return out


def span_total(spans: dict, name: str, *under: str) -> tuple[int, float]:
    """Calls and seconds of every span path ending in ``name`` and nested
    under each of the span names ``under``."""
    calls = seconds = 0
    for path, (c, s) in spans.items():
        parts = path.split("/")
        if parts[-1] == name and all(u in parts[:-1] for u in under):
            calls += c
            seconds += s
    return calls, seconds


def pipeline_layers(spans: dict, root: str, ops: int, solver: dict,
                    oracle_hits: int, oracle_misses: int, compiled: bool) -> dict:
    """Separator and pipeline-stage figures per operation, from span
    rollups and the eigensolver counters.  ``root`` is the span enclosing
    the algorithm (``scenario.algorithm`` for cells, ``stream.step`` for
    streaming steps); its time is the denominator of the shares."""
    def under(name, *parents):
        return span_total(spans, name, root, *parents)

    def per(x):
        return x / ops if ops else 0.0

    alg = span_total(spans, root)[1]
    stages = {s: under(f"pipeline.{s}")[1] for s in ("prop7", "prop11", "prop12", "refine")}
    split_calls, split_s = under("oracle.split")
    kcalls, kpass = under("kernel.pass")
    return {
        "separators.split_calls": per(split_calls),
        "separators.split_s": per(split_s),
        "separators.split_share": ratio(split_s, alg),
        "separators.solves": per(solver.get("solves", 0)),
        "separators.dense_solves": per(solver.get("dense", 0)),
        "separators.iterative_solves": per(solver.get("iterative", 0)),
        "separators.warm_starts": per(solver.get("warm_starts", 0)),
        "separators.fallbacks": per(solver.get("fallbacks", 0)),
        "separators.cache_hit_ratio": ratio(oracle_hits, oracle_hits + oracle_misses),
        **{f"core.{s}_s": per(t) for s, t in stages.items()},
        "core.prop7_self_s": per(stages["prop7"] - under("oracle.split", "pipeline.prop7")[1]),
        "core.refine_self_s": per(stages["refine"] - under("kernel.pass", "pipeline.refine")[1]),
        "core.algorithm_residual_s": per(alg - sum(stages.values())) if root == "scenario.algorithm"
        else 0.0,
        "core.kernel_pass_calls": per(kcalls),
        "core.kernel_pass_s": per(kpass),
        "core.kernel_pass_share": ratio(kpass, alg),
        "core.kernel_c_loaded": 1.0 if compiled else 0.0,
    }


# -- memory ------------------------------------------------------------------

def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak resident set sizes of ``pid`` and all its descendants."""
    children: dict[int, list[int]] = {}
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    total_kb = 0
    todo = [pid]
    while todo:
        p = todo.pop()
        todo.extend(children.get(p, []))
        try:
            for line in pathlib.Path(f"/proc/{p}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


# -- independent output check -----------------------------------------------

def verify_decomposition(edges, costs, weights, labels, k: int, metrics: dict) -> list[str]:
    """Check one decomposition from first principles in plain numpy.

    Works on the raw edge list only: every vertex carries a class in
    ``[0, k)``, the classes are strictly balanced (Definition 1: every class
    weight within ``(1 - 1/k) * max weight`` of the average), and the record's
    max boundary and Theorem-5 bound ratio match a recomputation.
    """
    import numpy as np

    problems = []
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        return [f"labels outside [0, {k})"]
    u, v = edges[:, 0], edges[:, 1]
    cut = labels[u] != labels[v]
    per_class = (np.bincount(labels[u][cut], costs[cut], minlength=k)
                 + np.bincount(labels[v][cut], costs[cut], minlength=k))
    max_boundary = float(per_class.max())
    class_w = np.bincount(labels, weights, minlength=k)
    wmax = float(weights.max())
    deviation = float(np.abs(class_w - weights.sum() / k).max())
    if deviation > (1.0 - 1.0 / k) * wmax + 1e-7 * wmax:
        problems.append(f"not strictly balanced (deviation {deviation:.6g})")
    if not math.isclose(max_boundary, metrics["max_boundary"], rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"max boundary {max_boundary!r} != record {metrics['max_boundary']!r}")
    rhs = math.sqrt(float(np.sum(costs ** 2))) / math.sqrt(k) + float(costs.max())
    if not math.isclose(max_boundary / rhs, metrics["bound_ratio_thm5"], rel_tol=1e-9):
        problems.append("Theorem-5 bound ratio disagrees with the record")
    return problems
