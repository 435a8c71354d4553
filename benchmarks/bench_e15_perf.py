"""E15 — FM kernel performance: bucket queues vs gain tables vs recompute.

The refine primitive every layer funnels through (Theorem 4 post-pass,
streaming repair, multilevel uncoarsening) has climbed two perf steps:
the historical recompute-everything heap loop (``reference``), the
incremental gain-table kernel (``incremental``), and now the bucket-queue
kernel (``bucket``, the default) whose dense passes run as one call into
the runtime-compiled native module.  This benchmark is the perf trajectory
for that hot path:

* **Refine-dominated workloads** — random strictly-balanced labelings on
  large grids, refined for several rounds.  Two ablations per size:
  ``refine/gridN`` (old stack = reference kernel + full pair-cost rescan vs
  the current default stack) with a **5×** full-mode headline floor, and
  ``refine-bucket/gridN`` (gain-table kernel vs bucket kernel on the
  identical new stack) with a **3×** full-mode headline floor.  All three
  kernels must produce **byte-identical** labels on every case.
* **Hotspot churn traces** — streaming sessions replaying mutation traces
  with the ``repair`` policy under both the reference and default kernels;
  snapshots must match byte-for-byte.

Results land in ``benchmarks/out/e15.{txt,json}`` (idempotent, like every
bench) and — as the machine-readable perf-trajectory artifact CI gates and
uploads — in ``BENCH_e15.json`` at the repo root.  The checked-in
``benchmarks/baselines/perf_baseline.json`` records the reference speedups;
``.github/scripts/perf-gate.py`` fails CI when a run regresses >20% against
it.  Refresh the baseline by copying a full run's ``BENCH_e15.json``
``cases`` block (see README "performance").

``REPRO_E15_SMOKE=1`` shrinks the grid for the per-PR ``perf-smoke`` CI job;
the nightly job runs the full configuration.
"""

import json
import os
import pathlib
import time

import numpy as np

from repro.analysis import Table
from repro.core import Coloring, kway_refine
from repro.core.kernels import use_kernel
from repro.graphs import grid_graph
from repro.runtime import Scenario, build_instance
from repro.stream import StreamSession

SMOKE = bool(int(os.environ.get("REPRO_E15_SMOKE", "0") or "0"))

#: grid sides for the refine-dominated workload; the last is the headline
REFINE_SIZES = (16, 24) if SMOKE else (24, 48, 64)
REFINE_K = 8
REFINE_ROUNDS = 4
#: best-of repeats per timing (absorbs scheduler noise; the smoke workloads
#: are tens of ms, so single samples would make the CI ratio gate flaky)
REPEATS = 3

CHURN_SIZES = (16,) if SMOKE else (24, 40)
CHURN_TRACES = ("hotspot",) if SMOKE else ("hotspot", "random-churn")
CHURN_STEPS = 6 if SMOKE else 12

#: headline floor: new stack vs old stack on the largest refine workload
MIN_SPEEDUP = 5.0
#: headline floor: bucket kernel vs gain-table kernel on the same new stack
MIN_BUCKET_SPEEDUP = 3.0
#: smoke grids are small (bucket state setup is a larger share of the pass),
#: so the smoke floors are deliberately modest — the baseline gate carries
#: the regression sensitivity there
SMOKE_MIN_SPEEDUP = 2.0
SMOKE_MIN_BUCKET_SPEEDUP = 1.3

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _shuffled_balanced_labels(n: int, k: int, seed: int) -> np.ndarray:
    assert n % k == 0, "bench sizes are chosen divisible by k"
    labels = np.repeat(np.arange(k), n // k).astype(np.int64)
    np.random.default_rng(seed).shuffle(labels)
    return labels


def _time_refine(side: int, kernel: str) -> tuple[float, np.ndarray]:
    """Best-of-REPEATS wall clock of one full refine stack on a fresh graph.

    ``reference`` times the *old stack* (reference kernel + full pair-cost
    rescan every round); the other kernels time the current stack.  A fresh
    graph per repeat keeps the lazy CSR/cost caches *inside* the timed
    region, so each kernel pays for its own setup.
    """
    best = float("inf")
    out = None
    for _ in range(REPEATS):
        g = grid_graph(side, side)
        w = np.ones(g.n)
        chi = Coloring(_shuffled_balanced_labels(g.n, REFINE_K, seed=0), REFINE_K)
        t0 = time.perf_counter()
        if kernel == "reference":
            res = kway_refine(g, chi, w, rounds=REFINE_ROUNDS,
                              incremental_pair_costs=False, kernel="reference")
        else:
            res = kway_refine(g, chi, w, rounds=REFINE_ROUNDS, kernel=kernel)
        best = min(best, time.perf_counter() - t0)
        out = res.labels
    return best, out


def _run_churn(trace: str, size: int, *, reference: bool):
    """Replay a mutation trace with the repair policy.

    Returns (best-of-REPEATS repair seconds incl. monitor-triggered
    recomputes beyond the initial solve, snapshots — identical across
    repeats by determinism).
    """
    base = Scenario(
        family="grid", size=size, k=8, algorithm="stream", weights="zipf",
        params={"trace": trace, "steps": CHURN_STEPS, "ops": 8},
    )
    inst = build_instance(base)

    def _go():
        session = StreamSession(inst, base)
        init = session.recompute_seconds
        snaps = []
        while session.trace_remaining:
            session.step()
            snaps.append(session.snapshot())
        return session.repair_seconds + (session.recompute_seconds - init), snaps

    best = float("inf")
    out = None
    for _ in range(REPEATS):
        if reference:
            with use_kernel("reference"):
                t, snaps = _go()
        else:
            t, snaps = _go()
        if out is not None:
            assert snaps == out, "churn replay must be deterministic across repeats"
        best = min(best, t)
        out = snaps
    return best, out


def test_e15_refine_kernel_ablation(save_table, save_json):
    table = Table(
        "E15 FM kernel — bucket queue vs gain table vs recompute-on-pop "
        f"(k={REFINE_K}, {REFINE_ROUNDS} rounds, random balanced start"
        + (", smoke grid" if SMOKE else "")
        + ")",
        ["workload", "n", "old s", "new s", "speedup", "identical"],
        note="refine/* : old = reference kernel + full pair-cost rescan, "
        "new = bucket kernel + incremental pair costs; refine-bucket/* : "
        "old = gain-table kernel, new = bucket kernel (same stack); "
        "identical = byte-identical output labels across all kernels",
    )
    cases = {}
    for side in REFINE_SIZES:
        t_ref, lab_ref = _time_refine(side, "reference")
        t_inc, lab_inc = _time_refine(side, "incremental")
        t_bkt, lab_bkt = _time_refine(side, "bucket")
        identical = bool(
            np.array_equal(lab_ref, lab_bkt) and np.array_equal(lab_inc, lab_bkt)
        )
        assert identical, f"kernel outputs diverged at grid {side}"
        speedup = t_ref / max(t_bkt, 1e-9)
        cases[f"refine/grid{side}"] = {
            "n": side * side,
            "old_s": round(t_ref, 4),
            "new_s": round(t_bkt, 4),
            "speedup": round(speedup, 2),
            "identical": identical,
            "headline": side == REFINE_SIZES[-1] and not SMOKE,
        }
        table.add(f"refine grid {side}x{side}", side * side,
                  round(t_ref, 3), round(t_bkt, 3), f"{speedup:.1f}x", identical)
        bucket_speedup = t_inc / max(t_bkt, 1e-9)
        # not "headline" in the gate's sense (that demands the 5x old-stack
        # floor); the baseline's per-case "min" carries the 3x bucket floor
        cases[f"refine-bucket/grid{side}"] = {
            "n": side * side,
            "old_s": round(t_inc, 4),
            "new_s": round(t_bkt, 4),
            "speedup": round(bucket_speedup, 2),
            "identical": identical,
            "headline": False,
        }
        table.add(f"refine-bucket grid {side}x{side}", side * side,
                  round(t_inc, 3), round(t_bkt, 3), f"{bucket_speedup:.1f}x",
                  identical)

    for trace in CHURN_TRACES:
        for size in CHURN_SIZES:
            t_old, snaps_old = _run_churn(trace, size, reference=True)
            t_new, snaps_new = _run_churn(trace, size, reference=False)
            identical = snaps_old == snaps_new
            speedup = t_old / max(t_new, 1e-9)
            cases[f"churn/{trace}/grid{size}"] = {
                "n": size * size,
                "old_s": round(t_old, 4),
                "new_s": round(t_new, 4),
                "speedup": round(speedup, 2),
                "identical": bool(identical),
                "headline": False,
            }
            table.add(f"churn {trace} {size}x{size}", size * size,
                      round(t_old, 3), round(t_new, 3), f"{speedup:.1f}x", identical)
            assert identical, f"churn snapshots diverged for {trace}/{size}"

    save_table(table, "e15")
    save_json(cases, "e15", key="smoke-kernel-ablation" if SMOKE else "kernel-ablation")

    # the perf-trajectory artifact CI gates against the checked-in baseline;
    # "mode" lets the gate demand every baseline case recorded for this mode
    payload = {
        "bench": "e15",
        "mode": "smoke" if SMOKE else "full",
        "cases": cases,
    }
    (ROOT / "BENCH_e15.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n"
    )

    # headlines at the largest configured size: the full stack win over the
    # historical loop, and the bucket kernel's win over the gain tables
    last = REFINE_SIZES[-1]
    headline = cases[f"refine/grid{last}"]
    bucket_headline = cases[f"refine-bucket/grid{last}"]
    if not SMOKE:
        assert headline["speedup"] >= MIN_SPEEDUP, headline
        assert bucket_headline["speedup"] >= MIN_BUCKET_SPEEDUP, bucket_headline
    else:
        # smoke grid is small; still demand a real win so the CI job means
        # something even before the baseline gate runs
        assert headline["speedup"] >= SMOKE_MIN_SPEEDUP, headline
        assert bucket_headline["speedup"] >= SMOKE_MIN_BUCKET_SPEEDUP, bucket_headline
