"""Repository benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-unit --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with the program's telemetry
off; ``--trace 1`` spends half the time untraced and half traced and
reports the per-layer metrics, the reconciliation residuals and the
tracing overhead.  The metric names and units come from ``BENCHMARK.json``
at the root of the checkout.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Diagnostics
(environment record, failed checks) go to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys

import common

WORKLOADS = ("sweep-unit", "sweep-lognormal", "service-zipf", "service-churn")


def build() -> bool:
    """Compile the FM loop into the checkout's cache (once per checkout).

    Runs before anything is timed, so every measured set-up starts with the
    compiled artifact in place.
    """
    from repro.core._bucketc import load_bucket_loop

    return load_bucket_loop() is not None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = common.ROOT / "BENCHMARK.json"
    if not (common.SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print("benchmark: run from the root of a repository checkout "
              "(src/repro and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    # before anything imports numpy: the thread pins must be in place
    inherited = common.prepare_environment()
    compiled = build()
    env = common.environment_record(compiled, inherited)
    print(f"benchmark: environment {json.dumps(env, sort_keys=True)}", file=sys.stderr)
    if not compiled:
        print("benchmark: WARNING the compiled FM loop is unavailable — these "
              "figures are NOT comparable with runs that have it", file=sys.stderr)

    if args.workload.startswith("sweep"):
        import sweeps as workload
    elif args.workload == "service-zipf":
        import zipf as workload
    else:
        import churn as workload
    out = workload.run(args.workload, args.seed, args.seconds, bool(args.trace), compiled)

    if args.trace:
        # a layer the workload does not reach reads 0 (no stream steps in a sweep)
        values = out["layers"]
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {"setup_s": out["setup_s"], **out["e2e"]}
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for problem in out["problems"]:
        print(f"benchmark: FAILED CHECK {problem}", file=sys.stderr)
    result = {
        "correct": not out["problems"],
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
