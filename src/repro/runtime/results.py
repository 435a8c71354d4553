"""Structured sweep results: JSON schema, serialization, baseline gates.

Schema (version 1)::

    {
      "schema_version": 1,
      "grid": {...},                  # the expanded axes (optional)
      "results": [
        {
          "scenario_id": "dc63fdc7ba99",
          "scenario": {family, size, k, algorithm, weights, costs, seed, params?},
          "instance": {n, m, cost_norm_p2, cost_max, max_cost_degree,
                       weight_total, weight_max},
          "metrics": {max_boundary, avg_boundary, total_cut, balance_margin,
                      strictly_balanced, bound_ratio_thm5}
        }, ...
      ],
      "timing": {"<scenario_id>": wall_clock_s, ...},  # only with timing=True
      "telemetry": {"<scenario_id>": {counters, gauges, histograms, spans}, ...}  # ditto
    }

``telemetry`` holds each scenario's obs-registry delta
(:func:`repro.obs.snapshot_delta`): solver counts, kernel passes, spans.

``results`` is fully deterministic for a fixed scenario grid — identical for
any worker count — which is why wall-clock lives in a separate ``timing``
block that is *opt-in*: stripping it makes the file byte-reproducible and
diff-friendly, and CI regression gates run on the deterministic metrics.

Floats are rounded to 12 significant digits before serialization so the file
does not depend on accidental last-bit noise from BLAS thread counts.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass

from .scenario import Scenario

__all__ = [
    "SCHEMA_VERSION",
    "ScenarioResult",
    "results_to_dict",
    "results_from_dict",
    "write_results",
    "read_results",
    "results_table",
    "compare_to_baseline",
    "BaselineReport",
]

SCHEMA_VERSION = 1


def _round(x: float) -> float:
    if x == 0 or not math.isfinite(x):
        return x
    return float(f"{x:.12g}")


@dataclass
class ScenarioResult:
    """Everything measured for one scenario.

    ``instance`` carries the norm statistics the paper's bounds are built
    from, so Theorem 4/5 right-hand sides can be re-derived from the JSON
    alone (``rhs5 = cost_norm_p2 / sqrt(k) + cost_max``).
    """

    scenario: Scenario
    instance: dict
    metrics: dict
    wall_clock_s: float = 0.0
    #: what the obs registry gained during this scenario (a snapshot delta:
    #: solver counts, kernel passes, span rollups).  Volatile like
    #: wall-clock — solve-cache state leaks across scenarios — so it ships
    #: only in the opt-in ``timing``-tier ``telemetry`` block.  Picklable:
    #: this is how sweep workers ship their telemetry.
    telemetry: dict | None = None

    @property
    def scenario_id(self) -> str:
        return self.scenario.scenario_id()

    def record(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "scenario": self.scenario.spec(),
            "instance": {k: _round(v) if isinstance(v, float) else v for k, v in self.instance.items()},
            "metrics": {k: _round(v) if isinstance(v, float) else v for k, v in self.metrics.items()},
        }


def results_to_dict(results: list[ScenarioResult], grid=None, timing: bool = False) -> dict:
    doc = {"schema_version": SCHEMA_VERSION}
    if grid is not None:
        doc["grid"] = grid.spec() if hasattr(grid, "spec") else dict(grid)
    doc["results"] = [r.record() for r in results]
    if timing:
        doc["timing"] = {r.scenario_id: round(r.wall_clock_s, 6) for r in results}
        doc["telemetry"] = {r.scenario_id: r.telemetry for r in results if r.telemetry}
    return doc


def results_from_dict(doc: dict) -> list[ScenarioResult]:
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
    timing = doc.get("timing", {})
    telemetry = doc.get("telemetry", {})
    out = []
    for rec in doc["results"]:
        spec = dict(rec["scenario"])
        params = tuple(sorted(spec.pop("params", {}).items()))
        s = Scenario(params=params, **spec)
        if s.scenario_id() != rec["scenario_id"]:
            raise ValueError(f"scenario_id mismatch for {rec['scenario_id']}")
        out.append(
            ScenarioResult(
                scenario=s,
                instance=dict(rec["instance"]),
                metrics=dict(rec["metrics"]),
                wall_clock_s=float(timing.get(rec["scenario_id"], 0.0)),
                telemetry=telemetry.get(rec["scenario_id"]),
            )
        )
    return out


def write_results(path, results: list[ScenarioResult], grid=None, timing: bool = False) -> None:
    doc = results_to_dict(results, grid=grid, timing=timing)
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    pathlib.Path(path).write_text(text)


def read_results(path) -> list[ScenarioResult]:
    return results_from_dict(json.loads(pathlib.Path(path).read_text()))


def results_table(results: list[ScenarioResult], title: str = "sweep results"):
    """Render results as the repo's fixed-width :class:`Table`."""
    from ..analysis import Table

    table = Table(
        title,
        ["scenario", "k", "algorithm", "n", "max ∂", "avg ∂", "margin", "balanced", "thm5 ratio"],
    )
    for r in results:
        s = r.scenario
        m = r.metrics
        table.add(
            f"{s.family}/{s.size}/{s.weights}/{s.costs}/s{s.seed}",
            s.k,
            s.algorithm,
            r.instance["n"],
            m["max_boundary"],
            m["avg_boundary"],
            m["balance_margin"],
            bool(m["strictly_balanced"]),
            m.get("bound_ratio_thm5", float("nan")),
        )
    return table


@dataclass
class BaselineReport:
    """Outcome of gating current results against a checked-in baseline."""

    regressions: list[dict]
    missing: list[str]
    compared: int

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [f"baseline gate: compared {self.compared} scenarios"]
        for r in self.regressions:
            lines.append(
                f"  REGRESSION {r['scenario_id']} {r['metric']}: "
                f"{r['baseline']:.6g} -> {r['current']:.6g} "
                f"({100 * (r['ratio'] - 1):+.1f}%, tolerance {100 * r['tolerance']:.0f}%)"
            )
        for sid in self.missing:
            lines.append(f"  note: baseline has no entry for {sid} (skipped)")
        if self.ok:
            lines.append("  ok: no metric regressed beyond tolerance")
        return "\n".join(lines)


#: metrics gated by :func:`compare_to_baseline`; all are lower-is-better.
GATED_METRICS = ("max_boundary", "avg_boundary")


def compare_to_baseline(
    current: list[ScenarioResult],
    baseline: list[ScenarioResult],
    tolerance: float = 0.20,
) -> BaselineReport:
    """Fail scenarios whose quality metrics regressed more than ``tolerance``.

    Matching is by scenario id; scenarios absent from the baseline are
    reported but do not fail the gate (so grids can grow).  A coloring that
    loses strict balance while the baseline had it is always a regression.
    """
    base = {r.scenario_id: r for r in baseline}
    regressions, missing = [], []
    compared = 0
    for cur in current:
        ref = base.get(cur.scenario_id)
        if ref is None:
            missing.append(cur.scenario_id)
            continue
        compared += 1
        if ref.metrics.get("strictly_balanced") and not cur.metrics.get("strictly_balanced"):
            regressions.append(
                {
                    "scenario_id": cur.scenario_id,
                    "metric": "strictly_balanced",
                    "baseline": 1.0,
                    "current": 0.0,
                    "ratio": float("inf"),
                    "tolerance": tolerance,
                }
            )
        for metric in GATED_METRICS:
            b, c = ref.metrics.get(metric), cur.metrics.get(metric)
            if b is None or c is None:
                continue
            floor = max(abs(b), 1e-12)
            ratio = c / floor
            if c > b and ratio > 1.0 + tolerance:
                regressions.append(
                    {
                        "scenario_id": cur.scenario_id,
                        "metric": metric,
                        "baseline": b,
                        "current": c,
                        "ratio": ratio,
                        "tolerance": tolerance,
                    }
                )
    return BaselineReport(regressions=regressions, missing=missing, compared=compared)
