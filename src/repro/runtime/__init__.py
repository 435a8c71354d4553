"""Parallel scenario-sweep engine.

Declarative experiment grids (:class:`ScenarioGrid`) expand into
self-contained :class:`Scenario` cells that run anywhere — inline under
pytest or fanned out over a :class:`~concurrent.futures.ProcessPoolExecutor`
— with deterministic per-scenario seeding, content-hash instance caching,
and structured JSON results (:mod:`repro.runtime.results`).

Quick use::

    from repro.runtime import ScenarioGrid, run_sweep, write_results

    grid = ScenarioGrid(family=["grid", "mesh"], size=[16], k=[2, 8],
                        weights=["unit", "zipf"])
    results = run_sweep(grid, workers=4)
    write_results("sweep.json", results, grid=grid)

The ``repro sweep`` CLI subcommand exposes the same engine from the shell.
"""

from .algorithms import ALGORITHMS, run_algorithm
from .engine import run_scenario, run_sweep
from .instances import COST_DISTS, FAMILIES, WEIGHT_DISTS, Instance, InstanceCache, build_instance
from .results import (
    SCHEMA_VERSION,
    BaselineReport,
    ScenarioResult,
    compare_to_baseline,
    read_results,
    results_from_dict,
    results_table,
    results_to_dict,
    write_results,
)
from .scenario import Scenario, ScenarioGrid, derive_seed

__all__ = [
    "ALGORITHMS",
    "COST_DISTS",
    "FAMILIES",
    "WEIGHT_DISTS",
    "SCHEMA_VERSION",
    "BaselineReport",
    "Instance",
    "InstanceCache",
    "Scenario",
    "ScenarioGrid",
    "ScenarioResult",
    "build_instance",
    "compare_to_baseline",
    "derive_seed",
    "read_results",
    "results_from_dict",
    "results_table",
    "results_to_dict",
    "run_algorithm",
    "run_scenario",
    "run_sweep",
    "write_results",
]
