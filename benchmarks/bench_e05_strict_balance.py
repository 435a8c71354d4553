"""E5 — Definition 1: the strict balance window.

Claim: the pipeline's balance window ``(1 − 1/k)·‖w‖∞`` is met for arbitrary
weights, is the same guarantee greedy bin-packing gives, and is essentially
unimprovable (for many ``(k, ‖w‖∞, ‖w‖₁)`` residues some deviation is
forced).

Measured: Definition 1 margin across hostile weight families × k, for our
pipeline and greedy; window utilization (how much of the allowance the worst
class uses); and a forced-deviation instance where *every* coloring must use
most of the window.

The families × k × algorithm grid runs through the sweep engine; the
deviation/window column is derived from the JSON records
(``1 − balance_margin / ((1 − 1/k)·‖w‖∞)``).  The forced-deviation residue
study stays bespoke but dumps its rows into ``out/e05.json`` too.
"""

import numpy as np

from repro.analysis import Table
from repro.core import min_max_partition
from repro.graphs import grid_graph, unit_weights
from repro.runtime import ScenarioGrid, run_scenario, run_sweep
from repro.separators import make_oracle

ORACLE = make_oracle("bfs")
WEIGHT_FAMILIES = ["unit", "zipf", "bimodal", "one-heavy", "exponential", "geometric"]


def dev_over_window(rec: dict) -> float:
    """Definition 1 deviation / window, recomputed from a JSON record."""
    k = rec["scenario"]["k"]
    window = (1.0 - 1.0 / k) * rec["instance"]["weight_max"]
    return 1.0 - rec["metrics"]["balance_margin"] / window


def test_e05_strict_balance(benchmark, save_table, save_sweep, save_json):
    grid = ScenarioGrid(
        family="grid", size=16, k=[3, 8],
        algorithm=["minmax", "greedy"], weights=WEIGHT_FAMILIES,
        params=[{"oracle": "bfs"}],
    )
    results = run_sweep(grid)
    save_sweep(results, "e05", key="window", grid=grid)

    by_cell = {
        (r.scenario.weights, r.scenario.k, r.scenario.algorithm): r.record() for r in results
    }
    table = Table(
        "E5 Definition 1 window — deviation / allowed window (≤ 1 = strictly balanced)",
        ["weights", "k", "ours dev/window", "greedy dev/window", "ours max ∂", "greedy max ∂"],
        note="both meet the window; only ours also controls the boundary",
    )
    for name in WEIGHT_FAMILIES:
        for k in [3, 8]:
            ours = by_cell[(name, k, "minmax")]
            greedy = by_cell[(name, k, "greedy")]
            dev_ours = dev_over_window(ours)
            dev_greedy = dev_over_window(greedy)
            table.add(
                name, k, dev_ours, dev_greedy,
                ours["metrics"]["max_boundary"], greedy["metrics"]["max_boundary"],
            )
            assert ours["metrics"]["strictly_balanced"], (name, k)
            assert dev_ours <= 1.0 + 1e-7
            assert dev_greedy <= 1.0 + 1e-7
    save_table(table, "e05")

    # forced-deviation residue: n·unit weights with k ∤ n forces deviation
    forced = Table(
        "E5 forced window use — unit weights, k ∤ n (every coloring deviates)",
        ["n", "k", "forced min deviation", "ours deviation", "window"],
    )
    forced_rows = []
    for n_side, k in [(7, 4), (9, 7), (11, 8)]:
        gg = grid_graph(n_side, n_side)
        n = gg.n
        w = unit_weights(gg)
        res = min_max_partition(gg, k, weights=w, oracle=ORACLE)
        # with unit weights and k ∤ n, some class count differs from n/k by
        # ≥ the fractional residue
        frac = n / k - np.floor(n / k)
        forced_dev = min(frac, 1 - frac)
        dev = np.abs(res.class_weights() - n / k).max()
        forced.add(n, k, forced_dev, dev, (1 - 1 / k) * 1.0)
        forced_rows.append(
            {"n": n, "k": k, "forced_min_deviation": float(forced_dev), "deviation": float(dev)}
        )
        assert dev >= forced_dev - 1e-9
        assert res.is_strictly_balanced()
    save_table(forced, "e05")
    save_json(forced_rows, "e05", key="forced-deviation")

    scenario = results[0].scenario.with_(k=8, weights="zipf")
    benchmark.pedantic(lambda: run_scenario(scenario), rounds=1, iterations=1)
