"""Recursive partitioners leave no reference cycles behind.

A nested function that calls itself is a cycle (function -> closure cell
-> function), so everything it closes over — the graph, weights and
oracle — survives the call until a full garbage collection.
With the collector disabled, a call must leave nothing for it to find.
"""

import gc

import numpy as np
import pytest

from repro.baselines.kst import kst_partition
from repro.baselines.recursive_bisection import recursive_bisection
from repro.graphs import grid_graph
from repro.lowerbounds.exact import exact_min_max_boundary
from repro.runtime import InstanceCache, Scenario, run_scenario
from repro.separators.conversion import nested_dissection_order


def unreachable_after(fn) -> int:
    """Objects only the cycle collector could free after one ``fn()``."""
    fn()  # warm lazy imports and process-wide caches first
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


CALLS = {
    "recursive_bisection": lambda: recursive_bisection(grid_graph(8, 8), 4),
    "kst_partition": lambda: kst_partition(grid_graph(8, 8), 4),
    "nested_dissection_order": lambda: nested_dissection_order(grid_graph(8, 8)),
    "exact_min_max_boundary": lambda: exact_min_max_boundary(grid_graph(3, 3), np.ones(9), 2),
    # the minmax pipeline seeds its Lemma 6 stage with recursive_bisection
    "minmax_cell": lambda: run_scenario(
        Scenario(family="mesh", size=10, k=4, weights="zipf", seed=3), cache=InstanceCache()),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_call_leaves_no_cycle(name):
    assert unreachable_after(CALLS[name]) == 0
