"""Spectral solve cache and the one ``oracle.split`` entry point.

The Theorem 4 pipeline calls the splitting oracle once per recursion step on
closely related subgraphs of one host graph, and the sweep/service layers
re-solve the *same* graphs across scenarios (the Laplacian only sees edge
costs, so every ``k``/weight/algorithm combination on an instance shares its
spectral orders).  :class:`SolveCache` is the process-local memo
``structural_hash -> Fiedler vector`` that exploits both.

The solver's counts (solves by path, fallbacks, cache accounting) live in
the obs registry, so they travel in its snapshots and deltas;
:func:`solver_stats` is the one view that reads them back.

Every eigensolve starts from one fixed vector
(:func:`repro.separators.orders.fiedler_vector`), so a Fiedler vector is a
function of its graph alone: a hit replaces a bitwise-identical
recomputation, two recursion paths that reach the same subgraph share one
entry, and toggling the cache (``REPRO_ORACLE_CACHE=0``) cannot change any
downstream record — the property the CI byte-identity gates hold.

Everything here is numpy-only so the substrate can import it without
cycles.
"""

from __future__ import annotations

import os

import numpy as np

from .._util import BoundedLru
from ..obs import metric_key, registry, span
from ..obs.metrics import split_metric_key

__all__ = [
    "SolveCache",
    "oracle_split",
    "cache_enabled",
    "process_cache",
    "reset_solver_state",
    "solver_stats",
]

#: env knobs — read at first use, so a parent process (``repro serve``,
#: ``repro sweep``) can set them before spawning shard workers
ENV_TOGGLE = "REPRO_ORACLE_CACHE"
ENV_SIZE = "REPRO_ORACLE_CACHE_SIZE"
DEFAULT_CACHE_SIZE = 256

#: the solver's entries in the obs registry, counted with telemetry on or
#: off (volatile diagnostics, never in a deterministic record)
SOLVER_METRICS = ("fiedler_solves", "oracle_fallbacks", "oracle_cache_hits", "oracle_cache_misses",
                  "oracle_cache_evictions", "oracle_cache_entries", "oracle_cache_maxsize")


def cache_enabled() -> bool:
    """Whether the process-local solve cache is on (default: yes)."""
    return os.environ.get(ENV_TOGGLE, "1").strip().lower() not in ("0", "false", "off", "no")


class SolveCache:
    """Bounded LRU ``structural_hash -> Fiedler vector``.

    Same eviction discipline as the service's :class:`ColoringCache` (both
    delegate to :class:`repro._util.BoundedLru`); its accounting lives in
    the obs registry (:data:`SOLVER_METRICS`), where shard snapshots carry
    it to the service.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE):
        self._entries = BoundedLru(maxsize=int(maxsize))

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> np.ndarray | None:
        vec = self._entries.get(key)
        registry().counter("oracle_cache_misses" if vec is None else "oracle_cache_hits").inc()
        return vec

    def put(self, key: str, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        vec.setflags(write=False)
        evictions = self._entries.evictions
        self._entries.put(key, vec)
        # size and bound are published by a store, so a cache that never
        # stores (``repro serve`` checking its size) adds nothing to the
        # service's merged view
        reg = registry()
        reg.counter("oracle_cache_evictions").inc(self._entries.evictions - evictions)
        reg.gauge("oracle_cache_entries").set(len(self._entries))
        reg.gauge("oracle_cache_maxsize").set(self._entries.maxsize)


_PROCESS_CACHE: SolveCache | None = None


def process_cache() -> SolveCache | None:
    """The process-local solve cache, or ``None`` when disabled by env.

    ``REPRO_ORACLE_CACHE_SIZE`` bounds it (unset: 256); anything but a
    non-negative integer raises ``ValueError`` naming the variable and its
    value, so a typo never silently runs with the default.
    """
    global _PROCESS_CACHE
    if not cache_enabled():
        return None
    if _PROCESS_CACHE is None:
        raw = os.environ.get(ENV_SIZE, str(DEFAULT_CACHE_SIZE))
        if not raw.strip().isdecimal():
            raise ValueError(f"{ENV_SIZE}={raw!r} is not a non-negative integer")
        _PROCESS_CACHE = SolveCache(maxsize=int(raw))
    return _PROCESS_CACHE


def reset_solver_state() -> None:
    """Drop the process cache and the solver's registry entries (tests,
    ablations, benchmark rounds); span rollups and other counters stay."""
    global _PROCESS_CACHE
    _PROCESS_CACHE = None
    registry().drop(*SOLVER_METRICS)


def solver_stats(snapshot: dict | None = None) -> dict:
    """``{"enabled", "counters": {solves, dense, iterative, fallbacks},
    "cache": {entries, maxsize, hits, misses, evictions} | None}`` read from
    a registry snapshot: this process's by default, or a merged one (the
    service's ``stats`` op).  ``cache`` is ``None`` until a cache stores.
    """
    snap = registry().snapshot() if snapshot is None else snapshot
    counters, gauges = snap["counters"], snap["gauges"]
    dense = counters.get(metric_key("fiedler_solves", {"path": "dense"}), 0)
    iterative = counters.get(metric_key("fiedler_solves", {"path": "iterative"}), 0)
    fallbacks = sum(value for key, value in counters.items()
                    if split_metric_key(key)[0] == "oracle_fallbacks")
    cache = None
    if "oracle_cache_maxsize" in gauges:
        cache = {
            "entries": gauges.get("oracle_cache_entries", 0),
            "maxsize": gauges["oracle_cache_maxsize"],
            "hits": counters.get("oracle_cache_hits", 0),
            "misses": counters.get("oracle_cache_misses", 0),
            "evictions": counters.get("oracle_cache_evictions", 0),
        }
    return {
        "enabled": cache_enabled(),
        "counters": {"solves": dense + iterative, "dense": dense,
                     "iterative": iterative, "fallbacks": fallbacks},
        "cache": cache,
    }


def oracle_split(oracle, g, weights, target):
    """``oracle.split(g, weights, target)`` inside an ``oracle.split`` span.

    The one call site every pipeline stage, baseline and portfolio goes
    through, so split time rolls up under one span name.
    """
    with span("oracle.split"):
        return oracle.split(g, weights, target)
