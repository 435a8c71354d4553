"""Spectral solve cache and the one ``oracle.split`` entry point.

The Theorem 4 pipeline calls the splitting oracle once per recursion step on
closely related subgraphs of one host graph, and the sweep/service layers
re-solve the *same* graphs across scenarios (the Laplacian only sees edge
costs, so every ``k``/weight/algorithm combination on an instance shares its
spectral orders).  :class:`SolveCache` is the process-local memo
``structural_hash -> Fiedler vector`` that exploits both.

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
from ..obs import span

__all__ = [
    "SolveCache",
    "oracle_split",
    "cache_enabled",
    "process_cache",
    "reset_solver_state",
    "solver_stats",
    "COUNTERS",
]

#: env knobs — read at first use, so a parent process (``repro serve``,
#: ``repro sweep``) can set them before spawning shard workers
ENV_TOGGLE = "REPRO_ORACLE_CACHE"
ENV_SIZE = "REPRO_ORACLE_CACHE_SIZE"
DEFAULT_CACHE_SIZE = 256

#: process-wide solver counters (volatile diagnostics — surfaced through the
#: ``stats`` wire op and the opt-in timing block, never in deterministic
#: result records)
COUNTERS = {"solves": 0, "dense": 0, "iterative": 0, "fallbacks": 0}


def cache_enabled() -> bool:
    """Whether the process-local solve cache is on (default: yes)."""
    return os.environ.get(ENV_TOGGLE, "1").strip().lower() not in ("0", "false", "off", "no")


class SolveCache:
    """Bounded LRU ``structural_hash -> Fiedler vector``.

    Same eviction discipline as the service's :class:`ColoringCache`
    (both delegate to :class:`repro._util.BoundedLru`); hit/miss/eviction
    counters follow the same ``stats()`` shape so the service can report
    the oracle tier next to the record tier.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE):
        self.hits = 0
        self.misses = 0
        self._entries = BoundedLru(maxsize=int(maxsize))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def maxsize(self) -> int:
        return self._entries.maxsize

    @property
    def evictions(self) -> int:
        return self._entries.evictions

    def get(self, key: str) -> np.ndarray | None:
        vec = self._entries.get(key)
        if vec is None:
            self.misses += 1
            return None
        self.hits += 1
        return vec

    def put(self, key: str, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        vec.setflags(write=False)
        self._entries.put(key, vec)

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


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
    """Drop the process cache and zero the counters (tests, ablations)."""
    global _PROCESS_CACHE
    _PROCESS_CACHE = None
    for key in COUNTERS:
        COUNTERS[key] = 0


def counters_snapshot() -> dict:
    return dict(COUNTERS)


def solver_stats() -> dict:
    """One process's solver-side stats: counters plus cache accounting."""
    cache = _PROCESS_CACHE
    return {
        "enabled": cache_enabled(),
        "counters": dict(COUNTERS),
        "cache": cache.stats() if cache is not None else None,
    }


def oracle_split(oracle, g, weights, target):
    """``oracle.split(g, weights, target)`` inside an ``oracle.split`` span.

    The one call site every pipeline stage, baseline and portfolio goes
    through, so split time rolls up under one span name.
    """
    with span("oracle.split"):
        return oracle.split(g, weights, target)
