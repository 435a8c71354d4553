"""Shared low-level utilities used across the repro package.

Everything in here is intentionally dependency-light (numpy only) so that
substrate modules can import it without cycles.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

__all__ = [
    "BoundedLru",
    "as_rng",
    "pnorm",
    "conjugate_exponent",
    "as_float_array",
    "as_index_array",
    "mask_from_indices",
    "cumulative_prefix_target",
]


class BoundedLru:
    """Recency-ordered bounded mapping — the one LRU primitive in the repo.

    ``maxsize=None`` is unbounded, ``0`` stores nothing; ``get`` refreshes
    recency, ``put`` evicts the least-recently-touched entries past the
    bound and counts them in ``evictions``.  Both the sweep engine's
    :class:`~repro.runtime.InstanceCache` and the service's
    :class:`~repro.service.ColoringCache` delegate here, so their eviction
    mechanics cannot drift apart.

    Entries may additionally carry a *weight* (``put(key, value, weight=n)``)
    against an optional ``max_weight`` budget — the cost-aware mode: a large
    record occupies proportionally more of the cache, so a flood of small
    entries cannot evict one big one any faster than its fair share.  An
    entry weighing more than the whole budget is not admitted at all.
    """

    def __init__(self, maxsize: int | None = None, max_weight: float | None = None):
        if maxsize is not None and maxsize < 0:
            raise ValueError("maxsize must be >= 0 (or None for unbounded)")
        if max_weight is not None and max_weight < 0:
            raise ValueError("max_weight must be >= 0 (or None for unweighted)")
        self.maxsize = maxsize
        self.max_weight = max_weight
        self.weight = 0.0
        self.evictions = 0
        self.rejected = 0
        self._entries: OrderedDict = OrderedDict()
        self._weights: dict = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def get(self, key):
        """Return the value for ``key`` (refreshing recency) or ``None``."""
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def _evict_oldest(self) -> None:
        key, _ = self._entries.popitem(last=False)
        self.weight -= self._weights.pop(key, 0.0)
        self.evictions += 1

    def put(self, key, value, weight: float = 1.0) -> None:
        if weight < 0:
            raise ValueError("weight must be >= 0")
        if self.maxsize == 0 or (self.max_weight is not None and self.max_weight == 0):
            return
        if self.max_weight is not None and weight > self.max_weight:
            self.rejected += 1  # would evict the entire cache for one entry
            return
        if key in self._entries:
            self.weight -= self._weights.pop(key, 0.0)
        self._entries[key] = value
        self._weights[key] = float(weight)
        self.weight += float(weight)
        self._entries.move_to_end(key)
        if self.maxsize is not None:
            while len(self._entries) > self.maxsize:
                self._evict_oldest()
        if self.max_weight is not None:
            # terminates: oversized entries were rejected at admission, so
            # evicting down to (at worst) the new entry lands inside budget
            while self.weight > self.max_weight:
                self._evict_oldest()


def as_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Normalize ``rng`` into a :class:`numpy.random.Generator`.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` (fresh nondeterministic generator).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def pnorm(values: np.ndarray, p: float) -> float:
    """``‖f‖_p`` for a non-negative vector ``f``; ``p = inf`` gives the max.

    Empty vectors have norm 0 for every ``p``, matching the paper's
    conventions (sums over empty sets vanish).
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return 0.0
    if np.isinf(p):
        return float(np.max(v))
    if p == 1.0:
        return float(np.sum(v))
    return float(np.sum(v**p) ** (1.0 / p))


def conjugate_exponent(p: float) -> float:
    """The Hölder conjugate ``q`` with ``1/p + 1/q = 1``.

    ``p = 1`` maps to ``inf`` and vice versa.
    """
    if p <= 1.0:
        if p == 1.0:
            return np.inf
        raise ValueError(f"p must be >= 1, got {p}")
    if np.isinf(p):
        return 1.0
    return p / (p - 1.0)


def as_float_array(values, n: int | None = None, name: str = "values") -> np.ndarray:
    """Coerce ``values`` to a 1-d non-negative float64 array of length ``n``.

    ``values`` may be a scalar (broadcast to length ``n``), a sequence, or an
    ndarray.  Raises on negative entries: the paper works with non-negative
    measures throughout.
    """
    if np.isscalar(values):
        if n is None:
            raise ValueError(f"{name}: scalar input requires explicit length n")
        arr = np.full(n, float(values), dtype=np.float64)
    else:
        arr = np.asarray(values, dtype=np.float64).ravel()
        if n is not None and arr.size != n:
            raise ValueError(f"{name}: expected length {n}, got {arr.size}")
    if arr.size and float(np.min(arr)) < 0.0:
        raise ValueError(f"{name}: negative entries are not allowed")
    return arr


def as_index_array(indices) -> np.ndarray:
    """Coerce ``indices`` into a 1-d int64 index array (possibly empty)."""
    arr = np.asarray(indices, dtype=np.int64).ravel()
    return arr


def mask_from_indices(indices, n: int) -> np.ndarray:
    """Boolean membership mask of length ``n`` for ``indices``."""
    mask = np.zeros(n, dtype=bool)
    idx = as_index_array(indices)
    if idx.size:
        mask[idx] = True
    return mask


def cumulative_prefix_target(sorted_weights: np.ndarray, target: float) -> int:
    """Length of the prefix of ``sorted_weights`` whose sum is nearest ``target``.

    This is the core of every prefix splitter: if weights are scanned in any
    order, the prefix sums increase in steps of at most ``‖w‖∞``, so the
    nearest achievable prefix sum is within ``‖w‖∞ / 2`` of ``target``
    (clamped to ``[0, ‖w‖₁]``) — exactly Definition 3's splitting window.

    Returns the number of elements to take (0..len).
    """
    w = np.asarray(sorted_weights, dtype=np.float64)
    if w.size == 0:
        return 0
    cum = np.cumsum(w)
    total = float(cum[-1])
    t = min(max(target, 0.0), total)
    # first index with cum[i] >= t
    i = int(np.searchsorted(cum, t, side="left"))
    if i >= w.size:
        return int(w.size)
    below = float(cum[i - 1]) if i > 0 else 0.0
    above = float(cum[i])
    # choose the closer of the two bracketing prefixes
    if t - below <= above - t:
        return i
    return i + 1
