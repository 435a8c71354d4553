"""Low-overhead process-local metrics: counters, gauges, latency histograms.

The registry is the one telemetry store every layer writes into — phase
spans (:mod:`.spans`), eigensolver and solve-cache counts, service request
timers, streaming counters — and its **snapshots are plain picklable dicts
that merge by addition**: sweep workers ship per-scenario deltas
(:func:`snapshot_delta`) and shard workers whole snapshots to the parent,
which folds them with :func:`merge_snapshots`.

Design constraints (in priority order):

1. **Invisible to results.**  Nothing in here is ever written into a
   deterministic record, response body, or snapshot; toggling telemetry
   (``REPRO_TELEMETRY=0``) cannot change any byte the CI ``cmp`` gates
   compare.
2. **Cheap.**  A counter bump is a dict lookup and an add; a histogram
   observation is a ``bit_length`` bucket index.  Hot loops (FM kernels)
   cross these paths, so there is no locking, no string formatting, and no
   allocation on the hot path.
3. **Mergeable.**  ``snapshot()`` / ``merge_snapshots()`` are associative:
   per-process totals from any number of workers sum into one service- or
   sweep-level view, and ``snapshot_delta`` is the inverse of a merge.

Metric keys are ``name`` plus optional labels, encoded canonically as
``name{k=v,...}`` (sorted by label key) so snapshots from different
processes merge by key equality.
"""

from __future__ import annotations

import math
import os

__all__ = [
    "ENV_TOGGLE",
    "telemetry_enabled",
    "reload_enabled",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metric_key",
    "split_metric_key",
    "registry",
    "reset_telemetry",
    "merge_snapshots",
    "snapshot_delta",
    "histogram_summary",
    "quantile_bounds",
    "HISTOGRAM_BASE",
    "HISTOGRAM_FACTOR",
    "HISTOGRAM_BUCKETS",
    "bucket_bounds",
]

#: env knob — read at first use (and cached, because spans sit on hot
#: paths); a parent process sets it before spawning workers, exactly like
#: ``REPRO_ORACLE_CACHE``
ENV_TOGGLE = "REPRO_TELEMETRY"

_ENABLED: bool | None = None


def telemetry_enabled() -> bool:
    """Whether telemetry collection is on (default: yes; it never affects
    results, only whether the registry accumulates anything)."""
    global _ENABLED
    if _ENABLED is None:
        raw = os.environ.get(ENV_TOGGLE, "1").strip().lower()
        _ENABLED = raw not in ("0", "false", "off", "no")
    return _ENABLED


def reload_enabled() -> bool:
    """Re-read the env toggle (tests flip it mid-process)."""
    global _ENABLED
    _ENABLED = None
    return telemetry_enabled()


#: fixed log-bucketed latency histogram layout: bucket ``i`` covers
#: ``(BASE * FACTOR**(i-1), BASE * FACTOR**i]`` seconds, bucket 0 covers
#: ``[0, BASE]``, and the last bucket is the +Inf overflow.  0.1 ms .. ~52 s
#: at 2x resolution — every process uses the same layout, so histograms
#: merge bucket-for-bucket.
HISTOGRAM_BASE = 1e-4
HISTOGRAM_FACTOR = 2.0
HISTOGRAM_BUCKETS = 20


def bucket_bounds() -> list[float]:
    """Upper bounds of the finite buckets, in seconds."""
    return [HISTOGRAM_BASE * HISTOGRAM_FACTOR**i for i in range(HISTOGRAM_BUCKETS)]


def metric_key(name: str, labels: dict | None = None) -> str:
    """Canonical snapshot key: ``name`` or ``name{k=v,...}`` (sorted)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def split_metric_key(key: str) -> tuple[str, dict]:
    """Inverse of :func:`metric_key` (labels come back as strings)."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key[:-1].partition("{")
    labels = {}
    for part in inner.split(","):
        if part:
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


class Counter:
    """Monotone accumulator (ints or float seconds both welcome)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1) -> None:
        self.value += amount


class Gauge:
    """Last-written value (merges across processes by summing — per-process
    gauges like "open sessions" add up to the service-level figure)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value) -> None:
        self.value = value


class Histogram:
    """Fixed log-bucketed latency histogram (seconds).

    Bucket index for ``x`` is computed arithmetically from the shared
    layout, so observation is O(1) and two processes' histograms are
    always bucket-aligned.
    """

    __slots__ = ("counts", "sum", "count")

    def __init__(self):
        self.counts = [0] * (HISTOGRAM_BUCKETS + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, seconds: float) -> None:
        x = float(seconds)
        if x <= HISTOGRAM_BASE:
            idx = 0
        else:
            # smallest i with BASE * FACTOR**i >= x  (FACTOR fixed at 2)
            idx = math.ceil(math.log2(x / HISTOGRAM_BASE))
            if idx > HISTOGRAM_BUCKETS:
                idx = HISTOGRAM_BUCKETS
        self.counts[idx] += 1
        self.sum += x
        self.count += 1


class MetricsRegistry:
    """Process-local named metrics plus the span rollup table.

    ``snapshot()`` returns a plain dict (picklable, JSON-able); snapshots
    from any number of registries merge by addition via
    :func:`merge_snapshots`.
    """

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: span path -> [ncalls, total wall seconds]; written by
        #: :mod:`.spans`, read by snapshots and the exposition layer
        self.spans: dict[str, list] = {}

    # -- get-or-create accessors (hot paths hold onto the returned object)
    def counter(self, name: str, **labels) -> Counter:
        key = metric_key(name, labels)
        c = self._counters.get(key)
        if c is None:
            c = self._counters[key] = Counter()
        return c

    def gauge(self, name: str, **labels) -> Gauge:
        key = metric_key(name, labels)
        g = self._gauges.get(key)
        if g is None:
            g = self._gauges[key] = Gauge()
        return g

    def histogram(self, name: str, **labels) -> Histogram:
        key = metric_key(name, labels)
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = Histogram()
        return h

    def record_span(self, path: str, seconds: float) -> None:
        entry = self.spans.get(path)
        if entry is None:
            self.spans[path] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    # -- snapshots ----------------------------------------------------
    def snapshot(self) -> dict:
        """Picklable, mergeable view of everything accumulated so far."""
        # iterate copies: the inline service snapshots on its worker thread
        # while the event loop may add a key, and dict.copy() is atomic
        return {
            "counters": {k: c.value for k, c in self._counters.copy().items()},
            "gauges": {k: g.value for k, g in self._gauges.copy().items()},
            "histograms": {
                k: {"counts": list(h.counts), "sum": h.sum, "count": h.count}
                for k, h in self._histograms.copy().items()
            },
            "spans": {k: {"calls": v[0], "seconds": v[1]} for k, v in self.spans.copy().items()},
        }

    def drop(self, *names: str) -> None:
        """Remove every counter, gauge and histogram called one of ``names``,
        whatever its labels; span rollups stay."""
        for table in (self._counters, self._gauges, self._histograms):
            for key in [key for key in table if split_metric_key(key)[0] in names]:
                del table[key]

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self.spans.clear()


def _empty_snapshot() -> dict:
    return {"counters": {}, "gauges": {}, "histograms": {}, "spans": {}}


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Sum any number of registry snapshots into one (associative)."""
    out = _empty_snapshot()
    for snap in snapshots:
        if not snap:
            continue
        for section in ("counters", "gauges"):
            dst = out[section]
            for key, value in snap.get(section, {}).items():
                dst[key] = dst.get(key, 0) + value
        for key, h in snap.get("histograms", {}).items():
            dst_h = out["histograms"].setdefault(
                key, {"counts": [0] * (HISTOGRAM_BUCKETS + 1), "sum": 0.0, "count": 0}
            )
            counts = h.get("counts", [])
            for i in range(min(len(counts), len(dst_h["counts"]))):
                dst_h["counts"][i] += counts[i]
            dst_h["sum"] += h.get("sum", 0.0)
            dst_h["count"] += h.get("count", 0)
        for key, s in snap.get("spans", {}).items():
            dst_s = out["spans"].setdefault(key, {"calls": 0, "seconds": 0.0})
            dst_s["calls"] += s.get("calls", 0)
            dst_s["seconds"] += s.get("seconds", 0.0)
    return out


def snapshot_delta(before: dict, after: dict) -> dict:
    """What one registry gained between two of its snapshots: ``after``
    minus ``before`` entry by entry, unchanged entries left out, so that
    ``merge_snapshots([before, delta]) == after``.  The sweep engine takes
    one per scenario and ships it on the result."""
    out = _empty_snapshot()
    for section in ("counters", "gauges"):
        old = before[section]
        out[section] = {k: v - old.get(k, 0) for k, v in after[section].items()
                        if v != old.get(k, 0)}
    for key, h in after["histograms"].items():
        old = before["histograms"].get(key, {"counts": [0] * len(h["counts"]), "sum": 0.0,
                                             "count": 0})
        if h["count"] != old["count"]:
            out["histograms"][key] = {"counts": [a - b for a, b in zip(h["counts"], old["counts"])],
                                      "sum": h["sum"] - old["sum"],
                                      "count": h["count"] - old["count"]}
    for key, sp in after["spans"].items():
        old = before["spans"].get(key, {"calls": 0, "seconds": 0.0})
        if sp["calls"] != old["calls"]:
            out["spans"][key] = {"calls": sp["calls"] - old["calls"],
                                 "seconds": sp["seconds"] - old["seconds"]}
    return out


def quantile_bounds(hist: dict, q: float) -> tuple[float, float] | None:
    """``(lo, hi)`` seconds bracketing the ``q``-quantile of a histogram
    snapshot entry — the resolution limit of the log-bucket layout.

    Returns ``None`` for an empty histogram.  ``hi`` is ``inf`` when the
    quantile lands in the overflow bucket.
    """
    counts = hist.get("counts") or []
    total = hist.get("count", 0)
    if not total or not counts:
        return None
    rank = max(1, math.ceil(q * total))
    bounds = bucket_bounds()
    cumulative = 0
    for i, c in enumerate(counts):
        cumulative += c
        if cumulative >= rank:
            if i == 0:
                return (0.0, bounds[0])
            if i >= len(bounds):
                return (bounds[-1], math.inf)
            return (bounds[i - 1], bounds[i])
    return (bounds[-1], math.inf)


def histogram_summary(hist: dict, quantiles=(0.5, 0.95, 0.99)) -> dict:
    """Bucket-resolution percentile summary (milliseconds) of a histogram
    snapshot entry — the server-side counterpart of
    :func:`repro.service.loadgen.latency_summary`.

    Each percentile reports the *upper bound* of its bucket: the smallest
    latency the histogram can certify the quantile does not exceed.
    """
    count = hist.get("count", 0)
    out = {"count": count}
    if not count:
        return out
    out["mean_ms"] = round(1000.0 * hist.get("sum", 0.0) / count, 3)
    for q in quantiles:
        bracket = quantile_bounds(hist, q)
        if bracket is None:
            continue
        lo, hi = bracket
        label = f"p{int(q * 100)}_ms"
        out[label] = round(1000.0 * hi, 3) if math.isfinite(hi) else math.inf
        out[f"p{int(q * 100)}_lo_ms"] = round(1000.0 * lo, 3)
    return out


#: the process-wide registry every instrumented layer writes into
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _REGISTRY


def reset_telemetry() -> None:
    """Zero the process registry and re-read the env toggle (tests)."""
    _REGISTRY.reset()
    reload_enabled()
