"""Unified telemetry: mergeable metrics, phase spans, events, /metrics.

The observability substrate every layer shares:

* :mod:`.metrics` — the one process-local store of counters, gauges,
  log-bucket latency histograms and span rollups; its snapshots are
  picklable, merge by addition and subtract into per-scenario deltas, so
  shard and sweep worker processes ship telemetry to their parent;
* :mod:`.spans` — hierarchical ``with span("oracle.split")`` phase timers
  rolled up by call path (ncalls + wall-clock);
* :mod:`.events` — structured JSON-lines event logging for the service;
* :mod:`.exposition` — Prometheus text format and the embedded
  ``GET /metrics`` endpoint behind ``repro serve --metrics-port``.

Hard contract: telemetry is invisible to results.  Nothing here is ever
written into a deterministic record, response body, or snapshot, and
``REPRO_TELEMETRY=0`` turns collection off without changing any output
byte (held by CI ``cmp`` gates).
"""

from .events import EventLog, events
from .exposition import render_prometheus, start_metrics_server
from .metrics import (
    ENV_TOGGLE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_summary,
    merge_snapshots,
    metric_key,
    quantile_bounds,
    registry,
    reload_enabled,
    reset_telemetry,
    snapshot_delta,
    telemetry_enabled,
)
from .spans import current_span_path, span, spans_snapshot

__all__ = [
    "ENV_TOGGLE",
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "current_span_path",
    "events",
    "histogram_summary",
    "merge_snapshots",
    "metric_key",
    "quantile_bounds",
    "registry",
    "reload_enabled",
    "render_prometheus",
    "reset_telemetry",
    "snapshot_delta",
    "span",
    "spans_snapshot",
    "start_metrics_server",
    "telemetry_enabled",
]
