"""Hierarchical phase spans: ``with span("oracle.split"): ...``.

A span times one phase of work and rolls it up into the process registry
under its **path** — the ``/``-joined chain of enclosing span names — so
nested phases aggregate hierarchically::

    with span("scenario.algorithm"):
        with span("pipeline.prop7"):
            with span("oracle.split"):      # path:
                ...                         #   scenario.algorithm/pipeline.prop7/oracle.split

Rollups are ``path -> (ncalls, total wall seconds)``, kept in the same
registry as every counter, so one registry snapshot carries both and
:func:`~repro.obs.metrics.snapshot_delta` cuts out one scenario's share.
Because paths are the call tree of a bounded taxonomy (pipeline stages,
oracle solves, kernel passes, stream steps), cardinality stays small while
parent totals still reconcile with their children — and with the request
wall-clock the service measures around the whole thing.

The stack is thread-local: shard/sweep workers are single-threaded
processes, the inline ``shards=0`` mode runs scenarios on one worker
thread, and the asyncio front-end never opens spans (it observes request
histograms directly), so paths cannot interleave across tasks.

Overhead when telemetry is disabled (``REPRO_TELEMETRY=0``) is one
attribute load and a branch; when enabled, two ``perf_counter`` calls and
a dict update.  Spans never touch deterministic outputs.
"""

from __future__ import annotations

import threading
from time import perf_counter

from .metrics import registry, telemetry_enabled

__all__ = ["span", "current_span_path", "spans_snapshot"]


class _SpanStack(threading.local):
    path = ""


_STACK = _SpanStack()


class span:
    """Context manager timing one phase under the current span path.

    Spans do not self-nest: entering a span whose name equals the
    innermost open component is a no-op, so recursive phases (an oracle
    portfolio delegating to sub-oracles, shrink recursion) are timed once
    at their outermost entry — keeping parent totals equal to wall-clock
    instead of multiply counted, and path cardinality bounded.
    """

    __slots__ = ("name", "_parent", "_t0", "_path")

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        if not telemetry_enabled():
            self._t0 = None
            return self
        parent = _STACK.path
        name = self.name
        if parent.endswith(name) and (
            len(parent) == len(name) or parent[-len(name) - 1] == "/"
        ):
            self._t0 = None
            return self
        self._parent = parent
        self._path = f"{parent}/{self.name}" if parent else self.name
        _STACK.path = self._path
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._t0 is None:
            return False
        dt = perf_counter() - self._t0
        _STACK.path = self._parent
        registry().record_span(self._path, dt)
        return False


def current_span_path() -> str:
    """The open span path on this thread ("" at top level) — test hook."""
    return _STACK.path


def spans_snapshot() -> dict:
    """Current span rollups as ``path -> (calls, seconds)`` (cheap copy)."""
    return {k: (v[0], v[1]) for k, v in registry().spans.copy().items()}
