"""Streaming decomposition subsystem.

Maintains a min-max boundary decomposition *incrementally* while the
underlying weighted graph mutates — the adaptive-computation workload the
paper's introduction motivates, where remeshing steps change couplings and
cell loads between load-balancing rounds.

Layers:

* :mod:`.mutations` — the mutation log: :class:`Mutation` batches applied
  to a versioned mutable :class:`GraphState` with structural-hash identity.
* :mod:`.traces` — deterministic churn workload generators
  (:data:`TRACES`: random churn, sliding window, hotspot growth/decay,
  adversarial cut-crossing churn, plus the dynamic-vertex-set families
  growth, remesh, and arrival-departure).
* :mod:`.repair` — the incremental repairer: greedy strict-window
  restoration and dirty-region-seeded FM refinement.
* :mod:`.session` — :class:`StreamSession` (trace replay + policy + audit
  snapshots), the sweep-engine entry points, and :func:`replay_session`
  (deterministic session rebuild from a journaled op log).
* :mod:`.journal` — :class:`JournalStore`: per-session append-only,
  fsync-batched mutation journals with startup garbage collection — what
  lets the service rebuild a session after its shard worker crashes.

Streaming scenarios use ``algorithm="stream"`` in the ordinary scenario
grid, so ``repro sweep`` grids over trace kinds × repair policies like any
other axis, and the service exposes sessions through
``open_stream``/``mutate``/``snapshot``/``close_stream`` requests.
"""

from .journal import JournalError, JournalStore, journal_file_name, read_journal
from .mutations import (
    DirtyRegion,
    GraphState,
    Mutation,
    MutationError,
    UnknownMutationError,
    replay,
)
from .repair import local_repair, restore_window, seed_new_vertices, strict_window
from .session import (
    POLICIES,
    ReplayError,
    StreamSession,
    replay_session,
    run_stream_scenario,
    stream_coloring,
)
from .traces import GROWTH_TRACES, TRACES, make_trace

__all__ = [
    "GROWTH_TRACES",
    "POLICIES",
    "TRACES",
    "DirtyRegion",
    "GraphState",
    "JournalError",
    "JournalStore",
    "Mutation",
    "MutationError",
    "ReplayError",
    "StreamSession",
    "UnknownMutationError",
    "journal_file_name",
    "local_repair",
    "make_trace",
    "read_journal",
    "replay",
    "replay_session",
    "restore_window",
    "run_stream_scenario",
    "seed_new_vertices",
    "stream_coloring",
    "strict_window",
]
