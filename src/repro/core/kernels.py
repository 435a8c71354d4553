"""Shared Fiduccia–Mattheyses move kernels and the kernel registry.

Every refinement layer in the repo — the Theorem 4 post-pass
(:func:`~repro.core.refine.kway_refine`), the streaming repairer's
halo-restricted passes (:func:`~repro.stream.repair.local_repair`), and the
multilevel baseline's uncoarsening refinement — funnels through one
primitive: a balance-window-preserving FM pass moving vertices between two
classes.  :func:`run_pair_kernel` runs it under a kernel name looked up in
:data:`REGISTRY` (``name -> pass function``); the sweep grid's ``kernel``
param and :func:`use_kernel` pick the name.

``bucket`` (the default) and ``incremental`` are thin calls into one
dispatcher, :func:`_pair_pass`, that shares the prologue (class weights,
the member set, the strict window and its one-move slack) and takes one of
three paths:

native
    The dense bucket-queue pass of the repo's native module
    (:mod:`repro.core._bucketc`, which also holds the graph traversals of
    :mod:`repro.graphs.components`).  One C call builds the pair's gains
    from its CSR rows — exact in any summation order on integer costs —
    fills a ``nbuckets × n`` bucket-occupancy bitmap (one byte per (gain
    bucket, vertex)), runs the move loop and rolls back past the best
    prefix, with arrays passed as raw addresses.  Only ``bucket`` takes it,
    and only on integer-valued edge costs (gains are then exact integers
    and index buckets directly), a bitmap within ``_BUCKET_TABLE_CAP``
    bytes, and int64 C-contiguous labels.
heap
    Initial gains from one signed ``np.bincount`` scatter over the pair's
    edges, the whole instance as Python lists, then the interpreted move
    loop :func:`_move_loop`.  Every dense pass the native path does not
    take: float costs, huge cost ranges, labels the C routine cannot
    address, ``REPRO_BUCKET_C=0`` or no compiler.
restricted
    Sparse ``movable`` masks (the streaming halo, ``members·8 ≤ n``):
    per-member gains summed over their CSR rows, and only the members and
    their neighbors, renumbered in id order, as Python lists; then the same
    move loop — so setup scales with the perturbation, not the instance.

The move loop pops a lazy-deletion heap validated against the stored gain
table: a popped entry that disagrees with the table is re-enqueued at the
table gain instead of triggering a recompute, and a committed move updates
its pair neighbors' gains by ``±2c``.  It works on its Python lists alone;
the dispatcher then writes the kept moves into the caller's labels, so no
move is written and rolled back.  ``incremental`` is ``bucket``
without the native path — the ablation ``benchmarks/bench_e15_perf.py``
times.  ``reference`` is the historical recompute-everything loop: every
pop recomputes the vertex's gain from its CSR row, and every accepted move
recomputes and re-pushes all pair neighbors.  It is the semantics oracle of
the golden-equivalence tests and the ablation baseline of the same
benchmark.

All kernels make identical decisions: pops order by ``(-gain, vertex)`` so
ties break toward the smallest vertex id, acceptance uses the same
one-move-overshoot window slack, and the result is the best strictly valid
move prefix.  With integer-valued edge costs every gain is an exact float
(sums of integers below 2**53 are associative), so labels come out
byte-identical across all three; with arbitrary float costs the heap and
``reference`` can differ in degenerate ulp-level near-ties only.

Why a bitmap instead of the textbook doubly-linked bucket lists: linked
lists give O(1) pop of *some* vertex in the max bucket, but preserving the
smallest-id tie-break would need sorted insertion or a bucket scan, both
O(bucket).  A byte-per-slot bitmap keeps pop at one ``memchr`` from a
monotone per-bucket head hint — O(1) amortized — while insert/remove stay
single byte writes.

Lazy-deletion equivalence (why the native pass is byte-identical to the
heap): the heap lets a vertex hold several outstanding entries at once —
its latest gain plus stale older gains.  Stale entries act as delayed
alarms: when the gain frontier descends to one, the vertex is re-enqueued
(and immediately re-examined) at its *current* gain, which can resurrect a
vertex whose in-window entry was consumed by an earlier balance rejection.
The bitmap reproduces this exactly: an update never clears the byte at the
old gain — it only sets the byte at the new gain — and popping a byte whose
bucket disagrees with the gain table re-arms the vertex at its current
bucket.  Equal-key duplicate heap entries (unrepresentable in the bitmap)
provably drain back-to-back with identical outcomes, so collapsing them
loses nothing.

The one-move overshoot slack is ``wmax``, the heaviest vertex weight over
the *full* pair classes — not just the movable members.  A ``movable`` mask
(the streaming repairer's halo) may hide the heaviest vertex; computing the
slack over the masked members would make restricted passes reject moves the
unrestricted FM discipline allows.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager

import numpy as np

from ..graphs.graph import Graph
from ..obs import registry, span, telemetry_enabled

__all__ = [
    "REGISTRY",
    "DEFAULT_KERNEL",
    "fm_pair_pass",
    "fm_pair_pass_bucket",
    "fm_pair_pass_reference",
    "run_pair_kernel",
    "default_kernel",
    "use_kernel",
]

#: tolerance shared by every window / gain comparison in all kernels
_TOL = 1e-12

#: byte ceiling for the bucket bitmap — (2·Δc+1)·n above this routes to the
#: heap (huge cost ranges would make the table quadratic-ish)
_BUCKET_TABLE_CAP = 1 << 22


def _pair_slack(w: np.ndarray, in_pair: np.ndarray) -> float:
    """One-move overshoot slack: max weight over the full pair classes."""
    return float(w[in_pair].max()) if np.any(in_pair) else 0.0


def _initial_pair_gains(g: Graph, labels: np.ndarray, in_pair: np.ndarray) -> np.ndarray:
    """Vectorized initial gains: one signed scatter over the pair's edges.

    An edge with both endpoints in the pair contributes -c to each endpoint
    when monochromatic and +c when bichromatic; edges leaving the pair
    contribute nothing (moving v between i and j does not change them).
    """
    gains = np.zeros(g.n, dtype=np.float64)
    if g.m:
        eu = g.edges[:, 0]
        ev = g.edges[:, 1]
        both = in_pair[eu] & in_pair[ev]
        if np.any(both):
            su = eu[both]
            sv = ev[both]
            signed = np.where(labels[su] == labels[sv], -g.costs[both], g.costs[both])
            gains += np.bincount(su, weights=signed, minlength=g.n)
            gains += np.bincount(sv, weights=signed, minlength=g.n)
    return gains


#: lazily-loaded native module (``None`` = unavailable, fall back)
_BUCKET_C_UNSET = object()
_bucket_c = _BUCKET_C_UNSET


def _bucket_loop_c():
    global _bucket_c
    if _bucket_c is _BUCKET_C_UNSET:
        from ._bucketc import load_bucket_loop

        _bucket_c = load_bucket_loop()
    return _bucket_c


def _native_pass_fn(g: Graph, labels: np.ndarray):
    """The compiled bucket pass if it can run this instance, else ``None``."""
    if not (g.costs_integral() and labels.dtype == np.int64 and labels.flags.c_contiguous):
        return None
    if (2 * int(g.max_cost_degree()) + 1) * g.n > _BUCKET_TABLE_CAP:
        return None
    lib = _bucket_loop_c()
    return None if lib is None else lib.bucket_pass


def _pair_pass(
    g, labels, weights, i, j, lo_bound, hi_bound, max_moves, movable, csr, native,
) -> tuple[list[int], bool]:
    """The one FM pair-pass dispatcher behind ``bucket`` and ``incremental``.

    A sparse ``movable`` mask takes the halo gain setup; with ``native``
    set, a pass the compiled routine can run takes it; everything else
    takes the heap gain setup.  Both setups feed :func:`_move_loop`, and
    the kept prefix is chosen here for all three paths.  The native pass
    and the heap decide identically on the integer costs the native pass
    accepts, so whether native code loaded never shows in the labels.  With
    telemetry on, each pass counts
    ``kernel_passes{path=native|heap|restricted}``.
    """
    w = np.asarray(weights, dtype=np.float64)
    # Python scalars: ctypes rejects numpy ones at the native call
    i, j = int(i), int(j)
    lo_bound, hi_bound = float(lo_bound), float(hi_bound)
    in_pair = (labels == i) | (labels == j)
    wmax = _pair_slack(w, in_pair)
    # a bool mask: the native pass reads one membership byte per vertex
    member_mask = in_pair if movable is None else in_pair & np.asarray(movable, dtype=bool)
    members = np.flatnonzero(member_mask).astype(np.int64)
    if members.size == 0:
        return [], False
    cw_i = float(w[labels == i].sum())
    cw_j = float(w[labels == j].sum())
    limit = int(max_moves) if max_moves is not None else int(members.size)
    # the strict window a kept prefix must end in, and the one-move
    # overshoot slack an intermediate state may use
    lo_ok, hi_ok = lo_bound - 1e-9, hi_bound + 1e-9
    window = (lo_ok, hi_ok, lo_bound - wmax - _TOL, hi_bound + wmax + _TOL)
    start_ok = lo_ok <= cw_i <= hi_ok and lo_ok <= cw_j <= hi_ok
    if movable is not None and members.size * 8 <= g.n:
        path = "restricted"
        seen, tables = _halo_tables(g, labels, w, i, j, member_mask, members)
        moves, best_prefix = _move_loop(i, j, cw_i, cw_j, limit, window, *tables)
        moves = [seen[v] for v in moves]
    elif native and (fn := _native_pass_fn(g, labels)) is not None:
        path = "native"
        moves, best_prefix = _native_pass(
            fn, g, labels, w, i, j, member_mask, cw_i, cw_j, limit, window, start_ok,
        )
    else:
        path = "heap"
        moves, best_prefix = _move_loop(
            i, j, cw_i, cw_j, limit, window,
            *_heap_tables(g, labels, w, in_pair, member_mask, members, csr),
        )
    # the best strictly valid prefix; if the input itself was outside the
    # window (shouldn't happen), the best effort instead of an invalid start
    kept = moves if best_prefix == 0 and not start_ok else moves[:best_prefix]
    if path == "native":
        # the compiled pass labeled in place and returns its moves as an array
        kept = kept.tolist()
    else:
        for v in kept:
            labels[v] = j if labels[v] == i else i
    if telemetry_enabled():
        registry().counter("kernel_passes", path=path).inc()
    return kept, best_prefix > 0


def fm_pair_pass_bucket(
    g: Graph,
    labels: np.ndarray,
    weights: np.ndarray,
    i: int,
    j: int,
    lo_bound: float,
    hi_bound: float,
    max_moves: int | None = None,
    movable: np.ndarray | None = None,
    csr: tuple | None = None,
) -> tuple[list[int], bool]:
    """FM pass between classes ``i`` and ``j``; may take the native path.

    Mutates ``labels`` in place.  Returns ``(kept, improved)`` where ``kept``
    lists the vertices whose class actually changed (in move order) and
    ``improved`` says whether a strictly-valid improving prefix was kept.
    ``movable`` (a 0/1 mask) limits which pair vertices may move;
    multi-pass callers can pass ``csr=g.csr_lists()`` to amortize that
    conversion across heap passes.
    """
    return _pair_pass(g, labels, weights, i, j, lo_bound, hi_bound,
                      max_moves, movable, csr, native=True)


def fm_pair_pass(
    g: Graph,
    labels: np.ndarray,
    weights: np.ndarray,
    i: int,
    j: int,
    lo_bound: float,
    hi_bound: float,
    max_moves: int | None = None,
    movable: np.ndarray | None = None,
    csr: tuple | None = None,
) -> tuple[list[int], bool]:
    """:func:`fm_pair_pass_bucket` without the native path (``incremental``)."""
    return _pair_pass(g, labels, weights, i, j, lo_bound, hi_bound,
                      max_moves, movable, csr, native=False)


def _native_pass(
    fn, g, labels, w, i, j, member_mask, cw_i, cw_j, limit, window, start_ok,
) -> tuple[np.ndarray, int]:
    """One native call: gains, bitmap, move loop and rollback, with
    ``labels`` left as the kept prefix (or the best effort) makes them;
    returns every move made (an array) and the best prefix length.

    The class weights ``cw_i``/``cw_j`` and the window arrive as the
    dispatcher computed them, so float weights enter the loop with the same
    bits as on the interpreted path.
    """
    lo_ok, hi_ok, lo_slack, hi_slack = window
    w = np.ascontiguousarray(w)
    member_u8 = np.ascontiguousarray(member_mask).view(np.uint8)
    moves = np.empty(max(limit, 1), dtype=np.int64)
    best = np.zeros(1, dtype=np.int64)
    nmoves = fn(
        g.n, int(g.max_cost_degree()),
        g.indptr.ctypes.data, g.nbr.ctypes.data, g.arc_costs.ctypes.data,
        labels.ctypes.data, member_u8.ctypes.data, w.ctypes.data, i, j,
        cw_i, cw_j, lo_ok, hi_ok, lo_slack, hi_slack,
        _TOL, limit, start_ok, moves.ctypes.data, best.ctypes.data,
    )
    if nmoves < 0:
        raise MemoryError("bucket pass: native scratch allocation failed")
    return moves[:nmoves], int(best[0])


def _heap_tables(g, labels, w, in_pair, member_mask, members, csr):
    """The dense gain setup: one signed scatter, then the whole instance as
    Python lists.  At a handful of neighbors per committed move, list reads
    beat numpy element access by an order of magnitude."""
    gains = _initial_pair_gains(g, labels, in_pair)
    heap = list(zip((-gains[members]).tolist(), members.tolist()))
    return (
        heap, gains.tolist(), labels.tolist(), w.tolist(), member_mask.tolist(),
        [False] * g.n, *(csr if csr is not None else g.csr_lists()),
    )


def _halo_tables(g, labels, w, i, j, member_mask, members):
    """The halo gain setup: tables over the members' CSR rows only.

    Beyond the O(n) class-weight sums the dispatcher already pays, setup is
    proportional to the members' degree sum — no full-edge scan and no O(n)
    list conversions — so the streaming repairer's dirty-region passes
    scale with the perturbation, not the instance.  Each member's initial
    gain uses the same two-sum expression as the reference kernel, so halo
    passes match it exactly even for float costs.

    The members and their neighbors are renumbered ``0..m-1`` in id order
    (``seen``, returned with the tables, maps back), so the move loop reads
    lists as on the heap path and breaks ``(gain, id)`` ties in the same
    order.  Only the members' CSR rows are kept; other rows are empty.
    """
    indptr, nbr, acost = g.indptr, g.nbr, g.arc_costs
    starts, ends = indptr[members], indptr[members + 1]
    member_gains = []
    row_nbrs = []
    row_costs = []
    for s, e, lv in zip(starts.tolist(), ends.tolist(), labels[members].tolist()):
        nbrs = nbr[s:e]
        ecost = acost[s:e]
        lab = labels[nbrs]
        member_gains.append(float(ecost[lab == (j if lv == i else i)].sum()
                                  - ecost[lab == lv].sum()))
        row_nbrs.append(nbrs)
        row_costs.append(ecost)
    arc_nbrs = np.concatenate(row_nbrs)
    seen = np.unique(np.concatenate([members, arc_nbrs]))
    local = np.searchsorted(seen, members)
    local_indptr = np.zeros(seen.size + 1, dtype=np.int64)
    local_indptr[local + 1] = ends - starts
    gains = np.zeros(seen.size)
    gains[local] = member_gains
    return seen.tolist(), (
        list(zip([-gv for gv in member_gains], local.tolist())),
        gains.tolist(),
        labels[seen].tolist(),
        w[seen].tolist(),
        member_mask[seen].tolist(),
        [False] * seen.size,
        np.cumsum(local_indptr).tolist(),
        np.searchsorted(seen, arc_nbrs).tolist(),
        np.concatenate(row_costs).tolist(),
    )


def _move_loop(
    i, j, cw_i, cw_j, limit, window,
    heap, gains, labels_l, w_l, member_l, locked, indptr_l, nbr_l, acost_l,
) -> tuple[list[int], int]:
    """The interpreted move loop both gain setups share.

    ``heap`` holds the members' ``(-gain, vertex)`` entries; ``gains``,
    ``labels_l``, ``w_l``, ``member_l`` and ``locked`` are vertex-indexed
    Python lists and ``indptr_l``/``nbr_l``/``acost_l`` the CSR, over the
    whole instance (heap setup) or the halo's renumbered vertices.  Returns
    every move made, in order, and the length of the best strictly valid
    prefix; the caller's labels are not touched.
    """
    lo_ok, hi_ok, lo_slack, hi_slack = window
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    moves: list[int] = []
    best_prefix = 0
    best_improvement = 0.0
    improvement = 0.0
    while heap and len(moves) < limit:
        neg_gain, v = heappop(heap)
        if locked[v]:
            continue
        lv = labels_l[v]
        if lv != i and lv != j:
            continue
        gv = gains[v]
        if abs(gv + neg_gain) > _TOL:
            # stale lazy-deletion entry: the table moved on since this push.
            # Re-enqueue at the *stored* gain (O(1)) so the vertex keeps its
            # seat even if its current-gain entry was already consumed.
            heappush(heap, (-gv, v))
            continue
        wv = w_l[v]
        if lv == i:
            src, dst = i, j
            new_src, new_dst = cw_i - wv, cw_j + wv
        else:
            src, dst = j, i
            new_src, new_dst = cw_j - wv, cw_i + wv
        # FM discipline: allow one-move overshoot past the strict window;
        # only strictly-valid intermediate states can become the result.
        if new_src < lo_slack or new_dst > hi_slack:
            continue
        labels_l[v] = dst
        locked[v] = True
        if src == i:
            cw_i, cw_j = new_src, new_dst
        else:
            cw_j, cw_i = new_src, new_dst
        improvement += gv
        moves.append(v)
        if (
            improvement > best_improvement + _TOL
            and lo_ok <= cw_i <= hi_ok
            and lo_ok <= cw_j <= hi_ok
        ):
            best_improvement = improvement
            best_prefix = len(moves)
        # --- O(deg) delta update: v flipped src -> dst, so a neighbor u in
        # the pair sees v change buckets: +2c if u sits in src (v left u's
        # class), -2c if u sits in dst (v joined it).  Third-class and
        # uncolored neighbors are unaffected.
        for t in range(indptr_l[v], indptr_l[v + 1]):
            u = nbr_l[t]
            lu = labels_l[u]
            if lu == i or lu == j:
                c2 = 2.0 * acost_l[t]
                gu = gains[u] + c2 if lu == src else gains[u] - c2
                gains[u] = gu
                if not locked[u] and member_l[u]:
                    heappush(heap, (-gu, u))
    return moves, best_prefix


def fm_pair_pass_reference(
    g: Graph,
    labels: np.ndarray,
    weights: np.ndarray,
    i: int,
    j: int,
    lo_bound: float,
    hi_bound: float,
    max_moves: int | None = None,
    movable: np.ndarray | None = None,
    csr: tuple | None = None,
) -> tuple[list[int], bool]:
    """Recompute-on-pop FM pass (the pre-kernel implementation).

    Same contract and same decisions as :func:`fm_pair_pass`; every gain is
    recomputed from the CSR row instead of maintained incrementally.
    ``csr`` is accepted for signature parity and ignored (this kernel reads
    the numpy CSR directly).
    """
    w = np.asarray(weights, dtype=np.float64)
    in_pair = (labels == i) | (labels == j)
    wmax = _pair_slack(w, in_pair)
    if movable is not None:
        in_pair = in_pair & movable
    members = np.flatnonzero(in_pair).astype(np.int64)
    if members.size == 0:
        return [], False
    cw_i = float(w[labels == i].sum())
    cw_j = float(w[labels == j].sum())
    arc_costs = g.arc_costs

    def gain_of(v: int) -> float:
        s, e = g.indptr[v], g.indptr[v + 1]
        nbrs = g.nbr[s:e]
        ecost = arc_costs[s:e]
        own = labels[nbrs] == labels[v]
        other = labels[nbrs] == (j if labels[v] == i else i)
        return float(ecost[other].sum() - ecost[own].sum())

    heap = [(-gain_of(int(v)), int(v)) for v in members]
    heapq.heapify(heap)
    locked = np.zeros(g.n, dtype=bool)
    moves: list[int] = []
    best_prefix = 0
    best_improvement = 0.0
    improvement = 0.0
    limit = max_moves if max_moves is not None else members.size

    def strictly_ok() -> bool:
        return (
            lo_bound - 1e-9 <= cw_i <= hi_bound + 1e-9
            and lo_bound - 1e-9 <= cw_j <= hi_bound + 1e-9
        )

    start_ok = strictly_ok()
    while heap and len(moves) < limit:
        neg_gain, v = heapq.heappop(heap)
        if locked[v] or labels[v] not in (i, j):
            continue
        gv = gain_of(v)
        if abs(gv + neg_gain) > _TOL:
            heapq.heappush(heap, (-gv, v))
            continue
        src, dst = (i, j) if labels[v] == i else (j, i)
        new_src = (cw_i if src == i else cw_j) - w[v]
        new_dst = (cw_j if src == i else cw_i) + w[v]
        if new_src < lo_bound - wmax - _TOL or new_dst > hi_bound + wmax + _TOL:
            continue
        labels[v] = dst
        locked[v] = True
        if src == i:
            cw_i, cw_j = new_src, new_dst
        else:
            cw_j, cw_i = new_src, new_dst
        improvement += gv
        moves.append(v)
        if improvement > best_improvement + _TOL and strictly_ok():
            best_improvement = improvement
            best_prefix = len(moves)
        s, e = g.indptr[v], g.indptr[v + 1]
        for u in g.nbr[s:e]:
            u = int(u)
            if not locked[u] and labels[u] in (i, j) and (movable is None or movable[u]):
                heapq.heappush(heap, (-gain_of(u), u))
    if best_prefix == 0 and not start_ok and moves:
        return moves, False
    for v in reversed(moves[best_prefix:]):
        labels[v] = i if labels[v] == j else j
    return moves[:best_prefix], best_prefix > 0


# ---------------------------------------------------------------------------
# the kernel registry
# ---------------------------------------------------------------------------

#: kernel name -> pass function; the names the sweep grid's ``kernel``
#: param, ``--kernel`` axis and :func:`use_kernel` accept
REGISTRY = {
    "bucket": fm_pair_pass_bucket,
    "incremental": fm_pair_pass,
    "reference": fm_pair_pass_reference,
}

#: the kernel used when neither caller nor override picks one
DEFAULT_KERNEL = "bucket"


def _unknown_kernel(name: str) -> ValueError:
    return ValueError(f"unknown FM kernel {name!r}; known: {', '.join(sorted(REGISTRY))}")


_default_kernel = DEFAULT_KERNEL


def default_kernel() -> str:
    """Name of the kernel used when callers don't pick one explicitly."""
    return _default_kernel


@contextmanager
def use_kernel(name: str):
    """Temporarily switch the default kernel (tests / ablation benchmarks)."""
    if name not in REGISTRY:
        raise _unknown_kernel(name)
    global _default_kernel
    previous = _default_kernel
    _default_kernel = name
    try:
        yield
    finally:
        _default_kernel = previous


def run_pair_kernel(
    g: Graph,
    labels: np.ndarray,
    weights: np.ndarray,
    i: int,
    j: int,
    lo_bound: float,
    hi_bound: float,
    max_moves: int | None = None,
    movable: np.ndarray | None = None,
    kernel: str | None = None,
    csr: tuple | None = None,
) -> tuple[list[int], bool]:
    """Dispatch one FM pair pass to ``kernel`` (default: the module default).

    ``csr`` optionally shares a precomputed ``Graph.csr_lists()`` tuple so
    multi-pass callers amortize the list conversion across passes.
    """
    name = kernel if kernel is not None else default_kernel()
    fn = REGISTRY.get(name)
    if fn is None:
        raise _unknown_kernel(name)
    with span("kernel.pass"):
        return fn(g, labels, weights, i, j, lo_bound, hi_bound,
                  max_moves=max_moves, movable=movable, csr=csr)
