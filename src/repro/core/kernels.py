"""Shared Fiduccia–Mattheyses move kernels and the kernel registry.

Every refinement layer in the repo — the Theorem 4 post-pass
(:func:`~repro.core.refine.kway_refine`), the streaming repairer's
halo-restricted passes (:func:`~repro.stream.repair.local_repair`), and the
multilevel baseline's uncoarsening refinement — funnels through one
primitive: a balance-window-preserving FM pass moving vertices between two
classes.  This module holds the three interchangeable implementations of
that primitive, surfaced through a string-keyed :data:`REGISTRY` /
:func:`make_kernel` mirroring the oracle layer:

``bucket`` (the default)
    An array-native bucket-queue kernel in the classic FM discipline.  The
    whole queue lives in a :class:`KernelState` of flat arrays: the gain
    table, a ``nbuckets × n`` bucket-occupancy bitmap (one byte per
    (gain bucket, vertex)), per-bucket entry counts and min-id head hints,
    and the locked/membership masks.  Initial gains come from one signed
    ``np.bincount`` scatter, a pop is a C-level ``memchr`` from the max
    bucket's head hint (so the deterministic ``(gain, vertex-id)`` tie-break
    of the heap kernels is preserved exactly), and a committed move updates
    neighbor gains in one ±2c sweep over the vertex's CSR slice with O(1)
    byte flips per neighbor.  Requires integer-valued edge costs (gains are
    then exact integers and index buckets directly); non-integral instances
    fall back to ``incremental`` below, so the kernel is safe as the
    universal default.

    The dense pass runs as one call into the repo's native module
    (:mod:`repro.core._bucketc`, which also holds the graph traversals of
    :mod:`repro.graphs.components`): it builds the gains from the pair's
    CSR rows — exact in any summation order on integer costs — fills the
    bitmap, runs the move loop and rolls back past the best prefix in C,
    with arrays passed as raw addresses.  ``REPRO_BUCKET_C=0`` switches off
    all native code; the pass then runs the :class:`KernelState` loop in
    Python, with byte-identical labels.

``incremental``
    The PR 4 gain-table kernel.  Same vectorized initial gains, then a
    lazy-deletion heap validated against the stored gain table: a popped
    entry that disagrees with the table is re-enqueued at the table gain
    instead of triggering a recompute.

``reference``
    The historical recompute-everything loop: every pop recomputes the
    vertex's gain from its CSR row, and every accepted move recomputes and
    re-pushes all pair neighbors.  Kept as the semantics oracle for the
    golden-equivalence tests and as the ablation baseline for
    ``benchmarks/bench_e15_perf.py``.

All three kernels make identical decisions: pops order by ``(-gain,
vertex)`` so ties break toward the smallest vertex id, acceptance uses the
same one-move-overshoot window slack, and the result is the best strictly
valid move prefix.  With integer-valued edge costs every gain is an exact
float (sums of integers below 2**53 are associative), so labels come out
byte-identical across all three; with arbitrary float costs the two heap
kernels can differ in degenerate ulp-level near-ties only, and ``bucket``
routes to ``incremental``.

Why a bitmap instead of the textbook doubly-linked bucket lists: linked
lists give O(1) pop of *some* vertex in the max bucket, but preserving the
smallest-id tie-break would need sorted insertion or a bucket scan, both
O(bucket).  A byte-per-slot bitmap keeps pop at one ``memchr`` from a
monotone head hint — O(1) amortized — while insert/remove stay single byte
writes, and the flat buffer is exactly the state a later compiled/GPU
backend wants.

Lazy-deletion equivalence (why ``bucket`` is byte-identical): the heap
kernels let a vertex hold several outstanding entries at once — its latest
gain plus stale older gains.  Stale entries act as delayed alarms: when the
gain frontier descends to one, the vertex is re-enqueued (and immediately
re-examined) at its *current* gain, which can resurrect a vertex whose
in-window entry was consumed by an earlier balance rejection.  The bitmap
reproduces this exactly: an update never clears the byte at the old gain —
it only sets the byte at the new gain — and popping a byte whose bucket
disagrees with the gain table re-arms the vertex at its current bucket.
Equal-key duplicate heap entries (unrepresentable in the bitmap) provably
drain back-to-back with identical outcomes, so collapsing them loses
nothing.

The one-move overshoot slack is ``wmax``, the heaviest vertex weight over
the *full* pair classes — not just the movable members.  A ``movable`` mask
(the streaming repairer's halo) may hide the heaviest vertex; computing the
slack over the masked members would make restricted passes reject moves the
unrestricted FM discipline allows.
"""

from __future__ import annotations

import heapq
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..graphs.graph import Graph
from ..obs import span

__all__ = [
    "KernelState",
    "PairKernel",
    "REGISTRY",
    "DEFAULT_KERNEL",
    "make_kernel",
    "fm_pair_pass",
    "fm_pair_pass_bucket",
    "fm_pair_pass_reference",
    "run_pair_kernel",
    "default_kernel",
    "set_default_kernel",
    "use_kernel",
    "kernel_override",
    "KERNELS",
]

#: tolerance shared by every window / gain comparison in all kernels
_TOL = 1e-12

#: byte ceiling for the bucket bitmap — (2·Δc+1)·n above this routes to the
#: gain-table kernel (huge cost ranges would make the table quadratic-ish)
_BUCKET_TABLE_CAP = 1 << 22


def _pair_slack(w: np.ndarray, in_pair: np.ndarray) -> float:
    """One-move overshoot slack: max weight over the full pair classes."""
    return float(w[in_pair].max()) if np.any(in_pair) else 0.0


def _initial_pair_gains(g: Graph, labels: np.ndarray, in_pair: np.ndarray) -> np.ndarray:
    """Vectorized initial gains: one signed scatter over the pair's edges.

    An edge with both endpoints in the pair contributes -c to each endpoint
    when monochromatic and +c when bichromatic; edges leaving the pair
    contribute nothing (moving v between i and j does not change them).
    Shared by the ``bucket`` and ``incremental`` kernels so their gain
    tables agree bitwise.
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


@dataclass
class KernelState:
    """The bucket kernel's entire queue state as flat arrays.

    ``table`` is a ``nbuckets × n`` occupancy bitmap flattened row-major:
    byte ``b*n + v`` is set iff vertex ``v`` holds a queue entry in gain
    bucket ``b`` (bucket = integer gain + ``offset``, so bucket 0 is gain
    ``-offset``).  ``counts[b]`` is the number of set bytes in row ``b`` and
    ``heads[b]`` a monotone lower bound on the smallest set vertex id —
    popping row ``b`` is ``memchr`` from ``b*n + heads[b]``.  ``maxb`` is
    the highest non-empty bucket (the gain frontier).  A vertex may occupy
    several rows at once: all but its current-gain row are stale alarms (see
    the module docstring).  The move loop lowers these arrays to Python
    scalars for speed and does not write them back; ``build`` is the
    vectorized constructor used once per pass.
    """

    n: int
    offset: int
    nbuckets: int
    gains: np.ndarray
    table: bytearray
    counts: np.ndarray
    heads: np.ndarray
    locked: np.ndarray
    member: np.ndarray
    maxb: int

    @classmethod
    def build(cls, g: Graph, labels: np.ndarray, in_pair: np.ndarray,
              member_mask: np.ndarray, members: np.ndarray, offset: int) -> "KernelState":
        n = g.n
        nbuckets = 2 * offset + 1
        gains = _initial_pair_gains(g, labels, in_pair)
        # integer-valued exact floats -> exact bucket indices in [0, 2*offset]
        buckets = gains[members].astype(np.int64) + offset
        table = bytearray(nbuckets * n)
        view = np.frombuffer(table, dtype=np.uint8)
        view[buckets * n + members] = 1
        counts = np.bincount(buckets, minlength=nbuckets).astype(np.int64)
        # heads are *lower bounds* on the smallest active id per bucket, so
        # zero-init is valid; the first pop's memchr tightens each row's hint
        # at C speed, which beats an exact np.minimum.at scatter here
        heads = np.zeros(nbuckets, dtype=np.int64)
        maxb = int(buckets.max()) if members.size else -1
        return cls(
            n=n, offset=offset, nbuckets=nbuckets, gains=gains, table=table,
            counts=counts, heads=heads, locked=np.zeros(n, dtype=bool),
            member=np.asarray(member_mask, dtype=bool), maxb=maxb,
        )

    def active(self) -> np.ndarray:
        """Vertex ids holding at least one queue entry (test introspection)."""
        view = np.frombuffer(self.table, dtype=np.uint8).reshape(self.nbuckets, self.n)
        return np.flatnonzero(view.any(axis=0)).astype(np.int64)

    def grow(self, new_n: int) -> None:
        """Extend the index space to ``new_n`` vertices in place.

        The streaming layer's vertex set grows mid-session; re-striding here
        (each ``n``-byte bucket row widens to ``new_n`` bytes, occupancy
        preserved) means a live queue survives an ``add_vertex`` batch
        without the O(nbuckets × n) rebuild.  Fresh slots start unlocked,
        non-member, gain 0 and in no bucket; :meth:`enqueue` admits them.
        """
        new_n = int(new_n)
        if new_n < self.n:
            raise ValueError("KernelState.grow cannot shrink the index space")
        if new_n == self.n:
            return
        old = np.frombuffer(self.table, dtype=np.uint8).reshape(self.nbuckets, self.n)
        table = bytearray(self.nbuckets * new_n)
        np.frombuffer(table, dtype=np.uint8).reshape(self.nbuckets, new_n)[
            :, : self.n
        ] = old
        pad = new_n - self.n
        self.table = table
        self.gains = np.concatenate([self.gains, np.zeros(pad, dtype=np.float64)])
        self.locked = np.concatenate([self.locked, np.zeros(pad, dtype=bool)])
        self.member = np.concatenate([self.member, np.zeros(pad, dtype=bool)])
        self.n = new_n

    def enqueue(self, v: int, gain: float) -> None:
        """Admit vertex ``v`` with an integer-valued ``gain`` to the queue."""
        b = int(gain) + self.offset
        if not (0 <= b < self.nbuckets):
            raise ValueError(f"gain {gain} outside the bucket range")
        self.gains[v] = float(gain)
        self.member[v] = True
        slot = b * self.n + v
        if not self.table[slot]:
            self.table[slot] = 1
            self.counts[b] += 1
        self.heads[b] = min(int(self.heads[b]), v)
        self.maxb = max(self.maxb, b)


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
    """Bucket-queue FM pass between classes ``i`` and ``j`` (the default).

    Same contract and same decisions as :func:`fm_pair_pass`.  Eligibility
    is a pure function of the instance, so routing is deterministic:

    * sparse ``movable`` masks (the streaming halo, ``members·8 ≤ n``)
      route to the members-only restricted pass exactly as
      :func:`fm_pair_pass` does;
    * non-integral edge costs, or a bucket bitmap over
      ``_BUCKET_TABLE_CAP`` bytes, fall back to the gain-table heap kernel
      (gains are only bucket indices when they are exact integers);
    * everything else runs the :class:`KernelState` bucket loop.
    """
    w = np.asarray(weights, dtype=np.float64)
    in_pair = (labels == i) | (labels == j)
    wmax = _pair_slack(w, in_pair)
    member_mask = in_pair if movable is None else (in_pair & movable)
    members = np.flatnonzero(member_mask).astype(np.int64)
    if members.size == 0:
        return [], False
    cw_i = float(w[labels == i].sum())
    cw_j = float(w[labels == j].sum())
    if movable is not None and members.size * 8 <= g.n:
        return _restricted_pass(
            g, labels, w, i, j, lo_bound, hi_bound,
            max_moves, member_mask, members, cw_i, cw_j, wmax,
        )
    offset = int(g.max_cost_degree())
    if not g.costs_integral() or (2 * offset + 1) * g.n > _BUCKET_TABLE_CAP:
        return _dense_pass(
            g, labels, w, i, j, lo_bound, hi_bound,
            max_moves, in_pair, member_mask, members, cw_i, cw_j, wmax, csr,
        )
    return _bucket_dense_pass(
        g, labels, w, i, j, lo_bound, hi_bound,
        max_moves, in_pair, member_mask, members, cw_i, cw_j, wmax, csr, offset,
    )


#: lazily-loaded native module (``None`` = unavailable, fall back)
_BUCKET_C_UNSET = object()
_bucket_c = _BUCKET_C_UNSET


def _bucket_loop_c():
    global _bucket_c
    if _bucket_c is _BUCKET_C_UNSET:
        from ._bucketc import load_bucket_loop

        _bucket_c = load_bucket_loop()
    return _bucket_c


def _bucket_dense_pass(
    g, labels, w, i, j, lo_bound, hi_bound,
    max_moves, in_pair, member_mask, members, cw_i, cw_j, wmax, csr, offset,
) -> tuple[list[int], bool]:
    """Dispatch the dense bucket pass to the compiled loop when available.

    Both paths run the identical algorithm with the identical IEEE-754
    operation order, so the choice is invisible in the output (held by the
    equivalence tests); it only moves the loop out of the interpreter.
    Labels the C routine cannot address in place (not int64, or not
    contiguous) take the Python loop.
    """
    lib = _bucket_loop_c()
    if lib is not None and labels.dtype == np.int64 and labels.flags.c_contiguous:
        return _bucket_dense_pass_c(
            lib.bucket_pass, g, labels, w, i, j, lo_bound, hi_bound,
            max_moves, member_mask, members, cw_i, cw_j, wmax, offset,
        )
    return _bucket_dense_pass_py(
        g, labels, w, i, j, lo_bound, hi_bound,
        max_moves, in_pair, member_mask, members, cw_i, cw_j, wmax, csr, offset,
    )


def _bucket_dense_pass_c(
    fn, g, labels, w, i, j, lo_bound, hi_bound,
    max_moves, member_mask, members, cw_i, cw_j, wmax, offset,
) -> tuple[list[int], bool]:
    """One native call: gains, bitmap, move loop and rollback.

    The class weights ``cw_i``/``cw_j`` and ``wmax`` arrive as the numpy
    reductions the prologue computed, so float weights enter the loop with
    the same bits as on the Python path.
    """
    limit = int(max_moves) if max_moves is not None else int(members.size)
    lo_ok = lo_bound - 1e-9
    hi_ok = hi_bound + 1e-9
    start_ok = lo_ok <= cw_i <= hi_ok and lo_ok <= cw_j <= hi_ok
    w = np.ascontiguousarray(w)
    member_u8 = np.ascontiguousarray(member_mask).view(np.uint8)
    moves = np.empty(max(limit, 1), dtype=np.int64)
    best = np.zeros(1, dtype=np.int64)
    nmoves = fn(
        g.n, offset,
        g.indptr.ctypes.data, g.nbr.ctypes.data, g.arc_costs.ctypes.data,
        labels.ctypes.data, member_u8.ctypes.data, w.ctypes.data, i, j,
        cw_i, cw_j, lo_ok, hi_ok, lo_bound - wmax - _TOL, hi_bound + wmax + _TOL,
        _TOL, limit, start_ok, moves.ctypes.data, best.ctypes.data,
    )
    if nmoves < 0:
        raise MemoryError("bucket pass: native scratch allocation failed")
    best_prefix = int(best[0])
    if best_prefix == 0 and not start_ok and nmoves:
        # the start was outside the window: the C side kept the best effort
        return moves[:nmoves].tolist(), False
    return moves[:best_prefix].tolist(), best_prefix > 0


def _bucket_dense_pass_py(
    g, labels, w, i, j, lo_bound, hi_bound,
    max_moves, in_pair, member_mask, members, cw_i, cw_j, wmax, csr, offset,
) -> tuple[list[int], bool]:
    state = KernelState.build(g, labels, in_pair, member_mask, members, offset)
    indptr_l, nbr_l, acost_l = csr if csr is not None else g.csr_lists()
    n = state.n
    # scalar loop runs on borrowed Python-native views of the state arrays
    table = state.table
    counts_l = state.counts.tolist()
    heads_l = state.heads.tolist()
    maxb = state.maxb
    gains_l = state.gains.tolist()
    labels_l = labels.tolist()
    w_l = w.tolist()
    member_l = member_mask.tolist()
    locked = [False] * n
    find = table.find
    moves: list[int] = []
    best_prefix = 0
    best_improvement = 0.0
    improvement = 0.0
    limit = max_moves if max_moves is not None else members.size

    lo_ok = lo_bound - 1e-9
    hi_ok = hi_bound + 1e-9
    lo_slack = lo_bound - wmax - _TOL
    hi_slack = hi_bound + wmax + _TOL
    start_ok = lo_ok <= cw_i <= hi_ok and lo_ok <= cw_j <= hi_ok
    while len(moves) < limit:
        while maxb >= 0 and not counts_l[maxb]:
            maxb -= 1
        if maxb < 0:
            break
        base = maxb * n
        p = find(1, base + heads_l[maxb], base + n)
        v = p - base
        heads_l[maxb] = v
        table[p] = 0
        counts_l[maxb] -= 1
        if locked[v]:
            continue  # a stale alarm of an already-moved vertex
        gv = gains_l[v]
        bn = int(gv) + offset
        if bn != maxb:
            # stale alarm: the gain table moved on since this byte was set.
            # Re-arm at the *current* gain (the heap's stale re-enqueue) —
            # possibly above the frontier, in which case v pops right back.
            pn = bn * n + v
            if not table[pn]:
                table[pn] = 1
                counts_l[bn] += 1
                if v < heads_l[bn]:
                    heads_l[bn] = v
                if bn > maxb:
                    maxb = bn
            continue
        wv = w_l[v]
        if labels_l[v] == i:
            src, dst = i, j
            new_src, new_dst = cw_i - wv, cw_j + wv
        else:
            src, dst = j, i
            new_src, new_dst = cw_j - wv, cw_i + wv
        # FM discipline: allow one-move overshoot past the strict window;
        # only strictly-valid intermediate states can become the result.
        if new_src < lo_slack or new_dst > hi_slack:
            continue  # consumed; only a neighbor commit or an alarm revives v
        labels_l[v] = dst
        labels[v] = dst
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
        # O(deg) delta update: v flipped src -> dst, so a pair neighbor u
        # gains +2c if it sits in src (v left u's class) and -2c if it sits
        # in dst (v joined it).  Setting the byte at the new bucket without
        # clearing the old one is the bitmap image of the heap's push: the
        # old byte stays behind as a stale alarm.
        for t in range(indptr_l[v], indptr_l[v + 1]):
            u = nbr_l[t]
            lu = labels_l[u]
            if lu == i or lu == j:
                c2 = 2.0 * acost_l[t]
                gu = gains_l[u] + c2 if lu == src else gains_l[u] - c2
                gains_l[u] = gu
                if not locked[u] and member_l[u]:
                    bu = int(gu) + offset
                    pu = bu * n + u
                    if not table[pu]:
                        table[pu] = 1
                        counts_l[bu] += 1
                        if u < heads_l[bu]:
                            heads_l[bu] = u
                        if bu > maxb:
                            maxb = bu
    # rollback past the best strictly-valid prefix; if the input itself was
    # outside the window (shouldn't happen), keep the best effort instead of
    # rolling back to an invalid start
    if best_prefix == 0 and not start_ok and moves:
        return moves, False
    for v in reversed(moves[best_prefix:]):
        labels[v] = i if labels[v] == j else j
    return moves[:best_prefix], best_prefix > 0


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
    """Incremental gain-table FM pass between classes ``i`` and ``j``.

    Mutates ``labels`` in place.  Returns ``(kept, improved)`` where ``kept``
    lists the vertices whose class actually changed (in move order) and
    ``improved`` says whether a strictly-valid improving prefix was kept
    (the legacy boolean contract of ``pairwise_refine``).

    Two internal paths share identical move decisions:

    * ``movable is None`` (dense) — initial gains come from one signed
      scatter over all pair edges and the move loop runs on Python-list CSR
      views; multi-pass callers can pass ``csr=g.csr_lists()`` to amortize
      that conversion across passes.
    * ``movable`` given and sparse (the streaming halo on a large graph) —
      gains are built from the *members'* CSR rows only and the loop reads
      the numpy arrays directly, so setup costs O(Σ deg(member)) beyond the
      class-weight sums instead of O(n + m): localized perturbations keep
      costing localized work.  When the masked members cover a sizable
      fraction of the graph (> n/8) the dense path's vectorized setup
      amortizes better and is used instead; the switch depends only on the
      instance and mask, so results stay deterministic.
    """
    w = np.asarray(weights, dtype=np.float64)
    in_pair = (labels == i) | (labels == j)
    wmax = _pair_slack(w, in_pair)
    member_mask = in_pair if movable is None else (in_pair & movable)
    members = np.flatnonzero(member_mask).astype(np.int64)
    if members.size == 0:
        return [], False
    cw_i = float(w[labels == i].sum())
    cw_j = float(w[labels == j].sum())
    if movable is None or members.size * 8 > g.n:
        return _dense_pass(
            g, labels, w, i, j, lo_bound, hi_bound,
            max_moves, in_pair, member_mask, members, cw_i, cw_j, wmax, csr,
        )
    return _restricted_pass(
        g, labels, w, i, j, lo_bound, hi_bound,
        max_moves, member_mask, members, cw_i, cw_j, wmax,
    )


def _dense_pass(
    g, labels, w, i, j, lo_bound, hi_bound,
    max_moves, in_pair, member_mask, members, cw_i, cw_j, wmax, csr,
) -> tuple[list[int], bool]:
    gains = _initial_pair_gains(g, labels, in_pair)

    # --- Python-native state for the scalar move loop.  At a handful of
    # neighbors per committed move, list reads beat numpy element access by
    # an order of magnitude; ``labels`` (the caller's array) is kept in sync
    # at every commit and rollback.
    indptr_l, nbr_l, acost_l = csr if csr is not None else g.csr_lists()
    gains_l = gains.tolist()
    labels_l = labels.tolist()
    w_l = w.tolist()
    member_l = member_mask.tolist()
    locked = [False] * g.n
    heap = list(zip((-gains[members]).tolist(), members.tolist()))
    heapq.heapify(heap)
    moves: list[int] = []
    best_prefix = 0
    best_improvement = 0.0
    improvement = 0.0
    limit = max_moves if max_moves is not None else members.size
    heappop, heappush = heapq.heappop, heapq.heappush

    lo_ok = lo_bound - 1e-9
    hi_ok = hi_bound + 1e-9
    lo_slack = lo_bound - wmax - _TOL
    hi_slack = hi_bound + wmax + _TOL
    start_ok = lo_ok <= cw_i <= hi_ok and lo_ok <= cw_j <= hi_ok
    while heap and len(moves) < limit:
        neg_gain, v = heappop(heap)
        if locked[v]:
            continue
        lv = labels_l[v]
        if lv != i and lv != j:
            continue
        gv = gains_l[v]
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
        labels[v] = dst
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
                gu = gains_l[u] + c2 if lu == src else gains_l[u] - c2
                gains_l[u] = gu
                if not locked[u] and member_l[u]:
                    heappush(heap, (-gu, u))
    # rollback past the best strictly-valid prefix; if the input itself was
    # outside the window (shouldn't happen), keep the best effort instead of
    # rolling back to an invalid start
    if best_prefix == 0 and not start_ok and moves:
        return moves, False
    for v in reversed(moves[best_prefix:]):
        labels[v] = i if labels[v] == j else j
    return moves[:best_prefix], best_prefix > 0


def _restricted_pass(
    g, labels, w, i, j, lo_bound, hi_bound,
    max_moves, member_mask, members, cw_i, cw_j, wmax,
) -> tuple[list[int], bool]:
    """Halo-restricted pass: gain table over members only, numpy access.

    Beyond the O(n) class-weight sums the shared prologue already pays,
    setup is proportional to the members' degree sum — no full-edge scan
    and no O(n) list conversions — so the streaming repairer's dirty-region
    passes scale with the perturbation, not the instance.  The initial
    per-member gain uses the same two-sum expression as the reference
    kernel, so restricted passes match it exactly even for float costs.
    """
    indptr, nbr, acost = g.indptr, g.nbr, g.arc_costs
    gains: dict[int, float] = {}
    heap = []
    for v in members.tolist():
        s, e = indptr[v], indptr[v + 1]
        nbrs = nbr[s:e]
        ecost = acost[s:e]
        own = labels[nbrs] == labels[v]
        other = labels[nbrs] == (j if labels[v] == i else i)
        gv = float(ecost[other].sum() - ecost[own].sum())
        gains[v] = gv
        heap.append((-gv, v))
    heapq.heapify(heap)
    locked = np.zeros(g.n, dtype=bool)
    moves: list[int] = []
    best_prefix = 0
    best_improvement = 0.0
    improvement = 0.0
    limit = max_moves if max_moves is not None else members.size
    heappop, heappush = heapq.heappop, heapq.heappush

    lo_ok = lo_bound - 1e-9
    hi_ok = hi_bound + 1e-9
    lo_slack = lo_bound - wmax - _TOL
    hi_slack = hi_bound + wmax + _TOL
    start_ok = lo_ok <= cw_i <= hi_ok and lo_ok <= cw_j <= hi_ok
    while heap and len(moves) < limit:
        neg_gain, v = heappop(heap)
        if locked[v]:
            continue
        lv = labels[v]
        if lv != i and lv != j:
            continue
        gv = gains[v]
        if abs(gv + neg_gain) > _TOL:
            heappush(heap, (-gv, v))
            continue
        wv = float(w[v])
        if lv == i:
            src, dst = i, j
            new_src, new_dst = cw_i - wv, cw_j + wv
        else:
            src, dst = j, i
            new_src, new_dst = cw_j - wv, cw_i + wv
        if new_src < lo_slack or new_dst > hi_slack:
            continue
        labels[v] = dst
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
        # O(deg) delta update, members only: non-members never enter the
        # heap (matching the reference push guard), so only their gains
        # would go stale and none are tracked.
        for t in range(int(indptr[v]), int(indptr[v + 1])):
            u = int(nbr[t])
            lu = labels[u]
            if (lu == i or lu == j) and member_mask[u]:
                c2 = 2.0 * float(acost[t])
                gu = gains[u] + c2 if lu == src else gains[u] - c2
                gains[u] = gu
                if not locked[u]:
                    heappush(heap, (-gu, u))
    if best_prefix == 0 and not start_ok and moves:
        return moves, False
    for v in reversed(moves[best_prefix:]):
        labels[v] = i if labels[v] == j else j
    return moves[:best_prefix], best_prefix > 0


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
# the kernel registry (mirrors repro.separators.REGISTRY / make_oracle)
# ---------------------------------------------------------------------------

#: internal name -> pass-function table used by the dispatcher (no warnings)
_KERNEL_FNS = {
    "bucket": fm_pair_pass_bucket,
    "incremental": fm_pair_pass,
    "reference": fm_pair_pass_reference,
}


class PairKernel:
    """A named, stateless FM pair-pass strategy.

    Instances are callable with the :func:`fm_pair_pass` signature; ``name``
    is the registry key (recorded in sweep records as ``metrics["kernel"]``)
    and ``repr`` is constructor-shaped and stable.
    """

    __slots__ = ()
    #: stable registry-style identifier, overridden per subclass
    name: str = "?"

    def __call__(self, g, labels, weights, i, j, lo_bound, hi_bound,
                 max_moves=None, movable=None, csr=None):
        return _KERNEL_FNS[self.name](
            g, labels, weights, i, j, lo_bound, hi_bound,
            max_moves=max_moves, movable=movable, csr=csr)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class BucketKernel(PairKernel):
    """Array-native bucket-queue kernel (integer-cost fast path)."""

    name = "bucket"


class GainTableKernel(PairKernel):
    """Incremental gain-table kernel with a lazy-deletion heap (PR 4)."""

    name = "incremental"


class ReferenceKernel(PairKernel):
    """Recompute-on-pop semantics oracle / ablation baseline."""

    name = "reference"


#: string-keyed kernel registry — the names ``--kernel`` and the sweep
#: grid's ``kernel=`` param accept
REGISTRY = {
    "bucket": BucketKernel,
    "incremental": GainTableKernel,
    "reference": ReferenceKernel,
}

#: the kernel used when neither caller, override, nor env picks one
DEFAULT_KERNEL = "bucket"


def make_kernel(name: str) -> PairKernel:
    """Build a kernel from its registry name (``ValueError`` on unknown)."""
    try:
        builder = REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown FM kernel {name!r}; known: {', '.join(sorted(REGISTRY))}"
        ) from None
    return builder()


def _initial_default() -> str:
    name = os.environ.get("REPRO_KERNEL", "").strip()
    if not name:
        return DEFAULT_KERNEL
    if name not in REGISTRY:
        warnings.warn(
            f"REPRO_KERNEL={name!r} is not a known kernel "
            f"(known: {', '.join(sorted(REGISTRY))}); using {DEFAULT_KERNEL!r}",
            RuntimeWarning,
            stacklevel=2,
        )
        return DEFAULT_KERNEL
    return name


_default_kernel = _initial_default()


def default_kernel() -> str:
    """Name of the kernel used when callers don't pick one explicitly."""
    return _default_kernel


def set_default_kernel(name: str) -> str:
    """Set the process-wide default kernel; returns the previous name.

    Raises ``KeyError`` on unknown names — the legacy contract; the
    registry-era surface (:func:`make_kernel` / :func:`use_kernel`) raises
    ``ValueError`` instead.
    """
    global _default_kernel
    if name not in REGISTRY:
        raise KeyError(f"unknown FM kernel {name!r} (have {sorted(REGISTRY)})")
    previous = _default_kernel
    _default_kernel = name
    return previous


@contextmanager
def use_kernel(name: str):
    """Temporarily switch the default kernel (tests / ablation benchmarks)."""
    if name not in REGISTRY:
        raise ValueError(
            f"unknown FM kernel {name!r}; known: {', '.join(sorted(REGISTRY))}"
        )
    global _default_kernel
    previous = _default_kernel
    _default_kernel = name
    try:
        yield
    finally:
        _default_kernel = previous


@contextmanager
def kernel_override(name: str):
    """Deprecated alias for :func:`use_kernel` (old KeyError contract kept)."""
    warnings.warn(
        "core.kernels.kernel_override() is deprecated; use use_kernel()",
        DeprecationWarning,
        stacklevel=3,
    )
    previous = set_default_kernel(name)
    try:
        yield
    finally:
        set_default_kernel(previous)


class _DeprecatedKernelDict(dict):
    """Legacy ``KERNELS`` name→function mapping, now a deprecation shim."""

    def __getitem__(self, name):
        warnings.warn(
            "core.kernels.KERNELS is deprecated; use make_kernel(name) / REGISTRY",
            DeprecationWarning,
            stacklevel=2,
        )
        return super().__getitem__(name)


#: deprecated registry of pair-pass functions — prefer :data:`REGISTRY`
KERNELS = _DeprecatedKernelDict(_KERNEL_FNS)


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
    name = kernel if kernel is not None else _default_kernel
    try:
        fn = _KERNEL_FNS[name]
    except KeyError:
        raise KeyError(f"unknown FM kernel {name!r} (have {sorted(REGISTRY)})") from None
    with span("kernel.pass"):
        return fn(g, labels, weights, i, j, lo_bound, hi_bound,
                  max_moves=max_moves, movable=movable, csr=csr)
