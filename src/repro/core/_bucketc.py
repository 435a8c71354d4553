"""The repo's runtime-compiled native module (optional): FM pass and BFS.

One C source, one cached shared object, two families of routines:

* ``bucket_pass`` — the dense bucket-queue FM pass behind the ``bucket``
  kernel (:mod:`repro.core.kernels`).  It builds the pair's gains and the
  bucket-occupancy bitmap from the pair's CSR rows, runs the move loop,
  and rolls back past the best strictly-valid prefix, all in one call.
* ``bfs_levels``, ``bfs_order`` and ``components`` — the graph traversals
  behind :mod:`repro.graphs.components` (and through it the BFS oracle,
  pseudo-peripheral seeds, per-component spectral solves, the conversion
  step, stream repair and traces, and the bounds).

The source is compiled with the system C compiler the first time any
routine is needed — never at import — and the shared object is cached under
``~/.cache/repro`` keyed by a hash of the source, so every later process
(sweep-pool workers, service shards) just ``dlopen``\\ s it.
:func:`load_bucket_loop` is the one loader, memoized per process.

Every routine reproduces its Python counterpart exactly:

* The FM move loop makes the decisions of the heap kernels
  (``kernels._move_loop`` and the ``reference`` loop): the same
  ``(gain, vertex-id)`` pop order, stale entries re-armed at the current
  gain as the heap re-enqueues them, the same window checks, and the same
  IEEE-754 double operations in the same order (compiled with
  ``-ffp-contract=off`` so no fused multiply-adds change a single bit).
  Initial gains are summed per CSR row instead of per edge; the pass only
  runs on integer costs, where every such sum is exact in any order.
* BFS distances are exact; an order lists each component's vertices by
  ``(level, id)``, the order the numpy frontier loop's per-level
  ``np.unique`` yields; components are numbered by lowest vertex id.

Labels and every traversal output are therefore byte-identical to the
Python paths — held by ``tests/test_kernels.py`` (against the heap kernels)
and ``tests/test_components.py``.

``REPRO_BUCKET_C=0`` switches off all native code.  Without it, or without
a compiler, or when the compile or the ``dlopen`` fails, every caller falls
back to the gain-table heap and the numpy traversals.  The fallback is
observable: a ``native.unavailable`` event carrying the reason, and a
``native_unavailable{reason=...}`` gauge (``native_loaded`` when loaded) in
the telemetry registry, which the service's ``stats`` op merges across
shards.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import shutil
import subprocess
import tempfile

__all__ = ["load_bucket_loop"]

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;
typedef unsigned char u8;

/* One dense bucket-queue FM pass between classes ci and cj.
 *
 * Builds the gain table (every pair vertex, from its CSR row) and the
 * bucket bitmap (members only), runs the move loop, and rolls labels back
 * past the best strictly-valid prefix -- unless the start was outside the
 * window and no valid prefix was found, in which case the best effort is
 * kept (start_ok == 0, *best_prefix_out == 0).  Writes the move sequence
 * to moves_out and returns its length, or -1 if scratch allocation fails.
 */
i64 bucket_pass(
    i64 n, i64 offset,
    const i64 *indptr, const i64 *nbr, const double *acost,
    i64 *labels, const u8 *member, const double *w, i64 ci, i64 cj,
    double cw_i, double cw_j,
    double lo_ok, double hi_ok, double lo_slack, double hi_slack,
    double tol, i64 limit, i64 start_ok,
    i64 *moves_out, i64 *best_prefix_out)
{
    i64 nb = 2 * offset + 1, nn = n > 0 ? n : 1;
    double *gains = calloc((size_t)nn, sizeof(double));
    u8 *table = calloc((size_t)(nb * nn), 1);
    i64 *counts = calloc((size_t)nb, sizeof(i64));
    i64 *heads = calloc((size_t)nb, sizeof(i64));
    u8 *locked = calloc((size_t)nn, 1);
    i64 nmoves = -1, best_prefix = 0, maxb = -1;
    if (!gains || !table || !counts || !heads || !locked) goto done;
    for (i64 v = 0; v < n; v++) {
        i64 lv = labels[v];
        if (lv != ci && lv != cj) continue;
        double gv = 0.0;
        for (i64 t = indptr[v]; t < indptr[v + 1]; t++) {
            i64 lu = labels[nbr[t]];
            if (lu == lv) gv -= acost[t];
            else if (lu == ci || lu == cj) gv += acost[t];
        }
        gains[v] = gv;
        if (member[v]) {
            i64 b = (i64)gv + offset;
            table[b * n + v] = 1;
            counts[b]++;
            if (b > maxb) maxb = b;
        }
    }
    nmoves = 0;
    double best_improvement = 0.0, improvement = 0.0;
    while (nmoves < limit) {
        while (maxb >= 0 && counts[maxb] == 0) maxb--;
        if (maxb < 0) break;
        u8 *row = table + maxb * n;
        u8 *q = memchr(row + heads[maxb], 1, (size_t)(n - heads[maxb]));
        if (!q) { counts[maxb] = 0; continue; }  /* defensive; unreachable */
        i64 v = (i64)(q - row);
        heads[maxb] = v;
        row[v] = 0;
        counts[maxb]--;
        if (locked[v]) continue;      /* stale alarm of a moved vertex */
        double gv = gains[v];
        i64 bn = (i64)gv + offset;
        if (bn != maxb) {
            /* stale alarm: re-arm at the current gain (heap re-enqueue) */
            u8 *pn = table + bn * n + v;
            if (!*pn) {
                *pn = 1;
                counts[bn]++;
                if (v < heads[bn]) heads[bn] = v;
                if (bn > maxb) maxb = bn;
            }
            continue;
        }
        double wv = w[v];
        i64 src, dst;
        double new_src, new_dst;
        if (labels[v] == ci) {
            src = ci; dst = cj;
            new_src = cw_i - wv; new_dst = cw_j + wv;
        } else {
            src = cj; dst = ci;
            new_src = cw_j - wv; new_dst = cw_i + wv;
        }
        if (new_src < lo_slack || new_dst > hi_slack) continue;
        labels[v] = dst;
        locked[v] = 1;
        if (src == ci) { cw_i = new_src; cw_j = new_dst; }
        else           { cw_j = new_src; cw_i = new_dst; }
        improvement += gv;
        moves_out[nmoves++] = v;
        if (improvement > best_improvement + tol
            && lo_ok <= cw_i && cw_i <= hi_ok
            && lo_ok <= cw_j && cw_j <= hi_ok) {
            best_improvement = improvement;
            best_prefix = nmoves;
        }
        for (i64 t = indptr[v]; t < indptr[v + 1]; t++) {
            i64 u = nbr[t];
            i64 lu = labels[u];
            if (lu == ci || lu == cj) {
                double c2 = 2.0 * acost[t];
                double gu = (lu == src) ? gains[u] + c2 : gains[u] - c2;
                gains[u] = gu;
                if (!locked[u] && member[u]) {
                    i64 bu = (i64)gu + offset;
                    u8 *pu = table + bu * n + u;
                    if (!*pu) {
                        *pu = 1;
                        counts[bu]++;
                        if (u < heads[bu]) heads[bu] = u;
                        if (bu > maxb) maxb = bu;
                    }
                }
            }
        }
    }
    if (best_prefix > 0 || start_ok || nmoves == 0) {
        for (i64 q = nmoves - 1; q >= best_prefix; q--) {
            i64 v = moves_out[q];
            labels[v] = labels[v] == cj ? ci : cj;
        }
    }
    *best_prefix_out = best_prefix;
done:
    free(gains); free(table); free(counts); free(heads); free(locked);
    return nmoves;
}

/* BFS distance from a (validated, possibly repeated) source set into
 * level[0..n); -1 marks unreachable vertices.  Returns 0, or -1 if scratch
 * allocation fails. */
i64 bfs_levels(i64 n, const i64 *indptr, const i64 *nbr,
               const i64 *sources, i64 nsrc, i64 *level)
{
    i64 *queue = malloc((size_t)(n > 0 ? n : 1) * sizeof(i64));
    if (!queue) return -1;
    for (i64 v = 0; v < n; v++) level[v] = -1;
    i64 head = 0, tail = 0;
    for (i64 s = 0; s < nsrc; s++) {
        i64 v = sources[s];
        if (level[v] < 0) { level[v] = 0; queue[tail++] = v; }
    }
    while (head < tail) {
        i64 v = queue[head++], d = level[v] + 1;
        for (i64 t = indptr[v]; t < indptr[v + 1]; t++) {
            i64 u = nbr[t];
            if (level[u] < 0) { level[u] = d; queue[tail++] = u; }
        }
    }
    free(queue);
    return 0;
}

/* Every vertex in BFS order: source's component first, then each
 * remaining component from its lowest id; within a component by
 * (level, id).  Plain FIFO BFS assigns each vertex a slot (component rank,
 * level); a counting sort over the ids in increasing order then lists the
 * slots in order, each one sorted by id.  Returns 0, or -1 if scratch
 * allocation fails. */
i64 bfs_order(i64 n, const i64 *indptr, const i64 *nbr, i64 source,
              i64 *order)
{
    i64 nn = n > 0 ? n : 1;
    i64 *slot = malloc((size_t)nn * sizeof(i64));
    i64 *start = calloc((size_t)nn + 1, sizeof(i64));
    if (!slot || !start) { free(slot); free(start); return -1; }
    for (i64 v = 0; v < n; v++) slot[v] = -1;
    i64 base = 0, tail = 0;            /* order[] doubles as the BFS queue */
    for (i64 s = -1; s < n; s++) {
        i64 r = s < 0 ? source : s;
        if (slot[r] >= 0) continue;
        slot[r] = base;
        i64 head = tail, top = base;
        order[tail++] = r;
        while (head < tail) {
            i64 v = order[head++], d = slot[v] + 1;
            for (i64 t = indptr[v]; t < indptr[v + 1]; t++) {
                i64 u = nbr[t];
                if (slot[u] < 0) { slot[u] = d; order[tail++] = u; top = d; }
            }
        }
        base = top + 1;
    }
    for (i64 v = 0; v < n; v++) start[slot[v] + 1]++;
    for (i64 b = 0; b < base; b++) start[b + 1] += start[b];
    for (i64 v = 0; v < n; v++) order[start[slot[v]]++] = v;
    free(slot); free(start);
    return 0;
}

/* Connected-component id per vertex, numbered by lowest vertex id.
 * Returns the number of components, or -1 if scratch allocation fails. */
i64 components(i64 n, const i64 *indptr, const i64 *nbr, i64 *comp)
{
    i64 *queue = malloc((size_t)(n > 0 ? n : 1) * sizeof(i64));
    if (!queue) return -1;
    for (i64 v = 0; v < n; v++) comp[v] = -1;
    i64 cid = 0;
    for (i64 s = 0; s < n; s++) {
        if (comp[s] >= 0) continue;
        i64 head = 0, tail = 0;
        comp[s] = cid;
        queue[tail++] = s;
        while (head < tail) {
            i64 v = queue[head++];
            for (i64 t = indptr[v]; t < indptr[v + 1]; t++) {
                i64 u = nbr[t];
                if (comp[u] < 0) { comp[u] = cid; queue[tail++] = u; }
            }
        }
        cid++;
    }
    free(queue);
    return cid;
}
"""

_I64 = ctypes.c_int64
_F64 = ctypes.c_double
_PTR = ctypes.c_void_p

#: routine name -> argtypes; every routine returns an int64 status/count.
#: Arrays cross as raw addresses (``ndarray.ctypes.data``); callers own the
#: dtype/contiguity/range checks.
_SIGNATURES = {
    "bucket_pass": [
        _I64, _I64,                     # n, offset
        _PTR, _PTR, _PTR,               # indptr, nbr, acost
        _PTR, _PTR, _PTR, _I64, _I64,   # labels, member, w, ci, cj
        _F64, _F64,                     # cw_i, cw_j
        _F64, _F64, _F64, _F64,         # lo_ok, hi_ok, lo_slack, hi_slack
        _F64, _I64, _I64,               # tol, limit, start_ok
        _PTR, _PTR,                     # moves_out, best_prefix_out
    ],
    "bfs_levels": [_I64, _PTR, _PTR, _PTR, _I64, _PTR],
    "bfs_order": [_I64, _PTR, _PTR, _I64, _PTR],
    "components": [_I64, _PTR, _PTR, _PTR],
}

_UNSET = object()
_lib = _UNSET


def _cache_dir() -> pathlib.Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return pathlib.Path(root) / "repro"


def _enabled() -> bool:
    return os.environ.get("REPRO_BUCKET_C", "1").strip().lower() not in (
        "0", "false", "no", "off")


def _report(reason: str | None, detail: str | None = None) -> None:
    """Record the load outcome: a gauge (when telemetry is on) and, on a
    fallback, a ``native.unavailable`` event."""
    from ..obs import events, registry, telemetry_enabled

    if telemetry_enabled():
        if reason is None:
            registry().gauge("native_loaded").set(1)
        else:
            registry().gauge("native_unavailable", reason=reason).set(1)
    if reason is not None:
        events.emit("native.unavailable", reason=reason, detail=detail)


def _compile(cc: str, sofile: pathlib.Path) -> None:
    sofile.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=sofile.parent) as td:
        csrc = pathlib.Path(td) / "native.c"
        csrc.write_text(_C_SOURCE)
        tmp = pathlib.Path(td) / "native.so"
        # -ffp-contract=off: no FMA contraction — double ops must match the
        # heap kernels bit-for-bit for byte-identity
        subprocess.run(
            [cc, "-std=c11", "-O2", "-ffp-contract=off", "-fPIC", "-shared",
             str(csrc), "-o", str(tmp)],
            check=True, capture_output=True)
        # atomic publish: concurrent first-time builders agree
        os.replace(tmp, sofile)


def _load():
    if not _enabled():
        _report("disabled", "REPRO_BUCKET_C")
        return None
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        _report("no-compiler")
        return None
    tag = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    sofile = _cache_dir() / f"bucketc-{tag}.so"
    if not sofile.exists():
        try:
            _compile(cc, sofile)
        except (OSError, subprocess.SubprocessError) as exc:
            stderr = getattr(exc, "stderr", None)
            detail = stderr.decode(errors="replace")[-500:] if stderr else str(exc)
            _report("compile-failed", detail)
            return None
    try:
        lib = ctypes.CDLL(str(sofile))
    except OSError as exc:
        _report("dlopen-failed", str(exc))
        return None
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype = _I64
        fn.argtypes = argtypes
    _report(None)
    return lib


def load_bucket_loop():
    """Compile (once, cached on disk) and load the native module.

    Returns the loaded library — ``bucket_pass``, ``bfs_levels``,
    ``bfs_order`` and ``components`` with their signatures set — or
    ``None`` when native code is unavailable, after reporting why:
    ``disabled``, ``no-compiler``, ``compile-failed`` or ``dlopen-failed``.
    Memoized per process: the first call decides, later calls are free.
    """
    global _lib
    if _lib is _UNSET:
        _lib = _load()
    return _lib
