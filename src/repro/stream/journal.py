"""Per-session mutation journals: the crash-recovery log for streaming.

A streaming session's entire state is a pure function of (scenario spec,
applied mutation sequence) — see :class:`~repro.stream.session.StreamSession`
— so the *tiny* mutation log is all that must survive a shard crash.  A
:class:`JournalStore` keeps one append-only JSON-lines file per session:

* a **header** line written at open time — the session id, the scenario
  spec, and the base state's ``(version, hash)`` fingerprint;
* one **op** line per acknowledged mutate — either ``{"steps": n}`` (trace
  driven) or ``{"mutations": [...]}`` (explicit wire batches), stamped with
  the post-op fingerprint the replayed state must reproduce byte-for-byte.

Appends are written and flushed immediately (an acknowledged op is always
visible to a same-host recovery read) and fsynced in batches of
``fsync_every`` so the hot mutate path does not pay one disk barrier per
request — and the barrier itself is caller-driven (:meth:`JournalStore.append`
reports when one is due, :meth:`JournalStore.sync_session` runs it), so the
server can take it off its event loop.  Reads tolerate a torn trailing line
(a crash mid-append leaves a prefix of the log, which is exactly the state
the worker had acknowledged); a *newline-terminated* corrupt line is real
corruption of an acknowledged op and refuses to load instead.

Journal files are keyed by a sanitized slug of the session id plus a content
hash of the full id, so hostile ids cannot escape the directory or collide.
The server garbage-collects them aggressively: ``close_stream``, TTL expiry,
and unrecoverable loss each delete the file, and :meth:`JournalStore.sweep`
removes any journal with no live session at startup.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re

__all__ = ["JournalError", "JournalStore", "journal_file_name", "read_journal"]

#: journal file suffix; the sweep only ever touches files matching this
_SUFFIX = ".journal"

_SLUG_RE = re.compile(r"[^A-Za-z0-9._-]")


class JournalError(ValueError):
    """A missing, unreadable, or structurally invalid journal."""


def journal_file_name(session_id: str) -> str:
    """Filesystem-safe, collision-free file name for one session id.

    Public because it is the *cross-host* naming contract: the ring router
    locates a dead host's journal for a session purely by recomputing this
    name under that host's journal directory on shared storage.
    """
    slug = _SLUG_RE.sub("_", session_id)[:48] or "session"
    digest = hashlib.sha256(session_id.encode()).hexdigest()[:12]
    return f"{slug}-{digest}{_SUFFIX}"


def read_journal(path) -> tuple[dict, list[dict]]:
    """Parse one journal file into ``(header, ops)``.

    A torn trailing line — the signature of a crash mid-append — is dropped
    silently: everything before it was acknowledged, everything after it was
    not, so the prefix *is* the recoverable state.  A torn or missing
    header, by contrast, is unrecoverable and raises :class:`JournalError`.
    """
    path = pathlib.Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    entries: list[dict] = []
    lines = raw.split(b"\n")
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        torn_tail = index == len(lines) - 1  # no trailing newline: mid-append
        try:
            entry = json.loads(line)
        except ValueError:
            if torn_tail:
                break  # drop the torn tail; the prefix is the journal
            # each entry is one write() of json+"\n", so a partial write can
            # never be newline-terminated: a terminated corrupt line is real
            # corruption of an *acknowledged* op — refuse, don't under-replay
            raise JournalError(f"corrupt journal line {index + 1} in {path}")
        if not isinstance(entry, dict):
            raise JournalError(f"journal line {index + 1} in {path} is not an object")
        if torn_tail:
            break  # parsed, but unterminated: the append never completed
        entries.append(entry)
    if not entries or entries[0].get("kind") != "open":
        raise JournalError(f"journal {path} has no open header")
    header, ops = entries[0], entries[1:]
    if any(op.get("kind") != "mutate" for op in ops):
        raise JournalError(f"journal {path} has a non-mutate op entry")
    return header, ops


class _Journal:
    """One open append-only journal file with batched, caller-driven fsync.

    ``append`` only writes and flushes (a same-host recovery read needs no
    more); the fsync disk barrier is deferred until ``needs_sync`` says a
    batch is due and the caller invokes :meth:`sync` — the server runs that
    on an executor thread so a slow disk never stalls its event loop.
    """

    def __init__(self, path: pathlib.Path, fsync_every: int):
        self.path = path
        self._fsync_every = fsync_every
        self._file = open(path, "w", encoding="utf-8")
        self._unsynced = 0

    def append(self, entry: dict) -> None:
        self._file.write(json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n")
        self._file.flush()
        self._unsynced += 1

    @property
    def needs_sync(self) -> bool:
        return self._unsynced >= self._fsync_every

    def sync(self) -> None:
        if self._unsynced:
            os.fsync(self._file.fileno())
            self._unsynced = 0

    def close(self, sync: bool = True) -> None:
        try:
            if sync:
                self.sync()
        finally:
            self._file.close()


class JournalStore:
    """Directory of per-session mutation journals with GC.

    ``append_hook`` is a test seam: a callable fired as ``hook(session_id,
    entry)`` after each line is written but before the append returns — the
    fault-injection harness uses it to kill a shard at exactly the "during
    journal append" moment.  It is never set in production.
    """

    def __init__(self, directory, fsync_every: int = 8, append_hook=None):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_every = max(1, int(fsync_every))
        self.append_hook = append_hook
        self._open: dict[str, _Journal] = {}
        self._lock_file = self._acquire_owner_lock()
        self.appends = 0
        self.created = 0
        self.deleted = 0
        self.swept = 0

    def _acquire_owner_lock(self):
        """Claim exclusive ownership of the directory (flock on ``.lock``).

        The startup sweep deletes every journal with no live session, which
        is only sound if exactly one server owns the directory — a second
        server pointed at the same ``--journal-dir`` would silently unlink
        a live server's journals and disable its crash recovery.  Failing
        the constructor loudly is the safe outcome.  (The planned
        multi-host handoff over shared storage will need a real ownership
        protocol; flock is the single-host guard.)
        """
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-posix fallback
            return None
        lock_file = open(self.directory / ".lock", "w")
        try:
            fcntl.flock(lock_file, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            lock_file.close()
            raise JournalError(
                f"journal directory {self.directory} is already in use by "
                f"another server (each server needs its own --journal-dir)"
            )
        return lock_file

    def path_for(self, session_id: str) -> pathlib.Path:
        return self.directory / journal_file_name(session_id)

    # ------------------------------------------------------------------
    def create(self, session_id: str, header: dict) -> None:
        """Start (or truncate-and-restart) the journal for one session."""
        stale = self._open.pop(session_id, None)
        if stale is not None:
            stale.close(sync=False)
        journal = _Journal(self.path_for(session_id), self.fsync_every)
        self._open[session_id] = journal
        self.created += 1
        journal.append({"kind": "open", "session": session_id, **header})

    def append(self, session_id: str, entry: dict) -> bool:
        """Append one mutate entry; True when a batch fsync is now due.

        The caller decides where the fsync runs (the server offloads it to
        a thread) — same-host recovery only needs the flush that already
        happened, so nothing is lost by deferring the barrier.
        """
        journal = self._open.get(session_id)
        if journal is None:
            raise JournalError(f"no journal open for session {session_id!r}")
        journal.append({"kind": "mutate", **entry})
        self.appends += 1
        if self.append_hook is not None:
            self.append_hook(session_id, entry)
        return journal.needs_sync

    def sync_session(self, session_id: str) -> None:
        """Run the deferred fsync for one session (no-op if deleted since)."""
        journal = self._open.get(session_id)
        if journal is not None:
            journal.sync()

    def load(self, session_id: str) -> tuple[dict, list[dict]]:
        """Read back ``(header, ops)`` for recovery (same-host, post-flush)."""
        return read_journal(self.path_for(session_id))

    def delete(self, session_id: str) -> bool:
        """Drop a session's journal (close, expiry, unrecoverable loss)."""
        journal = self._open.pop(session_id, None)
        if journal is not None:
            try:
                journal.close(sync=False)  # about to unlink; barrier is waste
            except OSError:
                pass  # a failed flush of doomed bytes; the fd still closed
        try:
            self.path_for(session_id).unlink()
        except FileNotFoundError:
            return False
        except OSError:
            # an undeletable journal (dir went read-only?) must not fail the
            # close/expiry that triggered the GC; the startup sweep retries
            return False
        self.deleted += 1
        return True

    def sweep(self, live_sessions=()) -> int:
        """Garbage-collect journal files with no live session.

        Run at server startup (sessions never survive a server restart, so
        every leftover file is an orphan) and usable any time with the live
        session-id set.  Only ``*.journal`` files are touched.
        """
        keep = {journal_file_name(sid) for sid in live_sessions}
        removed = 0
        for path in sorted(self.directory.glob(f"*{_SUFFIX}")):
            if path.name in keep:
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                # gone already, or undeletable (EACCES): skip it — an
                # orphan we cannot remove must not refuse server startup
                pass
        self.swept += removed
        return removed

    def close(self) -> None:
        for journal in self._open.values():
            try:
                # no barrier: a journal that outlives this server is an
                # orphan by definition (the next startup sweeps it), and an
                # error on one file must not leak the rest or the dir lock
                journal.close(sync=False)
            except OSError:  # pragma: no cover - close-time flush failure
                pass
        self._open.clear()
        if self._lock_file is not None:
            self._lock_file.close()  # releases the flock with it
            self._lock_file = None

    def stats(self) -> dict:
        return {
            "directory": str(self.directory),
            "open": len(self._open),
            "created": self.created,
            "appends": self.appends,
            "deleted": self.deleted,
            "swept": self.swept,
        }
