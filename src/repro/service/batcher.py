"""Micro-batching for the request path.

Incoming requests are appended to a pending list; the list is flushed to the
dispatch callback when it reaches ``max_batch_size`` (size flush) or on the
next event-loop turn after its first item arrived (turn flush), whichever
comes first.  No timer holds a request: items that arrive in the same loop
turn — a burst read off many sockets, or pipelined lines of one — share a
batch, and a lone request is dispatched on the very next turn.  Batching
amortizes executor round-trips: a shard receives one pickled list of
scenarios per flush instead of one IPC hop per request.

The batcher is event-loop-only (no locks — ``add`` must be called from the
loop thread) and never reorders: flush batches preserve arrival order, and
the dispatch callback receives each batch exactly once.
"""

from __future__ import annotations

import asyncio

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Collect items and flush them in arrival-ordered batches.

    ``flush_fn`` is an async callable receiving one batch (a list); it runs
    as its own task so a slow batch never blocks the accumulation of the
    next one.
    """

    def __init__(self, flush_fn, max_batch_size: int = 32):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self._flush_fn = flush_fn
        self.max_batch_size = int(max_batch_size)
        self._pending: list = []
        self._handle: asyncio.Handle | None = None
        self._tasks: set[asyncio.Task] = set()
        self.batches = 0
        self.items = 0
        self.size_flushes = 0
        self.turn_flushes = 0
        self.drain_flushes = 0
        self.max_batch_seen = 0

    def add(self, item) -> None:
        """Enqueue one item; may flush synchronously on the size trigger."""
        self._pending.append(item)
        if len(self._pending) >= self.max_batch_size:
            self._flush("size")
        elif self._handle is None:
            self._handle = asyncio.get_running_loop().call_soon(self._flush, "turn")

    def _flush(self, reason: str) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        batch, self._pending = self._pending, []
        if not batch:
            return
        self.batches += 1
        self.items += len(batch)
        self.max_batch_seen = max(self.max_batch_seen, len(batch))
        if reason == "size":
            self.size_flushes += 1
        elif reason == "turn":
            self.turn_flushes += 1
        else:
            self.drain_flushes += 1
        task = asyncio.get_running_loop().create_task(self._flush_fn(batch))
        # keep a strong reference until done, else the loop may GC the task
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def drain(self) -> None:
        """Flush whatever is pending and wait for all in-flight batches."""
        self._flush("drain")
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    def stats(self) -> dict:
        return {
            "max_batch_size": self.max_batch_size,
            "batches": self.batches,
            "items": self.items,
            "size_flushes": self.size_flushes,
            "turn_flushes": self.turn_flushes,
            "drain_flushes": self.drain_flushes,
            "max_batch_seen": self.max_batch_seen,
            "pending": len(self._pending),
        }
