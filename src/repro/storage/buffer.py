"""An LRU buffer pool over a :class:`~repro.storage.pages.PageStore`.

Index traversal in the original system benefits from the buffer pool: the
upper levels of the R-tree stay resident, so repeated queries only pay disk
reads for the lower levels.  The buffer pool reproduces that effect for the
simulated store — its hit/miss counters are what the benchmark harness
reports as "disk accesses".
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from ..core.errors import StorageError
from .pages import PageStore

__all__ = ["BufferStatistics", "BufferPool"]


@dataclass
class BufferStatistics:
    """Hit/miss counters for one buffer pool."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def accesses(self) -> int:
        """Total page requests."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of requests served from memory (0 when unused)."""
        return self.hits / self.accesses if self.accesses else 0.0

    def snapshot(self) -> dict[str, float]:
        """Counters as a dictionary for reports."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "hit_ratio": self.hit_ratio}


class BufferPool:
    """A fixed-capacity LRU cache of page payloads.

    All operations are thread-safe: concurrent readers of one scan share
    its pool, and LRU bookkeeping (``move_to_end`` racing
    ``popitem``) corrupts silently without a lock.  The lock is reentrant so
    ``read``/``write`` can call ``_insert`` while holding it.

    Parameters
    ----------
    store:
        The backing page store; misses are served from it (and counted as
        disk reads there).
    capacity:
        Maximum number of pages kept in memory.
    """

    def __init__(self, store: PageStore, capacity: int = 64) -> None:
        if capacity <= 0:
            raise StorageError("buffer pool capacity must be positive")
        self.store = store
        self.capacity = int(capacity)
        self.stats = BufferStatistics()
        self._lock = threading.RLock()
        self._frames: OrderedDict[int, Any] = OrderedDict()
        self._dirty: set[int] = set()

    def read(self, page_id: int) -> Any:
        """Fetch a page payload through the cache."""
        with self._lock:
            if page_id in self._frames:
                self.stats.hits += 1
                self._frames.move_to_end(page_id)
                return self._frames[page_id]
            payload = self.store.read(page_id)
            # Counted once the store has answered: a refused read is not
            # a miss the pool served.
            self.stats.misses += 1
            self._insert(page_id, payload)
            return payload

    def read_run(self, first: int, stop: int) -> tuple[int, int]:
        """Request the consecutive pages ``[first, stop)``; returns the
        run's ``(hits, misses)``.

        Exactly the effect of ``read(p)`` for each ``p`` in order — the
        same counters, the same resident set in the same LRU order, the
        same write-backs — under one lock acquisition, and with each
        maximal run of consecutive *missed* pages fetched by one
        ``store.read_run`` instead of a store call per page.  A run
        carries no payloads: a page it brings in is resident as ``None``.
        """
        with self._lock:
            frames, dirty, store = self._frames, self._dirty, self.store
            capacity = self.capacity
            hits = evictions = 0
            pending = None  # first page of the run of misses not yet fetched
            for page_id in range(first, stop):
                if page_id in frames:
                    if pending is not None:
                        store.read_run(pending, page_id)
                        pending = None
                    hits += 1
                    frames.move_to_end(page_id)
                    continue
                if pending is None:
                    pending = page_id
                frames[page_id] = None
                while len(frames) > capacity:
                    victim, victim_payload = frames.popitem(last=False)
                    if victim in dirty:
                        # The store sees reads and writes in the per-page
                        # order: fetch the pending run, up to and including
                        # this page, before the victim is written back.
                        if pending is not None:
                            store.read_run(pending, page_id + 1)
                            pending = None
                        store.write(victim, victim_payload)
                        dirty.discard(victim)
                    evictions += 1
            if pending is not None:
                store.read_run(pending, stop)
            misses = max(0, stop - first) - hits
            self.stats.hits += hits
            self.stats.misses += misses
            self.stats.evictions += evictions
            return hits, misses

    def write(self, page_id: int, payload: Any) -> None:
        """Update the cached copy and mark the page dirty.

        The store is *not* touched here: on a real device unconditional
        write-through doubles the I/O of every hot-page update.  Dirty
        pages reach the store when they are evicted (write-back) or when
        the caller :meth:`flush`\\ es — e.g. at a checkpoint.
        """
        with self._lock:
            self._insert(page_id, payload)
            self._dirty.add(page_id)

    def flush(self) -> int:
        """Write every dirty resident page back to the store; returns how
        many were written.  Called at checkpoints and before ``clear``."""
        with self._lock:
            flushed = 0
            for page_id in sorted(self._dirty):
                if page_id in self._frames:
                    self.store.write(page_id, self._frames[page_id])
                    flushed += 1
            self._dirty.clear()
            return flushed

    def invalidate(self, page_id: int) -> None:
        """Drop a page from the cache (e.g. after it was freed) — its
        dirty state is discarded with it."""
        with self._lock:
            self._frames.pop(page_id, None)
            self._dirty.discard(page_id)

    def clear(self) -> None:
        """Flush dirty pages, then empty the cache (counters preserved)."""
        with self._lock:
            self.flush()
            self._frames.clear()

    def _insert(self, page_id: int, payload: Any) -> None:
        with self._lock:
            self._frames[page_id] = payload
            self._frames.move_to_end(page_id)
            while len(self._frames) > self.capacity:
                victim, victim_payload = self._frames.popitem(last=False)
                if victim in self._dirty:
                    # Write-back: the store sees one write per eviction of
                    # a modified page, not one per update.
                    self.store.write(victim, victim_payload)
                    self._dirty.discard(victim)
                self.stats.evictions += 1

    def __len__(self) -> int:
        return len(self._frames)

    def __repr__(self) -> str:
        return (f"BufferPool(capacity={self.capacity}, resident={len(self)}, "
                f"hit_ratio={self.stats.hit_ratio:.2f})")
