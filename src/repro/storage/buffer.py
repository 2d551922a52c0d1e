"""An LRU buffer pool over a :class:`~repro.storage.durable.mmapstore
.SegmentPageStore`.

A durable relation's sequential scan asks the pool for its pass's pages;
resident pages are hits, and only the runs of missed pages reach the store
as device reads.  A pool smaller than the relation never hits on a full
pass (LRU flooding); one at least as large hits every page from the second
pass on.  The hit rate is what the planner's cost model consumes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.errors import StorageError

if TYPE_CHECKING:
    from .durable.mmapstore import SegmentPageStore

__all__ = ["BufferStatistics", "BufferPool"]


@dataclass
class BufferStatistics:
    """Hit/miss counters for one buffer pool."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total page requests."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of requests served from memory (0 when unused)."""
        return self.hits / self.accesses if self.accesses else 0.0


class BufferPool:
    """A fixed-capacity LRU set of resident pages.

    Thread-safe: concurrent readers of one scan share its pool, and LRU
    bookkeeping (``move_to_end`` racing ``popitem``) corrupts silently
    without a lock.

    Parameters
    ----------
    store:
        The backing page store; misses are served from it (and counted as
        device reads there).
    capacity:
        Maximum number of pages kept resident.
    """

    def __init__(self, store: SegmentPageStore, capacity: int = 64) -> None:
        if capacity <= 0:
            raise StorageError("buffer pool capacity must be positive")
        self.store = store
        self.capacity = int(capacity)
        self.stats = BufferStatistics()
        self._lock = threading.Lock()
        #: Resident page ids, least recently used first (values unused).
        self._frames: OrderedDict[int, None] = OrderedDict()

    def read_run(self, first: int, stop: int) -> tuple[int, int]:
        """Request the consecutive pages ``[first, stop)``; returns the
        run's ``(hits, misses)``.

        Page by page in order, a resident page is a hit and moves to the
        most recently used end; a missed page becomes resident, evicting the
        least recently used page once the pool is full.  Each maximal run
        of consecutive missed pages is fetched by one ``store.read_run``.
        """
        with self._lock:
            frames, store, capacity = self._frames, self.store, self.capacity
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
                if len(frames) > capacity:
                    frames.popitem(last=False)
                    evictions += 1
            if pending is not None:
                store.read_run(pending, stop)
            misses = max(0, stop - first) - hits
            self.stats.hits += hits
            self.stats.misses += misses
            self.stats.evictions += evictions
            return hits, misses

    def __len__(self) -> int:
        return len(self._frames)

    def __repr__(self) -> str:
        return (f"BufferPool(capacity={self.capacity}, resident={len(self)}, "
                f"hit_ratio={self.stats.hit_ratio:.2f})")
