"""A simulated page store.

The original evaluation reports *disk accesses*; a pure in-memory Python
reproduction has no disk, so the storage layer simulates one.  A
:class:`PageStore` hands out fixed-size pages addressed by page id, counts
reads and writes, and (optionally) charges a synthetic latency so that
benchmark timings reflect the I/O asymmetry between index traversal and
sequential scanning, not just Python CPU time.

The sequential-scan baselines read the data file as runs of consecutive
pages (:meth:`PageStore.read_run`: one call, one counted read per page).
Nothing is ever written to the real file system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.errors import StorageError

__all__ = ["PAGE_SIZE_BYTES", "IOStatistics", "Page", "PageStore",
           "records_per_page"]

#: Default page size used when estimating how many objects fit on a page.
PAGE_SIZE_BYTES = 4096


def records_per_page(record_bytes: int, page_size: int = PAGE_SIZE_BYTES) -> int:
    """How many fixed-size data records fit on one page (at least one).

    The shared arithmetic behind every "a sequential scan reads N /
    records-per-page pages" account: the scan baseline lays its records out
    with it, and the planner's cost model prices the scan with the *same*
    function — so estimated and measured scan I/O agree by construction.
    """
    if page_size <= 0:
        raise StorageError("page size must be positive")
    return max(1, int(page_size) // max(1, int(record_bytes)))


@dataclass
class IOStatistics:
    """Counters accumulated by a :class:`PageStore`."""

    reads: int = 0
    writes: int = 0
    allocations: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.reads = 0
        self.writes = 0
        self.allocations = 0

    @property
    def total(self) -> int:
        """Reads plus writes."""
        return self.reads + self.writes

    def snapshot(self) -> dict[str, int]:
        """The counters as a plain dictionary (for reports)."""
        return {"reads": self.reads, "writes": self.writes,
                "allocations": self.allocations, "total": self.total}


@dataclass
class Page:
    """A fixed-size unit of simulated storage holding one payload object."""

    page_id: int
    payload: Any = None
    pinned: bool = False
    dirty: bool = False
    metadata: dict[str, Any] = field(default_factory=dict)


class PageStore:
    """An in-memory collection of pages with read/write accounting.

    Parameters
    ----------
    page_size:
        Nominal page size in bytes; only used by helpers that estimate
        capacity (e.g. how many sequence entries fit on a data page).
    read_penalty:
        Optional artificial latency (seconds) charged per read, so that
        benchmark comparisons between index traversal and sequential scans
        include an I/O cost model.  Zero (the default) disables it.
    """

    def __init__(self, page_size: int = PAGE_SIZE_BYTES, read_penalty: float = 0.0) -> None:
        if page_size <= 0:
            raise StorageError("page size must be positive")
        self.page_size = int(page_size)
        self.read_penalty = float(read_penalty)
        self.stats = IOStatistics()
        self._pages: dict[int, Page] = {}
        self._next_page_id = 0

    # ------------------------------------------------------------------
    # allocation and access
    # ------------------------------------------------------------------
    def allocate(self, payload: Any = None) -> int:
        """Create a new page and return its id."""
        page_id = self._next_page_id
        self._next_page_id += 1
        self._pages[page_id] = Page(page_id=page_id, payload=payload)
        self.stats.allocations += 1
        self.stats.writes += 1
        return page_id

    def read(self, page_id: int) -> Any:
        """Read a page's payload (counted as one disk read)."""
        page = self._lookup(page_id)
        self.stats.reads += 1
        if self.read_penalty > 0.0:
            _spin(self.read_penalty)
        return page.payload

    def read_run(self, first: int, stop: int) -> None:
        """Read the consecutive pages ``[first, stop)`` in one call, counted
        as ``stop - first`` disk reads (and as many read penalties).

        A run names its pages by arithmetic, so nothing need have been
        allocated, and it hands back no payloads — it is how a sequential
        scan charges a pass over its data pages.
        """
        count = max(0, stop - first)
        self.stats.reads += count
        if self.read_penalty > 0.0:
            _spin(self.read_penalty * count)

    def write(self, page_id: int, payload: Any) -> None:
        """Overwrite a page's payload (counted as one disk write)."""
        page = self._lookup(page_id)
        page.payload = payload
        page.dirty = True
        self.stats.writes += 1

    def free(self, page_id: int) -> None:
        """Release a page."""
        self._lookup(page_id)
        del self._pages[page_id]

    def _lookup(self, page_id: int) -> Page:
        try:
            return self._pages[page_id]
        except KeyError:
            raise StorageError(f"page {page_id} does not exist") from None

    # ------------------------------------------------------------------
    # capacity helpers
    # ------------------------------------------------------------------
    def entries_per_page(self, entry_size_bytes: int) -> int:
        """How many fixed-size entries fit on one page (at least one)."""
        if entry_size_bytes <= 0:
            raise StorageError("entry size must be positive")
        return max(1, self.page_size // entry_size_bytes)

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages

    def __repr__(self) -> str:
        return (f"PageStore(pages={len(self)}, reads={self.stats.reads}, "
                f"writes={self.stats.writes})")


def _spin(seconds: float) -> None:
    """Busy-wait for a very small duration.

    ``time.sleep`` has poor resolution for sub-millisecond penalties on some
    platforms; a busy wait keeps the charged latency deterministic enough for
    benchmarking while remaining tiny.
    """
    import time

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass
