"""A page store backed by memory-mapped segment files.

:class:`SegmentPageStore` subclasses the simulated
:class:`~repro.storage.pages.PageStore` but makes reads *real*: page
``p`` covers rows ``[p * records_per_page, (p + 1) * records_per_page)``
of a relation's persisted columnar segments — the same arithmetic the
sequential scan numbers its data pages with — and reading it touches those
rows' bytes in the ``mmap``-loaded coefficient arrays: a demand-paged
device read the first time, a page-cache hit after.  A scan asks for a
*run* of consecutive pages (:meth:`SegmentPageStore.read_run`), which
faults every mapped byte of the run with one reduction per segment array
it overlaps instead of one per page.

Rows inserted since the last checkpoint live past the mapped segments;
their pages are counted and touch nothing.  A
:class:`~repro.storage.buffer.BufferPool` in front decides which resident
pages are re-touched at all — its hit rate over this store is the
*measured* I/O the cost model consumes.
"""

from __future__ import annotations

import numpy as np

from ..pages import PAGE_SIZE_BYTES, PageStore, records_per_page

__all__ = ["SegmentPageStore"]


class SegmentPageStore(PageStore):
    """Pages over the mmapped columnar segments of one relation.

    Parameters
    ----------
    arrays:
        The relation's segment coefficient arrays in row order (typically
        ``numpy.load(..., mmap_mode="r")`` results), logically concatenated.
        Rows are read as 8-byte words, so a row's size is a multiple of 8
        (the spectra are ``complex128``).
    record_bytes:
        Bytes per stored record — fixes ``records_per_page`` with the same
        arithmetic the scan and the cost model use.
    """

    def __init__(self, arrays: list[np.ndarray], record_bytes: int,
                 page_size: int = PAGE_SIZE_BYTES) -> None:
        super().__init__(page_size=page_size)
        self._arrays = list(arrays)
        self._bounds: list[int] = []
        total = 0
        for array in self._arrays:
            total += int(array.shape[0])
            self._bounds.append(total)
        self.mapped_rows = total
        self.records_per_page = records_per_page(record_bytes, page_size)
        #: Device-backed page reads actually served from the mappings.
        self.mapped_reads = 0

    def _touch_rows(self, start: int, stop: int) -> int:
        """Fault the mapped bytes of rows ``[start, stop)`` in — every byte,
        read as 8-byte words, one reduction per segment array the rows
        overlap; returns a checksum of what was read."""
        checksum = 0
        low = 0
        for array, high in zip(self._arrays, self._bounds):
            if start < high and stop > low:
                block = array[max(start - low, 0):min(stop - low, high - low)]
                if block.size:
                    checksum ^= int(block.view(np.uint64).sum())
            low = high
            if low >= stop:
                break
        return checksum

    def _touch_pages(self, first: int, stop: int) -> None:
        """Serve the mapped part of pages ``[first, stop)``: the mapped rows
        they cover are touched as one row range, and a page counts as a
        mapped read when its first row is mapped."""
        start = first * self.records_per_page
        end = min(stop * self.records_per_page, self.mapped_rows)
        if start < end:
            self._touch_rows(start, end)
            self.mapped_reads += -(-end // self.records_per_page) - first

    def read(self, page_id: int) -> None:
        """Read one page — the one-page case of :meth:`read_run`: counted,
        its mapped rows touched.  These pages are arithmetic over the
        segments, never allocated, so there is nothing to look up and no
        payload to hand back."""
        self.read_run(page_id, page_id + 1)

    def read_run(self, first: int, stop: int) -> None:
        """Read the pages ``[first, stop)``: counted page by page, their
        mapped rows touched at once."""
        super().read_run(first, stop)
        self._touch_pages(first, stop)

    def __repr__(self) -> str:
        return (f"SegmentPageStore(segments={len(self._arrays)}, "
                f"mapped_rows={self.mapped_rows}, "
                f"records_per_page={self.records_per_page}, "
                f"reads={self.stats.reads})")
