"""Page arithmetic.

The original evaluation reports *disk accesses*.  Here a relation's data
pages are arithmetic: page ``p`` holds rows ``[p * records_per_page,
(p + 1) * records_per_page)``, and a sequential scan's pass reads pages
``[0, ceil(rows / records_per_page))``.  The planner's cost model prices a
scan with the same function, and a durable relation maps the same pages
onto its segment files (:class:`~repro.storage.durable.mmapstore
.SegmentPageStore`).
"""

from __future__ import annotations

from ..core.errors import StorageError

__all__ = ["PAGE_SIZE_BYTES", "records_per_page"]

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
