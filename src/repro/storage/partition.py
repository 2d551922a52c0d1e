"""Fixed-size row spans over a :class:`ColumnarRecordStore`.

The sequential scan fans its range and nearest-neighbour kernels out over
contiguous ``[start, stop)`` row spans — each a view of the relation's record
set (``Records.select(slice(start, stop))``) — and the durable engine writes
one segment file per span.  The layout is purely positional — a pure function of
``(len(store), partition_rows)`` — so it preserves insertion order, keeps
record ids global, and is re-derived after an append rather than mutated.

The row-independence of the columnar kernels is what makes the spans
sufficient for bit-identical parallel answers: ``exact_distances`` and
``verify_pairs`` reduce along the coefficient axis row by row, so a row's
distance (bit pattern included) does not depend on which other rows share
the record set or the kernel's block.  The self-join does not partition rows at
all: its pair kernel (``pair_block_distances``) cuts the flat pair order
into blocks of equal pair count over the whole store, and a pair's distance
is as independent of its block as a row's is of its span.
"""

from __future__ import annotations

__all__ = ["DEFAULT_PARTITION_ROWS", "partition_spans"]

#: Default rows per partition.  Large enough that per-partition kernel
#: launches amortise (a 256x128 complex block is ~0.5 MB — comfortably
#: cache-friendly), small enough that the 1200-row benchmark shape fans out
#: across 4 workers with slack for load balancing.
DEFAULT_PARTITION_ROWS = 256


def partition_spans(count: int, partition_rows: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` spans covering ``count`` rows in order.

    Every span but the last holds exactly ``partition_rows`` rows; the last
    holds the remainder.  ``count == 0`` yields no spans.
    """
    if partition_rows <= 0:
        raise ValueError(f"partition_rows must be positive, got {partition_rows}")
    return [
        (start, min(start + partition_rows, count)) for start in range(0, count, partition_rows)
    ]
