"""Fixed-size row partitions over a :class:`ColumnarRecordStore`.

Partition-parallel execution needs to hand each worker a contiguous block of
rows without copying anything: a :class:`StorePartition` is a zero-copy
*view* of one ``[start, stop)`` row span of a store — its ``coefficients`` /
``lengths`` / ``means`` / ``stds`` properties are NumPy slices of the parent
arrays, and :meth:`StorePartition.transformed_arrays` slices the parent's
(version-cached) transformed matrices, so the monotone-version cache
contract of the store carries over unchanged: the parent computes and caches
one transformed matrix per transformation per growth epoch, and every
partition view reads its rows from it.

Partitioning is purely positional — row ``start + i`` of the store is row
``i`` of the partition — which preserves insertion order, keeps global
record ids recoverable by an offset add, and makes the partition layout a
pure function of ``(len(store), partition_rows)``: re-deriving the spans
after an append is how growth is handled (there is no partition mutation
protocol to get wrong).

The row-independence of the columnar kernels is what makes these views
sufficient for bit-identical parallel answers: ``exact_distances`` and
``early_abandon_candidates`` reduce along the coefficient axis row by row,
so a row's distance (bit pattern included) does not depend on which other
rows share the matrix it is computed from.  The self-join does not partition
rows at all: its pair kernel (``pair_block_distances``) cuts the flat pair
order into blocks of equal pair count over the whole store, and a pair's
distance is as independent of its block as a row's is of its partition.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .columnar import ColumnarRecordStore

__all__ = ["DEFAULT_PARTITION_ROWS", "partition_spans", "StorePartition",
           "store_partitions"]

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
    return [(start, min(start + partition_rows, count))
            for start in range(0, count, partition_rows)]


class StorePartition:
    """A zero-copy view of one contiguous row span of a columnar store."""

    __slots__ = ("store", "start", "stop")

    def __init__(self, store: ColumnarRecordStore, start: int, stop: int) -> None:
        if not 0 <= start <= stop <= len(store):
            raise IndexError(
                f"span [{start}, {stop}) out of range for a store of {len(store)} rows")
        self.store = store
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def coefficients(self) -> np.ndarray:
        return self.store.coefficients[self.start:self.stop]

    @property
    def lengths(self) -> np.ndarray:
        return self.store.lengths[self.start:self.stop]

    @property
    def means(self) -> np.ndarray:
        return self.store.means[self.start:self.stop]

    @property
    def stds(self) -> np.ndarray:
        return self.store.stds[self.start:self.stop]

    def transformed_arrays(self, transformation: Any | None
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This span's rows of the parent's transformed matrices.

        Delegates to :meth:`ColumnarRecordStore.transformed_arrays`, so the
        transformation is applied (and cached) once per store per growth
        epoch, never per partition.
        """
        coefficients, means, stds = self.store.transformed_arrays(transformation)
        return (coefficients[self.start:self.stop],
                means[self.start:self.stop], stds[self.start:self.stop])

    def global_id(self, local_id: int) -> int:
        """The store-wide record id of this partition's row ``local_id``."""
        if not 0 <= local_id < len(self):
            raise IndexError(f"unknown partition-local id {local_id}")
        return self.start + local_id

    def series(self, local_id: int) -> Any:
        """The stored series for a partition-local row id."""
        return self.store.series(self.global_id(local_id))

    def __repr__(self) -> str:
        return f"StorePartition(rows=[{self.start}, {self.stop}))"


def store_partitions(store: ColumnarRecordStore,
                     partition_rows: int = DEFAULT_PARTITION_ROWS
                     ) -> list[StorePartition]:
    """The store's current rows as fixed-size partition views, in row order."""
    return [StorePartition(store, start, stop)
            for start, stop in partition_spans(len(store), partition_rows)]
