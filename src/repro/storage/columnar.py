"""Columnar record storage, the record sets the kernels read, and the kernels.

Every hot path of the evaluation — the sequential-scan baselines, k-index
candidate verification, metric-index leaf screening, the self-join inner
loop, statistics sampling — needs the *full spectral record* of many stored
series at once: all normal-form DFT coefficients plus the (mean, std) pair.
Holding those records as per-object Python tuples forces per-record Python
loops over every query; this module stores them **columnar** instead:

* ``coefficients`` — one contiguous ``complex128`` matrix, one row per
  record, zero-padded on the right to the widest record;
* ``lengths`` — the true coefficient count of each row (rows of a relation
  of equal-length series all share it, which enables the unmasked fast
  path);
* ``means`` / ``stds`` — the two extra statistics dimensions.

The arrays grow amortised-doubling as blocks are appended, so loading stays
linear, and a monotone :attr:`ColumnarRecordStore.version` lets derived
caches invalidate on growth.  One store serves a whole relation: the
:class:`~repro.core.database.Database` owns one per relation
(``Database.columnar_store``), shares the spatial index's store when its
contents match, and the executor's scan fallback and the statistics sampler
read the same arrays — no path materialises its own record list.

**Record sets.**  That layout is known here and nowhere else.  The kernels
read a :class:`Records` value — the four arrays plus an optional
:class:`RecordMap` — and no caller unpacks one:

* :meth:`ColumnarRecordStore.records` is a relation's record set, under a
  spectral transformation its map; the store never holds a transformed copy
  of its relation, a kernel maps each block of rows it gathers in place
  (``*= multiplier; += offset``, the statistics ``means * extra_multiplier +
  extra_offset``) — the operations per element a transformed matrix was
  built with, so distances keep their bits and a transformed query
  allocates nothing relation-sized;
* :func:`query_records` stacks a batch of query records, each the output
  of :func:`query_record` — queries are transformed once, up front, by
  :func:`transform_full_record`;
* :meth:`Records.select` is a scan partition's span of rows, or the rows a
  sample draws.

The module-level **kernels** take a record set of rows and one of queries:

* :func:`gathered_pair_distances` — the **exact core** under every exact
  pass (scan, k-index verification and k-NN, join): (row, query) pairs
  scored with the rows gathered once and the arithmetic done in place;
* :func:`exact_distances` — one query against many rows, on that core in
  bounded blocks, with the common-prefix semantics of
  :func:`~repro.timeseries.features.record_distance` (and bit-identical
  results on equal-length data: both reduce with ``np.sum`` over the same
  values in the same order);
* :func:`verify_pairs` — the one **filter-and-refine kernel**: flat (row,
  query) pairs taken :data:`PAIR_BLOCK` at a time, dropped by the statistics
  term and then by rounds of partial sums over the coefficient columns in
  conjugate pairs (:func:`_abandon_order`, where a real series' spectrum
  keeps its energy) once they clearly exceed their query's threshold, and
  only the survivors scored exactly, over their own query's columns.
  Pruning is *conservative* (a tiny slack keeps borderline pairs alive), so
  the answers are exactly those of scoring every pair.  It is the scan
  range (one query broadcast over a span of rows), k-index candidate
  verification (a single probe being a batch of one) and, through
  :func:`pair_block_distances`, the scan join; without a threshold it
  scores every pair;
* :func:`pair_block_distances` — the **pair kernel** behind every scan-side
  pair computation (both scan methods of the self-join, and
  :func:`pairwise_distances` for the statistics sampler, the advisor and
  threshold samples): one block of the flat "every anchor against the rows
  after it" pair order at a time, handed to :func:`verify_pairs` with one
  record set on both sides — bit-identical to one :func:`exact_distances`
  call per anchor.

Work accounting stays exact under batching because the kernels never skip
*counted* work: counters (candidates, postprocessed, record fetches) are
derived from the exact row sets the kernels process, not from wall-clock
shortcuts.
"""

from __future__ import annotations

import math
import mmap
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ..core.errors import DimensionMismatchError

__all__ = [
    "ColumnarRecordStore",
    "RecordMap",
    "Records",
    "record_matrix",
    "exact_distances",
    "gathered_pair_distances",
    "leading_bounds",
    "pair_blocks",
    "pair_block_distances",
    "pairwise_distances",
    "query_record",
    "query_records",
    "transform_full_record",
    "verify_pairs",
]

#: Coefficient columns consumed per early-abandon round.  A stored record is
#: the DFT of a real series without its DC term, conjugate-symmetric: column
#: ``j`` mirrors column ``W - 1 - j``, so its energy sits at *both* ends.  The
#: rounds visit each low-frequency column beside its mirror
#: (:func:`_abandon_order`), and most non-answers are dropped after the first
#: chunk or two.  So the kernels stop abandoning after a round whose dropped
#: rows, times the columns the exact pass would have read of each, are no
#: more than the columns the next round would read of the rows it kept: by
#: then the columns left hold little energy, and the survivors (nearly all
#: answers) go to the exact pass as they are.
ABANDON_CHUNK = 8

#: Relative slack applied to the early-abandon threshold so pruning stays
#: conservative under floating-point reassociation: a row is only dropped
#: when its partial sum *clearly* exceeds the limit, and every survivor is
#: re-scored exactly — so abandoning changes timing, never answers.
_PRUNE_SLACK = 1e-9

#: Pairs per block of the refine kernel — at once its memory bound (a
#: pruning round gathers at most ``PAIR_BLOCK * ABANDON_CHUNK`` coefficients,
#: 1 MB, and an exact slice at most as much, see :func:`_slice_rows`), the scan
#: join's cancellation seam and the unit it fans across workers.
PAIR_BLOCK = 8192


#: A record matrix of at least this many bytes gets a mapping of its own
#: (:func:`record_matrix`); a smaller one is an ordinary numpy block.
MAPPED_MATRIX_BYTES = 1 << 22
#: A transparent huge page on x86-64 and arm64 (4 KB base pages).
_HUGE_PAGE_BYTES = 1 << 21


def record_matrix(rows: int, width: int) -> np.ndarray:
    """A zeroed ``(rows, width)`` coefficient matrix for a store to keep.

    A relation's matrix is megabytes (16 MB at 8 000 × 127) and lives as long
    as its store.  Taken from the C heap, it is freed into the middle of the
    heap when the store goes, and the small long-lived blocks allocated
    before the next store's matrix may be carved from that hole: the next
    matrix then no longer fits and the heap grows by its size for good.
    Whether that happens hangs on the process's address layout, so a program
    that loads a relation again and again peaked at one of two levels from
    one run to the next (the benchmark's ``embedded-scan-join``: 85.8 or
    95.3 MB).  From :data:`MAPPED_MATRIX_BYTES` on, a matrix is therefore an
    anonymous mapping of its own, which goes back to the system whole when
    the matrix and its views are gone and leaves no hole.

    Like numpy's own large blocks, the mapping asks for transparent huge
    pages, and its length is rounded up to whole ones: recent Linux kernels
    place an anonymous mapping of such a length on a huge-page boundary, so
    all of it can be huge pages.  Unrounded, a 16 MB matrix faulted in ~2 500 pages a load
    and ``embedded-scan-join``'s ``setup_s`` rose 18 % over a heap block
    reused; rounded, ~900 fewer and 5–9 %.  The tail past the matrix is never
    written; it is resident only as part of a huge page the matrix ends in.
    """
    shape = (rows, width)
    nbytes = rows * width * np.dtype(np.complex128).itemsize
    if nbytes < MAPPED_MATRIX_BYTES:
        return np.zeros(shape, dtype=np.complex128)
    # Private: an anonymous *shared* mapping is shmem, whose pages fault in
    # slower and take no huge pages.
    private = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    length = -(-nbytes // _HUGE_PAGE_BYTES) * _HUGE_PAGE_BYTES
    mapping = mmap.mmap(-1, length, **private)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        mapping.madvise(mmap.MADV_HUGEPAGE)
    return np.ndarray(shape, dtype=np.complex128, buffer=mapping)


def _owns_memory(matrix: np.ndarray) -> bool:
    """Whether nothing but ``matrix`` refers to its memory: numpy owns it, or
    it is the matrix :func:`record_matrix` made on a mapping."""
    return matrix.flags.owndata or (type(matrix) is np.ndarray
                                    and isinstance(matrix.base, mmap.mmap))


class ColumnarRecordStore:
    """Contiguous full-record arrays for one relation of series.

    Records are appended (never removed); ids are dense and assigned in
    insertion order, matching the relation's row order and the k-index's
    record ids, so every consumer addresses the same rows by the same ids.
    """

    def __init__(self) -> None:
        self._series: list[Any] = []
        self._coefficients = np.zeros((0, 0), dtype=np.complex128)
        self._lengths = np.zeros(0, dtype=np.intp)
        self._means = np.zeros(0, dtype=np.float64)
        self._stds = np.zeros(0, dtype=np.float64)
        self._count = 0
        #: ``(min, max)`` of ``lengths``, kept at append; ``(0, 0)`` when empty.
        self._length_range = (0, 0)

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def append(self, series: Any) -> int:
        """Store one series (a one-row :meth:`extend`); returns its dense
        record id."""
        self.extend([series])
        return self._count - 1

    def extend(self, collection: Iterable[Any]) -> None:
        """Append every series of a collection: their full records come from
        one call of the block extraction kernel
        (:func:`~repro.timeseries.features.spectral_records`) and land with
        one :meth:`bulk_load`.  Nothing is stored when any object of the
        collection is not a series."""
        # A late import keeps the storage layer free of a dependency cycle on
        # the time-series package at module load.
        from ..timeseries.features import spectral_records

        collection = list(collection)
        self.bulk_load(collection, *spectral_records(collection))

    def bulk_load(self, collection: Sequence[Any], coefficients: np.ndarray,
                  lengths: np.ndarray, means: np.ndarray,
                  stds: np.ndarray) -> None:
        """Append a whole block of pre-extracted records in one array copy.

        The one way records enter the store: from the extraction kernel
        (:meth:`extend`, the k-index's appends) or from durable segment
        files, which already hold the padded spectra matrix — so recovery is
        a block copy and never an FFT.  ``coefficients`` rows must be
        zero-padded beyond each row's true ``lengths`` entry, exactly as
        this store pads them.

        An *empty* store takes a matrix that owns its memory (or is a whole
        :func:`record_matrix`) over instead of copying it — the caller must
        not write to it afterwards (the store never does: it only appends,
        and growing reallocates).  Loading a relation therefore never holds
        its spectra twice: a second relation-sized block, freed a moment
        later, is what the allocator keeps resident or not from one run to
        the next.
        """
        coefficients = np.asarray(coefficients, dtype=np.complex128)
        count = coefficients.shape[0]
        if count != len(collection):
            raise DimensionMismatchError(
                f"bulk_load got {len(collection)} series for "
                f"{count} coefficient rows")
        if count == 0:
            return
        start = self._count
        lengths = np.asarray(lengths, dtype=np.intp)
        low, high = int(lengths.min()), int(lengths.max())
        if start:
            low, high = min(low, self._length_range[0]), max(high, self._length_range[1])
        flags = coefficients.flags
        if (start == 0 and _owns_memory(coefficients) and flags.writeable
                and flags.c_contiguous):
            self._coefficients = coefficients
            self._lengths = np.array(lengths, dtype=np.intp)
            self._means = np.array(means, dtype=np.float64)
            self._stds = np.array(stds, dtype=np.float64)
        else:
            self._reserve(start + count, coefficients.shape[1])
            self._coefficients[start:start + count,
                               :coefficients.shape[1]] = coefficients
            self._lengths[start:start + count] = lengths
            self._means[start:start + count] = means
            self._stds[start:start + count] = stds
        self._series.extend(collection)
        self._length_range = (low, high)
        self._count += count

    def _reserve(self, rows: int, width: int) -> None:
        capacity, current_width = self._coefficients.shape
        new_capacity = capacity
        new_width = max(current_width, width)
        if rows > capacity:
            new_capacity = max(rows, 4, capacity * 2)
        if new_capacity != capacity or new_width != current_width:
            grown = record_matrix(new_capacity, new_width)
            grown[:self._count, :current_width] = self._coefficients[:self._count]
            self._coefficients = grown
        if rows > self._lengths.shape[0]:
            for name in ("_lengths", "_means", "_stds"):
                old = getattr(self, name)
                fresh = np.zeros(new_capacity, dtype=old.dtype)
                fresh[:self._count] = old[:self._count]
                setattr(self, name, fresh)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def version(self) -> int:
        """Monotone growth stamp (appends only); derived caches key on it."""
        return self._count

    @property
    def coefficients(self) -> np.ndarray:
        """The (count, width) zero-padded coefficient matrix (a view)."""
        return self._coefficients[:self._count]

    @property
    def lengths(self) -> np.ndarray:
        """True coefficient count per row (a view)."""
        return self._lengths[:self._count]

    @property
    def means(self) -> np.ndarray:
        return self._means[:self._count]

    @property
    def stds(self) -> np.ndarray:
        return self._stds[:self._count]

    @property
    def length_range(self) -> tuple[int, int]:
        """The least and the greatest coefficient count of a stored record
        (``(0, 0)`` when empty), kept as records are appended: O(1)."""
        return self._length_range

    @property
    def uniform_length(self) -> bool:
        """Whether every stored record has the same coefficient count."""
        low, high = self._length_range
        return low == high

    def series(self, record_id: int) -> Any:
        """The stored series for a record id (raises ``IndexError`` when unknown)."""
        if not 0 <= record_id < self._count:
            raise IndexError(f"unknown record id {record_id}")
        return self._series[record_id]

    def series_at(self, record_ids: np.ndarray) -> list[Any]:
        """The stored series of an array of record ids, in its order: one
        bounds check for the array (raises ``IndexError`` when an id is
        unknown), then plain list reads."""
        if record_ids.size and not (0 <= record_ids.min() and record_ids.max() < self._count):
            raise IndexError(f"unknown record id among {record_ids!r}")
        series = self._series
        return [series[record_id] for record_id in record_ids.tolist()]

    def series_list(self) -> list[Any]:
        """All stored series, in insertion order."""
        return list(self._series)

    def full_record(self, record_id: int) -> tuple[np.ndarray, float, float]:
        """One record as ``(coefficients, mean, std)`` — the padding trimmed."""
        if not 0 <= record_id < self._count:
            raise IndexError(f"unknown record id {record_id}")
        length = int(self._lengths[record_id])
        return (self._coefficients[record_id, :length],
                float(self._means[record_id]), float(self._stds[record_id]))

    def record_bytes(self) -> int:
        """Estimated bytes of one stored full record (for page arithmetic)."""
        from ..timeseries.features import RECORD_STATS_BYTES

        if self._count == 0:
            return 64
        return int(self._lengths[0]) * 16 + RECORD_STATS_BYTES

    # ------------------------------------------------------------------
    # record sets
    # ------------------------------------------------------------------
    def records(self, transformation: Any | None = None) -> Records:
        """The stored records as the kernels read them (views of the arrays)
        — under a spectral ``transformation``, with its :class:`RecordMap`:
        the transformation's vectors sliced to the matrix's columns.

        Raises :class:`DimensionMismatchError` when the transformation covers
        fewer coefficients than the widest stored record.  Nothing is kept:
        the slices are views, and a kernel maps only the rows it gathers.
        """
        records = Records(self.coefficients, self.lengths, self.means, self.stds)
        if transformation is None:
            return records
        width = self._coefficients.shape[1]
        if transformation.multiplier.shape[0] < 1 + width and self._count:
            raise DimensionMismatchError(
                f"transformation {transformation.name!r} covers "
                f"{transformation.multiplier.shape[0]} spectral coefficients but a "
                f"stored record has {int(self.lengths.max())} (plus DC); rebuild the "
                "transformation for the relation's series length")
        offset = transformation.offset[1:1 + width]
        return records._replace(mapping=RecordMap(
            transformation.multiplier[1:1 + width], offset if offset.any() else None,
            transformation.extra_multiplier, transformation.extra_offset))

    def __repr__(self) -> str:
        return (f"ColumnarRecordStore(size={self._count}, "
                f"width={self._coefficients.shape[1]}, "
                f"uniform={self.uniform_length})")


# ---------------------------------------------------------------------------
# record sets, and the transformations the kernels read them under
# ---------------------------------------------------------------------------
class RecordMap(NamedTuple):
    """A spectral transformation over a record set's columns, applied by the
    kernels to the rows they gather (:meth:`ColumnarRecordStore.records`).

    Column ``j`` holds spectral coefficient ``j + 1`` (a stored record has no
    DC term), so ``multiplier`` and ``offset`` are the transformation's
    vectors from index 1 on; a round slices them by the columns it reads.
    Padding beyond a row's true length maps to its offset, as it did in a
    transformed matrix: the kernels never count it.  An ``offset`` of zeros
    is ``None`` and never added (most transformations, the moving averages
    among them, have none): adding zero changes at most the sign of a zero,
    which no distance sees, and the pass costs as much as the product.
    """

    multiplier: np.ndarray
    offset: np.ndarray | None
    extra_multiplier: np.ndarray
    extra_offset: np.ndarray

    def columns(self, block: np.ndarray, cols: np.ndarray | slice) -> np.ndarray:
        """``block`` — fresh rows gathered over columns ``cols`` — mapped in
        place: the product and then the sum, each element rounded as the
        transformed matrix rounded it."""
        block *= self.multiplier[cols]
        if self.offset is not None:
            block += self.offset[cols]
        return block

    def statistics(self, means: Any, stds: Any) -> tuple[Any, Any]:
        """The (mean, std) statistics of gathered rows under the map."""
        return (means * self.extra_multiplier[0] + self.extra_offset[0],
                stds * self.extra_multiplier[1] + self.extra_offset[1])


class Records(NamedTuple):
    """A set of full records as every kernel reads them: the record layout
    in one value.

    ``coefficients`` is a ``(size, width)`` complex matrix, each row
    zero-padded on the right beyond its true ``lengths`` entry; ``means``
    and ``stds`` are the two statistics.  Under ``mapping`` the records are
    read transformed — each block of rows mapped in place as a kernel
    gathers it, the set itself never copied.  A relation is one record set
    (:meth:`ColumnarRecordStore.records`), a batch of queries another
    (:func:`query_records`), and the self-join passes one as both sides.
    """

    coefficients: np.ndarray
    lengths: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    mapping: RecordMap | None = None

    @property
    def size(self) -> int:
        """The number of records."""
        return self.coefficients.shape[0]

    @property
    def width(self) -> int:
        """The coefficient columns of the matrix."""
        return self.coefficients.shape[1]

    def select(self, rows: slice | np.ndarray) -> Records:
        """The records of ``rows`` under the same map: views for a slice (a
        scan partition's span), copies for an array of row ids."""
        return Records(self.coefficients[rows], self.lengths[rows], self.means[rows],
                       self.stds[rows], self.mapping)

    def prefix(self, columns: int) -> Records:
        """The records over their first ``columns`` columns (a view)."""
        return self._replace(coefficients=self.coefficients[:, :columns])

    def row(self, at: int, cols: np.ndarray | slice) -> np.ndarray:
        """Columns ``cols`` of row ``at``, to broadcast against gathered
        rows: read as it is (a view for a slice), or mapped on a copy."""
        row = self.coefficients[at, cols]
        if self.mapping is None:
            return row
        return self.mapping.columns(row.copy() if isinstance(cols, slice) else row, cols)

    def gather(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``coefficients[rows[:, None], cols]``, a fresh array, mapped in
        place.

        numpy's (row, column) gather costs about twice a copy of the columns
        followed by a row take, so it goes that way when the matrix has no
        more rows than are gathered: the copy is then no larger than the
        result, and no temporary outgrows the gather.  A C-contiguous matrix
        with more rows is gathered by a flat ``take`` of element offsets,
        25-40 % cheaper; a view is not (``take`` would first copy it whole).
        """
        matrix = self.coefficients
        if matrix.shape[0] <= rows.size:
            gathered = matrix.take(cols, axis=1).take(rows, axis=0)
        elif matrix.flags.c_contiguous:
            gathered = matrix.take(rows[:, None] * matrix.shape[1] + cols)
        else:
            gathered = matrix[rows[:, None], cols]
        return gathered if self.mapping is None else self.mapping.columns(gathered, cols)

    def take(self, rows: np.ndarray, columns: int) -> np.ndarray:
        """``coefficients[rows, :columns]``, a fresh array, mapped in place: a
        row ``take`` when the full width of a C-contiguous matrix is read
        (``take`` copies a strided view whole)."""
        matrix = self.coefficients
        if columns == matrix.shape[1] and matrix.flags.c_contiguous:
            taken = matrix.take(rows, axis=0)
        else:
            taken = matrix[rows, :columns]
        return taken if self.mapping is None else self.mapping.columns(taken, slice(columns))

    def statistics(self, rows: Any) -> tuple[Any, Any]:
        """``(means[rows], stds[rows])``, under the record set's map."""
        if self.mapping is None:
            return self.means[rows], self.stds[rows]
        return self.mapping.statistics(self.means[rows], self.stds[rows])


def transform_full_record(full_coefficients: np.ndarray, mean: float, std: float,
                          transformation: Any | None) -> tuple[np.ndarray, float, float]:
    """A spectral transformation applied to one ``(coefficients, mean, std)``
    query record — the scalar twin of :class:`RecordMap`."""
    if transformation is None:
        return full_coefficients, mean, std
    available = full_coefficients.shape[0]
    if transformation.multiplier.shape[0] < 1 + available:
        raise DimensionMismatchError(
            f"transformation {transformation.name!r} covers "
            f"{transformation.multiplier.shape[0]} spectral coefficients but the "
            f"query has {available} (plus DC); rebuild the transformation "
            "for the relation's series length")
    coefficients = (full_coefficients * transformation.multiplier[1:1 + available]
                    + transformation.offset[1:1 + available])
    extra = (np.array([mean, std]) * transformation.extra_multiplier
             + transformation.extra_offset)
    return coefficients, float(extra[0]), float(extra[1])


def query_record(features: Any, transformation: Any | None
                 ) -> tuple[np.ndarray, float, float]:
    """The full record of a query's extracted ``features`` (a
    :class:`~repro.timeseries.features.SeriesFeatures`), under
    ``transformation`` when one is given: queries are transformed once, up
    front, and stacked unmapped by :func:`query_records`."""
    return transform_full_record(features.full_coefficients, features.mean, features.std,
                                 transformation)


def query_records(fulls: Sequence[tuple[np.ndarray, float, float]]) -> Records:
    """A batch of ``(coefficients, mean, std)`` query records as one record
    set, each row zero-padded to the longest."""
    lengths = np.array([full[0].shape[0] for full in fulls], dtype=np.intp)
    matrix = np.zeros((len(fulls), int(lengths.max())), dtype=np.complex128)
    for position, full in enumerate(fulls):
        matrix[position, :full[0].shape[0]] = full[0]
    return Records(matrix, lengths, np.array([full[1] for full in fulls], dtype=np.float64),
                   np.array([full[2] for full in fulls], dtype=np.float64))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------
def _abandon_order(columns: int) -> np.ndarray:
    """The order the abandoning rounds visit ``columns`` coefficient columns
    in: each beside its conjugate mirror, ``0, W-1, 1, W-2, ...``.

    A real series' spectrum holds the energy of frequency ``f`` in columns
    ``f - 1`` and ``W - f``, and a random walk's energy falls off with
    frequency, so this order front-loads the partial sums.  Any order is
    safe: a partial sum over any set of columns is at most the total, so no
    answer is ever dropped.
    """
    order = np.empty(columns, dtype=np.intp)
    order[0::2] = np.arange((columns + 1) // 2)
    order[1::2] = np.arange(columns - 1, (columns - 1) // 2, -1)
    return order


def exact_distances(rows: Records, query: Records, include_stats: bool, *,
                    row_ids: np.ndarray | None = None) -> np.ndarray:
    """Exact record distances of many rows to one query record.

    The common-prefix semantics (and, on equal-length data, the bit pattern)
    of :func:`~repro.timeseries.features.record_distance`, evaluated for all
    ``rows`` — or the gathered ``row_ids`` — by
    :func:`gathered_pair_distances` against the one-record set ``query``, in
    blocks of :func:`_slice_rows` rows (a pruning round's coefficients).
    """
    if row_ids is None:
        row_ids = np.arange(rows.size)
    block = _slice_rows(min(rows.width, query.width), False)
    if row_ids.size <= block:
        return gathered_pair_distances(rows, row_ids, query, None, include_stats)
    return np.concatenate([
        gathered_pair_distances(rows, row_ids[at:at + block], query, None, include_stats)
        for at in range(0, row_ids.size, block)])


def gathered_pair_distances(rows: Records, row_ids: np.ndarray, queries: Records,
                            query_index: np.ndarray | None,
                            include_stats: bool) -> np.ndarray:
    """One exact distance per (stored row, query) pair, in a single pass:
    the exact core under every exact distance of the engine.

    ``row_ids[t]`` names the record of ``rows`` and ``query_index[t]`` the
    record of ``queries`` it is verified against; a one-record ``queries``
    is broadcast instead (``query_index`` unread).  It holds a full row per
    pair, so :func:`verify_pairs` calls it on its survivors in the slices of
    :func:`_exact_slices`.  The rows are gathered once (mapped, on either
    side, as they are), the query subtracted and the moduli squared in place
    (``a *= a``, the bits of ``** 2``), then reduced once.
    """
    columns = min(rows.width, queries.width)
    if queries.size == 1:
        query_index, query = 0, queries.row(0, slice(columns))
    else:
        query = queries.take(query_index, columns)
    gathered = rows.take(row_ids, columns)
    gathered -= query
    squared = np.abs(gathered)
    squared *= squared
    common = np.minimum(rows.lengths[row_ids], queries.lengths[query_index])
    if (common == columns).all():
        totals = squared.sum(axis=1)
    else:
        mask = np.arange(columns)[None, :] < common[:, None]
        totals = np.where(mask, squared, 0.0).sum(axis=1)
    if include_stats:
        row_means, row_stds = rows.statistics(row_ids)
        query_means, query_stds = queries.statistics(query_index)
        totals = totals + ((row_means - query_means) ** 2 + (row_stds - query_stds) ** 2)
    return np.sqrt(totals)


def _slice_rows(columns: int, per_pair: bool) -> int:
    """Rows of one exact slice over ``columns`` columns: a pruning round's
    ``PAIR_BLOCK * ABANDON_CHUNK`` coefficients (1 MB) against one broadcast
    query — :func:`exact_distances`' block — and a quarter of that with a
    query row gathered per pair.  Measured on the benchmark's 240-row join:
    ~7 % faster than at half the per-pair size, ~1.7x slower at 1 MB a side
    (its slices faulting their memory in afresh, ~1 700 minor faults a
    join); and ``analyze``'s pairwise sample must stay under 1 MB."""
    return max(1, PAIR_BLOCK * ABANDON_CHUNK // ((4 if per_pair else 1) * max(1, columns)))


def _exact_slices(widths: np.ndarray | int, count: int,
                  per_pair: bool) -> Iterator[tuple[slice, int]]:
    """``(piece, columns)`` slices of an exact pass over ``count`` pairs,
    pair ``t`` scored over ``widths[t]`` columns (all over ``widths`` when it
    is one number): cut wherever the width changes, and at most
    :func:`_slice_rows` rows each.

    The bits of a pairwise sum depend on how many terms it reduces over, so
    a pair is scored against the query side sliced to its own width — the
    reduction a probe of that query alone runs — and never padded to the
    widest query of a slice.
    """
    if np.ndim(widths):
        edges = [0, *(np.flatnonzero(np.diff(widths)) + 1).tolist(), count]
    else:
        edges, widths = [0, count], [widths]
    for run_first, run_last in zip(edges[:-1], edges[1:]):
        if run_first == run_last:
            continue
        columns = int(widths[run_first])
        rows = _slice_rows(columns, per_pair)
        for start in range(run_first, run_last, rows):
            yield slice(start, min(start + rows, run_last)), columns


def _abandon(rows: Records, queries: Records, positions: np.ndarray, ids: np.ndarray,
             queried: np.ndarray | None, totals: np.ndarray, bounds: np.ndarray | float
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The abandoning rounds of :func:`verify_pairs` over one block's pairs
    — record ``ids[t]`` of ``rows`` against record ``queried[t]`` of
    ``queries`` — which it returns as ``(positions, ids, queried)``; ``ids``
    may be ``positions`` itself, compacted once.  Each round maps the
    columns it gathers.

    A round costs about what scoring its pairs outright would, so rounds
    run only while the survivors' remaining columns overflow
    :data:`PAIR_BLOCK` (a probe with few candidates runs none), and stop
    once the pairs a round drops no longer pay for the columns it reads
    (see :data:`ABANDON_CHUNK`).
    """
    common = np.minimum(rows.lengths[ids], queries.lengths[0 if queried is None else queried])
    columns = int(common.max())
    ragged = not (common == columns).all()
    order = _abandon_order(columns)
    # The queries this block's pairs span: a round's gather copies their
    # columns, not the whole batch's, and one query's columns are
    # broadcast, not gathered pair by pair.
    low = 0 if queried is None else int(queried.min())
    spanned = queries.select(slice(low, 1 if queried is None else int(queried.max()) + 1))
    same = ids is positions
    for start in range(0, columns, ABANDON_CHUNK):
        if positions.size * (columns - start) <= PAIR_BLOCK:
            break
        cols = order[start:start + ABANDON_CHUNK]
        difference = rows.gather(ids, cols)
        if spanned.size == 1:
            difference -= spanned.row(0, cols)
        else:
            difference -= spanned.gather(queried - low, cols)
        if ragged:
            difference[cols >= common[:, None]] = 0.0
        parts = difference.view(np.float64)
        totals += np.einsum("ij,ij->i", parts, parts)
        # Compacted by the kept indices, not by the mask: a boolean index
        # costs a few gathers' worth on every array it compacts.
        alive = (totals <= bounds).nonzero()[0]
        dropped = positions.size - alive.size
        if dropped:
            positions, totals = positions[alive], totals[alive]
            ids = positions if same else ids[alive]
            if ragged:
                common = common[alive]
            if queried is not None:
                queried, bounds = queried[alive], bounds[alive]
        if dropped * columns <= positions.size * ABANDON_CHUNK:
            break
    return positions, ids, queried


def leading_bounds(rows: Records, query: Records, include_stats: bool) -> np.ndarray:
    """Squared lower bounds on the exact distances of every record of
    ``rows`` to the one record of ``query``: the statistics term and the
    first :data:`ABANDON_CHUNK` columns of :func:`_abandon_order`, where a
    real series' spectrum holds most of its energy — one gather, the first
    round :func:`verify_pairs` would run.  What a multi-step scan ranks its
    rows by before it scores any exactly."""
    common = np.minimum(rows.lengths, query.lengths[0])
    columns = int(common.max(initial=0))
    cols = _abandon_order(columns)[:ABANDON_CHUNK]
    difference = rows.gather(np.arange(rows.size), cols)
    difference -= query.row(0, cols)
    if not (common == columns).all():
        difference[cols >= common[:, None]] = 0.0
    parts = difference.view(np.float64)
    totals = np.einsum("ij,ij->i", parts, parts)
    if include_stats:
        means, stds = rows.statistics(slice(None))
        mean, std = query.statistics(0)
        totals += (means - mean) ** 2 + (stds - std) ** 2
    return totals


def verify_pairs(rows: Records, row_ids: np.ndarray | None, queries: Records,
                 query_index: np.ndarray | None, epsilons: Sequence[float] | None,
                 include_stats: bool) -> tuple[np.ndarray, np.ndarray]:
    """The filter-and-refine kernel: ``(positions, distances)`` of the
    (stored row, query) pairs whose exact distance is within their query's
    epsilon — every scan range, scan join and index verification.

    The pairs are those of :func:`gathered_pair_distances` — record
    ``row_ids[t]`` of ``rows`` (every record in order when ``row_ids`` is
    ``None``) against record ``query_index[t]`` of ``queries``, or against
    the one record of a one-record ``queries`` when ``query_index`` is
    ``None`` (its epsilon may then be a 1-tuple) — and ``epsilons[q]`` is
    query ``q``'s threshold.  They are taken :data:`PAIR_BLOCK` at a time.
    A block is first filtered by the statistics term, then abandoned in the
    rounds of :func:`_abandon`; only its survivors are scored exactly, by
    :func:`gathered_pair_distances` in the slices of :func:`_exact_slices`.
    A pair reduces over its own query's columns, so a query's distances are
    bit-identical to a batch holding it alone, however long the other
    queries of the batch are.  Without ``epsilons`` every pair is scored and
    kept.

    ``positions`` index the pair arrays, ascending; no temporary is sized by
    the number of pairs or of survivors.
    """
    found: list[tuple[np.ndarray, np.ndarray]] = []
    width = min(rows.width, queries.width)
    count = rows.size if row_ids is None else row_ids.size
    for first in range(0, count, PAIR_BLOCK):
        block = slice(first, min(first + PAIR_BLOCK, count))
        # Without row ids the pairs are the records in order, whose
        # statistics are read as a slice, not gathered.
        ids = block if row_ids is None else row_ids[block]
        queried = None if query_index is None else query_index[block]
        # One query's statistics and threshold are scalars, a batch's per pair.
        at = 0 if queried is None else queried
        if epsilons is None:
            survivors = np.arange(block.stop - first)
        else:
            bounds = np.square(epsilons[at]) * (1.0 + _PRUNE_SLACK) + 1e-12
            if include_stats:
                row_means, row_stds = rows.statistics(ids)
                mean, std = queries.statistics(at)
                totals = (row_means - mean) ** 2 + (row_stds - std) ** 2
            else:
                totals = np.zeros(block.stop - first, dtype=np.float64)
            survivors = (totals <= bounds).nonzero()[0]
            totals = totals[survivors]
            if queried is not None:
                queried, bounds = queried[survivors], bounds[survivors]
        positions = survivors + first
        ids = positions if row_ids is None else ids[survivors]
        if epsilons is not None and positions.size * width > PAIR_BLOCK:
            positions, ids, queried = _abandon(rows, queries, positions, ids, queried,
                                               totals, bounds)
        widths = np.minimum(queries.lengths[0 if queried is None else queried], rows.width)
        for pairs, columns in _exact_slices(widths, ids.size, queries.size > 1):
            distances = gathered_pair_distances(
                rows, ids[pairs], queries.prefix(columns),
                None if queried is None else queried[pairs], include_stats)
            keep = (slice(None) if epsilons is None
                    else distances <= epsilons[0 if queried is None else queried[pairs]])
            found.append((positions[pairs][keep], distances[keep]))
    if len(found) < 2:
        return found[0] if found else (np.zeros(0, dtype=np.intp),
                                       np.zeros(0, dtype=np.float64))
    return (np.concatenate([positions for positions, _ in found]),
            np.concatenate([distances for _, distances in found]))


def pair_blocks(count: int) -> list[tuple[int, int]]:
    """``[first, last)`` blocks of :data:`PAIR_BLOCK` pairs (the last one
    shorter) covering the condensed pair order of ``count`` rows."""
    total = count * (count - 1) // 2
    return [(first, min(first + PAIR_BLOCK, total))
            for first in range(0, total, PAIR_BLOCK)]


def _pair_rows(count: int, first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
    """``(left, right)`` rows of the condensed pairs ``[first, last)`` of
    ``count`` rows: every anchor against the rows after it, anchor-major,
    other ascending — a block may begin and end inside an anchor's run."""
    def run_start(anchor):
        """Condensed position of the pair ``(anchor, anchor + 1)``."""
        return anchor * (2 * count - anchor - 1) // 2

    # The anchor holding pair ``first``: the integer root of
    # run_start(a) <= first, which the floored square root overshoots by
    # at most one.
    anchor = (2 * count - 1
              - math.isqrt((2 * count - 1) ** 2 - 8 * first)) // 2
    if run_start(anchor) > first:
        anchor -= 1
    # Every anchor holds at least one pair, so last - first anchors suffice.
    anchors = np.arange(anchor, min(anchor + last - first, count - 1),
                        dtype=np.intp)
    sizes = (np.minimum(run_start(anchors + 1), last)
             - np.maximum(run_start(anchors), first))
    left = np.repeat(anchors, np.maximum(sizes, 0))
    right = np.arange(first, last, dtype=np.intp) - run_start(left) + left + 1
    return left, right


def pair_block_distances(records: Records, include_stats: bool, first: int, last: int, *,
                         epsilon: float | None = None
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pair kernel: ``(left, right, distances)`` of one block of the
    self-join's condensed pair order (see :func:`pair_blocks`).

    The block's pairs go to :func:`verify_pairs` with ``records`` on both
    sides, record ``right`` against anchor ``left``.  Without ``epsilon``
    every pair of the block is scored and returned; with one, only the pairs
    within it.  Either way each pair is scored exactly as
    ``exact_distances`` scores row ``right`` against the record of row
    ``left``: the same reduction over the same ``lengths[left]`` columns, so
    distances are bit-identical to the per-anchor computation on uniform and
    ragged relations alike.
    """
    left, right = _pair_rows(records.size, first, last)
    epsilons = (None if epsilon is None
                else np.broadcast_to(float(epsilon), records.lengths.shape))
    positions, distances = verify_pairs(records, right, records, left, epsilons, include_stats)
    return left[positions], right[positions], distances


def pairwise_distances(records: Records, include_stats: bool, *,
                       row_ids: Sequence[int] | np.ndarray | None = None) -> np.ndarray:
    """Condensed upper-triangle distance vector over the records (or
    ``row_ids`` of them).

    Backs the statistics sampler, the advisor and Table 1's threshold
    sample: the pair kernel without a threshold, block by block, so sampling
    shares the join's kernel instead of a loop of its own.
    """
    if row_ids is not None:
        records = records.select(np.asarray(row_ids, dtype=np.intp))
    count = records.size
    condensed = np.empty(count * (count - 1) // 2, dtype=np.float64)
    for first, last in pair_blocks(count):
        condensed[first:last] = pair_block_distances(records, include_stats, first, last)[2]
    return condensed
