"""Columnar record storage, the record sets the kernels read, and the kernels.

Every hot path of the evaluation — the sequential-scan baselines, k-index
candidate verification, metric-index leaf screening, the self-join inner
loop, statistics sampling — needs the *full spectral record* of many stored
series at once: the normal-form DFT coefficients plus the (mean, std) pair.
Holding those records as per-object Python tuples forces per-record Python
loops over every query; this module stores them **columnar** instead:

* ``coefficients`` — one contiguous ``complex128`` matrix, one row per
  record, zero-padded on the right to the widest record.  A real series of
  ``n`` values has a conjugate-symmetric spectrum, ``X[n - f] ==
  conj(X[f])`` (Rafiei and Mendelzon, FODO '98), so a row keeps each
  frequency once: coefficients ``1 … ⌊n/2⌋`` in columns ``0 … ⌊n/2⌋ - 1``
  (:func:`half_width`), the other half being their conjugates;
* ``lengths`` — each row's coefficient count ``n - 1``, the whole spectrum's
  without its DC term (rows of a relation of equal-length series all share
  it, which enables the unmasked fast path);
* ``means`` / ``stds`` — the two extra statistics dimensions.

The exact distance of two records of one length is Parseval over the whole
spectrum, each stored frequency weighted by the times it is in it:
``Δmean² + Δstd² + Σ w_f·|ΔX_f|²`` with ``w_f = 2`` below ``n/2`` and ``1``
at ``f = n/2`` (:func:`~repro.timeseries.features.record_distance`, the
scalar reference).  Records of different lengths, a bare coefficient vector
(a feature-point query) or a transformation that breaks the mirror compare
the common prefix of their whole spectra instead, each weighted once: the
kernels rebuild the conjugate columns of the rows they gather, never of
the relation.

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
  bounded blocks, bit-identical to
  :func:`~repro.timeseries.features.record_distance` (both reduce with
  ``np.sum`` over the same values in the same order);
* :func:`verify_pairs` — the one **filter-and-refine kernel**: flat (row,
  query) pairs taken :data:`PAIR_BLOCK` at a time, dropped by the statistics
  term and then by rounds of weighted partial sums over the coefficient
  columns, lowest frequency first (where a random walk keeps its energy),
  once they clearly exceed their query's threshold, and only the survivors
  scored exactly, over their own columns.  Pruning is *conservative* (a tiny
  slack keeps borderline pairs alive), so the answers are exactly those of
  scoring every pair.  It is the scan range (one query broadcast over a span
  of rows), k-index candidate verification (a single probe being a batch of
  one) and, through :func:`pair_block_distances`, the scan join; without a
  threshold it scores every pair;
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
from typing import Any, Iterable, NamedTuple, Sequence

import numpy as np

from ..core.errors import DimensionMismatchError

__all__ = [
    "ColumnarRecordStore",
    "RecordMap",
    "Records",
    "half_width",
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
    "weighted_sum",
    "whole_spectrum",
]

#: Coefficient columns consumed per early-abandon round.  A stored record
#: keeps each frequency once, lowest first, and a random walk's energy falls
#: off with frequency, so the rounds read the columns in order — each
#: weighted by the times its frequency is in the exact distance — and most
#: non-answers are dropped after the first chunk or two.  So the kernels stop
#: abandoning after a round whose dropped rows, times the columns the exact
#: pass would have read of each, are no more than the columns the next round
#: would read of the rows it kept: by then the columns left hold little
#: energy, and the survivors (nearly all answers) go to the exact pass as
#: they are.  Eight columns are eight frequencies: in process on one core,
#: median of three fresh interpreters, chunks of 4 / 8 / 12 / 16 ran the
#: ``embedded-index`` range stream (seed 7) at 742 / 623 / 703 / 706 µs a
#: probe, the 240-row scan join at 2.62 / 2.32 / 2.38 / 2.34 ms and 8 000-row
#: scan ranges at 872 / 720 / 881 / 793 µs; at 8 a probe scores 1.14 rows
#: exactly per answer, a scan range 1.08 and a join 1.08-1.16.
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
#: (:func:`record_matrix`); a smaller one is an ordinary numpy block.  One
#: huge page: the half spectra of 3 000 series of 128 values (3 MB) are
#: mapped, as their whole spectra (6 MB) were at twice this bound.
MAPPED_MATRIX_BYTES = 1 << 21
#: A transparent huge page on x86-64 and arm64 (4 KB base pages).
_HUGE_PAGE_BYTES = 1 << 21


def record_matrix(rows: int, width: int) -> np.ndarray:
    """A zeroed ``(rows, width)`` coefficient matrix for a store to keep.

    A relation's matrix is megabytes (8.2 MB at 8 000 × 64: the half spectra
    of 128-point series) and lives as long as its store.  Taken from the C heap, it is freed into the middle of the
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
    all of it can be huge pages.  Unrounded, a 16 MB matrix (the whole spectra
    the store once kept) faulted in ~2 500 pages a load
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
    """Contiguous full-record arrays for one relation of series: the half
    spectra, their lengths and the statistics (see the module docstring).

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
        a block copy and never an FFT.  ``coefficients`` rows hold the half
        spectra of records of ``lengths`` coefficients, zero-padded beyond
        each row's :func:`half_width`, exactly as this store pads them.

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
        """The (count, width) zero-padded matrix of half spectra (a view)."""
        return self._coefficients[:self._count]

    @property
    def lengths(self) -> np.ndarray:
        """The coefficient count of each row's whole spectrum, ``n - 1`` for a
        series of ``n`` values (a view)."""
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

    def full_record(self, record_id: int) -> tuple[np.ndarray, float, float, int]:
        """One record as ``(coefficients, mean, std, length)``: its stored half
        spectrum, the padding trimmed, and its whole spectrum's coefficient
        count."""
        if not 0 <= record_id < self._count:
            raise IndexError(f"unknown record id {record_id}")
        length = int(self._lengths[record_id])
        return (self._coefficients[record_id, :half_width(length)],
                float(self._means[record_id]), float(self._stds[record_id]), length)

    def record_bytes(self) -> int:
        """Estimated bytes of one full record (for page arithmetic): priced
        at its whole spectrum's coefficients, as the cost model has always
        priced it, though the store keeps half of them."""
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
        the transformation's vectors over the stored records' whole spectra.

        Raises :class:`DimensionMismatchError` when the transformation covers
        fewer coefficients than the longest stored record.  Nothing is kept:
        the slices are views, and a kernel maps only the rows it gathers.
        """
        records = Records(self.coefficients, self.lengths, self.means, self.stds)
        if transformation is None:
            return records
        longest = self._length_range[1]
        if transformation.multiplier.shape[0] < 1 + longest and self._count:
            raise DimensionMismatchError(
                f"transformation {transformation.name!r} covers "
                f"{transformation.multiplier.shape[0]} spectral coefficients but a "
                f"stored record has {longest} (plus DC); rebuild the "
                "transformation for the relation's series length")
        offset = transformation.offset[1:1 + longest]
        return records._replace(mapping=RecordMap(
            transformation.multiplier[1:1 + longest], offset if offset.any() else None,
            transformation.extra_multiplier, transformation.extra_offset,
            transformation.length if transformation.keeps_mirror else None))

    def __repr__(self) -> str:
        return (f"ColumnarRecordStore(size={self._count}, "
                f"width={self._coefficients.shape[1]}, "
                f"uniform={self.uniform_length})")


# ---------------------------------------------------------------------------
# record sets, and the transformations the kernels read them under
# ---------------------------------------------------------------------------
def half_width(lengths: Any) -> Any:
    """The stored columns of records of ``lengths`` coefficients (a number or
    an array): ``⌈length / 2⌉``, frequencies ``1 … ⌊n/2⌋`` of a series of
    ``n = length + 1`` values."""
    return (lengths + 1) // 2


def whole_spectrum(coefficients: np.ndarray, length: int) -> np.ndarray:
    """Coefficients ``1 … length`` of a record stored as ``coefficients``: the
    record itself when it is whole, else its half followed by the conjugates
    of their mirrors, ``X[n - f] = conj(X[f])``."""
    stored = coefficients.shape[0]
    if stored >= length:
        return coefficients
    return np.concatenate((coefficients, coefficients[length - stored - 1::-1].conj()))


class RecordMap(NamedTuple):
    """A spectral transformation over a record set's columns, applied by the
    kernels to the rows they gather (:meth:`ColumnarRecordStore.records`).

    Column ``j`` holds spectral coefficient ``j + 1`` (a stored record has no
    DC term), so ``multiplier`` and ``offset`` are the transformation's
    vectors from index 1 on, over the longest record's whole spectrum; a
    round slices them by the columns it reads.  Padding beyond a row's true
    length maps to its offset, as it did in a transformed matrix: the kernels
    never count it.  An ``offset`` of zeros is ``None`` and never added (most
    transformations, the moving averages among them, have none): adding zero
    changes at most the sign of a zero, which no distance sees, and the pass
    costs as much as the product.

    ``mirrored_length`` is the series length whose half spectra the map
    keeps halves (the transformation's own length, when it
    :attr:`~repro.timeseries.transforms.SpectralTransformation.keeps_mirror`),
    or ``None`` when it keeps none.  A record of any other length is read
    whole under the map, its conjugate columns rebuilt before they are
    mapped.
    """

    multiplier: np.ndarray
    offset: np.ndarray | None
    extra_multiplier: np.ndarray
    extra_offset: np.ndarray
    mirrored_length: int | None = None

    def columns(self, block: np.ndarray, cols: np.ndarray | slice) -> np.ndarray:
        """``block`` — fresh rows gathered over columns ``cols`` (one per row,
        or one row of them for all) — mapped in place: the product and then
        the sum, each element rounded as the transformed matrix rounded it."""
        if block.size == 1:
            # numpy multiplies a lone complex number in place without the
            # fused multiply-add its vector loop rounds every other product
            # with; out of place and flat, it rounds it as those.
            block[...] = block.reshape(1) * np.reshape(self.multiplier[cols], 1)
        else:
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

    ``coefficients`` is a ``(size, width)`` complex matrix.  Row ``i`` holds
    the first :func:`half_width` of the ``lengths[i]`` coefficients of a real
    series' spectrum — the rest are their conjugates — and zeros beyond.  A
    row of ``whole`` (a bare coefficient vector: a feature-point query, or a
    query under a map that breaks the mirror) holds all ``lengths[i]`` of
    its coefficients and has no mirror; ``whole`` is ``None`` when no row
    is, as in every stored relation.  ``means`` and ``stds`` are the two
    statistics.  Under ``mapping`` the records are read transformed — each
    block of rows mapped in place as a kernel gathers it, the set itself
    never copied.  A relation is one record set
    (:meth:`ColumnarRecordStore.records`), a batch of queries another
    (:func:`query_records`), and the self-join passes one as both sides.
    """

    coefficients: np.ndarray
    lengths: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    mapping: RecordMap | None = None
    whole: np.ndarray | None = None

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
                       self.stds[rows], self.mapping,
                       None if self.whole is None else self.whole[rows])

    def halves(self, at: Any) -> Any:
        """Whether records ``at`` are read as half spectra — one bool for all,
        or one per record: stored as halves and, under the set's map, still
        halves of the mapped spectra."""
        mapping = self.mapping
        if mapping is not None and mapping.mirrored_length is None:
            return False
        halves = True if self.whole is None else ~self.whole[at]
        if mapping is not None:
            halves = halves & (self.lengths[at] + 1 == mapping.mirrored_length)
        return halves

    def row(self, at: int, cols: np.ndarray | slice) -> np.ndarray:
        """Stored columns ``cols`` of row ``at``, to broadcast against
        gathered rows: read as it is (a view for a slice), or mapped on a
        copy."""
        row = self.coefficients[at, cols]
        if self.mapping is None:
            return row
        return self.mapping.columns(row.copy() if isinstance(cols, slice) else row, cols)

    def gather(self, rows: np.ndarray, cols: np.ndarray, whole: bool = False) -> np.ndarray:
        """``coefficients[rows[:, None], cols]``, a fresh array, mapped in
        place — with ``whole``, columns ``cols`` of the rows' whole spectra,
        any a row does not store rebuilt (:meth:`_rebuilt`).

        numpy's (row, column) gather costs about twice a copy of the columns
        followed by a row take, so it goes that way when the matrix has no
        more rows than are gathered: the copy is then no larger than the
        result, and no temporary outgrows the gather.  A C-contiguous matrix
        with more rows is gathered by a flat ``take`` of element offsets,
        25-40 % cheaper; a view is not (``take`` would first copy it whole).
        """
        if whole and cols.size and self._past_stored(rows, int(cols[-1]) + 1):
            return self._rebuilt(rows, cols)
        matrix = self.coefficients
        if matrix.shape[0] <= rows.size:
            gathered = matrix.take(cols, axis=1).take(rows, axis=0)
        elif matrix.flags.c_contiguous:
            gathered = matrix.take(rows[:, None] * matrix.shape[1] + cols)
        else:
            gathered = matrix[rows[:, None], cols]
        return gathered if self.mapping is None else self.mapping.columns(gathered, cols)

    def take(self, rows: np.ndarray, columns: int, whole: bool = False) -> np.ndarray:
        """``coefficients[rows, :columns]``, a fresh array, mapped in place —
        with ``whole``, the first ``columns`` columns of the rows' whole
        spectra (:meth:`gather`).  A row ``take`` when the full width of a
        C-contiguous matrix is read (``take`` copies a strided view
        whole)."""
        if whole and self._past_stored(rows, columns):
            return self._rebuilt(rows, np.arange(columns))
        matrix = self.coefficients
        if columns == matrix.shape[1] and matrix.flags.c_contiguous:
            taken = matrix.take(rows, axis=0)
        else:
            taken = matrix[rows, :columns]
        return taken if self.mapping is None else self.mapping.columns(taken, slice(columns))

    def _stored(self, rows: np.ndarray) -> np.ndarray:
        """The columns each record of ``rows`` stores: its half, or all of a
        whole record's."""
        lengths = self.lengths[rows]
        stored = half_width(lengths)
        return stored if self.whole is None else np.where(self.whole[rows], lengths, stored)

    def _past_stored(self, rows: np.ndarray, columns: int) -> bool:
        """Whether the first ``columns`` columns of a whole spectrum reach past
        what some record of ``rows`` stores."""
        if columns > self.width:
            return True
        return bool(rows.size) and columns > int(self._stored(rows).min())

    def _rebuilt(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Columns ``cols`` of the whole spectra of records ``rows``, mapped: a
        column ``j`` past a half record's stored ones is the conjugate of
        column ``length - 1 - j``, and a column past its length is zero.

        A record the map keeps a half (:meth:`halves`) is mapped as a half
        and then mirrored, any other made whole and then mapped — the two
        orders of :func:`transform_full_record`, so a rebuilt row has the
        bits of a query record made whole."""
        if not self.width:  # no record has a coefficient
            return np.zeros((rows.size, cols.size), dtype=np.complex128)
        lengths = self.lengths[rows][:, None]
        mirrored = cols >= self._stored(rows)[:, None]
        sources = np.maximum(np.where(mirrored, lengths - 1 - cols, cols), 0)
        block = self.coefficients[rows[:, None], sources]
        if self.mapping is None:
            np.conjugate(block, out=block, where=mirrored)
        else:
            halves = self.mapping.columns(block.copy(), sources)
            np.conjugate(halves, out=halves, where=mirrored)
            np.conjugate(block, out=block, where=mirrored)
            self.mapping.columns(block, cols)
            block = np.where(np.reshape(self.halves(rows), (-1, 1)), halves, block)
        block[cols >= lengths] = 0.0
        return block

    def statistics(self, rows: Any) -> tuple[Any, Any]:
        """``(means[rows], stds[rows])``, under the record set's map."""
        if self.mapping is None:
            return self.means[rows], self.stds[rows]
        return self.mapping.statistics(self.means[rows], self.stds[rows])


def transform_full_record(coefficients: np.ndarray, mean: float, std: float, length: int,
                          transformation: Any | None
                          ) -> tuple[np.ndarray, float, float, int]:
    """A spectral transformation applied to one ``(coefficients, mean, std,
    length)`` query record — the scalar twin of :class:`RecordMap`.  A half
    record stays one under a map that keeps the mirror at its length
    (:attr:`~repro.timeseries.transforms.SpectralTransformation.keeps_mirror`);
    under any other map it is made whole (:func:`whole_spectrum`) and then
    mapped."""
    if transformation is None:
        return coefficients, mean, std, length
    if transformation.multiplier.shape[0] < 1 + length:
        raise DimensionMismatchError(
            f"transformation {transformation.name!r} covers "
            f"{transformation.multiplier.shape[0]} spectral coefficients but the "
            f"query has {length} (plus DC); rebuild the transformation "
            "for the relation's series length")
    if length + 1 != transformation.length or not transformation.keeps_mirror:
        coefficients = whole_spectrum(coefficients, length)
    width = coefficients.shape[0]
    coefficients = (coefficients * transformation.multiplier[1:1 + width]
                    + transformation.offset[1:1 + width])
    extra = (np.array([mean, std]) * transformation.extra_multiplier
             + transformation.extra_offset)
    return coefficients, float(extra[0]), float(extra[1]), length


def query_record(features: Any, transformation: Any | None
                 ) -> tuple[np.ndarray, float, float, int]:
    """The full record of a query's extracted ``features`` (a
    :class:`~repro.timeseries.features.SeriesFeatures`), under
    ``transformation`` when one is given: queries are transformed once, up
    front, and stacked unmapped by :func:`query_records`."""
    return transform_full_record(features.full_coefficients, features.mean, features.std,
                                 features.length, transformation)


def query_records(fulls: Sequence[tuple]) -> Records:
    """A batch of query records as one record set, each row zero-padded to
    the widest.  A record is ``(coefficients, mean, std, length)`` — its half
    spectrum, or all ``length`` coefficients when it is whole — or
    ``(coefficients, mean, std)``, a whole one."""
    stored = np.array([full[0].shape[0] for full in fulls], dtype=np.intp)
    lengths = np.array([full[3] if len(full) > 3 else full[0].shape[0] for full in fulls],
                       dtype=np.intp)
    matrix = np.zeros((len(fulls), int(stored.max())), dtype=np.complex128)
    for position, full in enumerate(fulls):
        matrix[position, :full[0].shape[0]] = full[0]
    whole = stored >= lengths
    return Records(matrix, lengths, np.array([full[1] for full in fulls], dtype=np.float64),
                   np.array([full[2] for full in fulls], dtype=np.float64),
                   whole=whole if whole.any() else None)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------
def _plan(rows: Records, ids: np.ndarray, queries: Records, queried: Any
          ) -> tuple[Any, Any]:
    """How each (record ``ids[t]`` of ``rows``, record ``queried[t]`` of
    ``queries``) pair is scored: ``(doubled, columns)``, its first
    ``doubled`` columns weighted twice and the rest up to ``columns`` once —
    two numbers when every pair shares them, else two arrays.

    Two half spectra of one length are scored over their stored columns,
    ``(⌊length/2⌋, ⌈length/2⌉)``: each frequency below ``n/2`` stands for
    itself and its mirror, ``n/2`` (an even ``n``'s last column) for itself.
    Any other pair is scored over the common prefix of its whole spectra,
    ``(0, common)``."""
    row_lengths = rows.lengths[ids]
    query_lengths = queries.lengths[queried]
    if not row_lengths.size:
        return 0, 0
    length = int(row_lengths[0])
    row_halves, query_halves = rows.halves(ids), queries.halves(queried)
    if (row_lengths == length).all() and (query_lengths == length).all():
        if _every(row_halves) and _every(query_halves):
            return length // 2, half_width(length)
        if not (_some(row_halves) and _some(query_halves)):
            return 0, length
    mirrored = (row_lengths == query_lengths) & row_halves & query_halves
    common = np.minimum(row_lengths, query_lengths)
    doubled = np.where(mirrored, common // 2, 0)
    columns = np.where(mirrored, half_width(common), common)
    if (doubled == doubled[0]).all() and (columns == columns[0]).all():
        return int(doubled[0]), int(columns[0])
    return doubled, columns


def _every(flags: Any) -> bool:
    """Whether a bool, or every bool of an array, is true."""
    return flags if isinstance(flags, bool) else bool(flags.all())


def _some(flags: Any) -> bool:
    """Whether a bool, or some bool of an array, is true."""
    return flags if isinstance(flags, bool) else bool(flags.any())


def _widest(plan: tuple[Any, Any]) -> int:
    """The most columns a pair of ``plan`` is scored over."""
    columns = plan[1]
    return columns if isinstance(columns, int) else int(columns.max())


def _cut(plan: tuple[Any, Any], pairs: slice | np.ndarray) -> tuple[Any, Any]:
    """The plan of the pairs ``pairs`` of ``plan``'s."""
    if isinstance(plan[1], int):
        return plan
    return plan[0][pairs], plan[1][pairs]


def exact_distances(rows: Records, query: Records, include_stats: bool, *,
                    row_ids: np.ndarray | None = None) -> np.ndarray:
    """Exact record distances of many rows to one query record.

    The bits of :func:`~repro.timeseries.features.record_distance`,
    evaluated for all ``rows`` — or the gathered ``row_ids`` — by
    :func:`gathered_pair_distances` against the one-record set ``query``, in
    blocks of :func:`_slice_rows` rows (a pruning round's coefficients).
    """
    if row_ids is None:
        row_ids = np.arange(rows.size)
    # No pair is scored over more than twice the columns either side stores
    # (a whole spectrum), so a few rows need no plan to know they are one block.
    if row_ids.size <= _slice_rows(2 * max(rows.width, query.width), False):
        return gathered_pair_distances(rows, row_ids, query, None, include_stats)
    block = _slice_rows(_widest(_plan(rows, row_ids, query, 0)), False)
    return np.concatenate([
        gathered_pair_distances(rows, row_ids[at:at + block], query, None, include_stats)
        for at in range(0, row_ids.size, block)])


def gathered_pair_distances(rows: Records, row_ids: np.ndarray, queries: Records,
                            query_index: np.ndarray | None, include_stats: bool,
                            plan: tuple[Any, Any] | None = None) -> np.ndarray:
    """One exact distance per (stored row, query) pair, in a single pass:
    the exact core under every exact distance of the engine.

    ``row_ids[t]`` names the record of ``rows`` and ``query_index[t]`` the
    record of ``queries`` it is verified against; a one-record ``queries``
    is broadcast instead (``query_index`` unread).  It holds a row of
    columns per pair, so :func:`verify_pairs` calls it on its survivors in
    slices of :func:`_slice_rows` pairs.  The rows are gathered once
    (mapped, on either side, as they are), the query subtracted and the
    moduli squared in place (``a *= a``, the bits of ``** 2``), then reduced
    — a pair of two half spectra of one length as ``2 · Σ`` over the
    frequencies below ``n/2`` plus the term at ``n/2``, any other over the
    common prefix of its whole spectra (see :func:`_plan`).  A caller that
    already holds the pairs' ``plan`` passes it, and they are not planned
    again.
    """
    if plan is None:
        plan = _plan(rows, row_ids, queries, 0 if query_index is None else query_index)
    return _scored(rows, row_ids, queries, query_index, include_stats, plan)


def _scored(rows: Records, row_ids: np.ndarray, queries: Records,
            query_index: np.ndarray | None, include_stats: bool,
            plan: tuple[Any, Any]) -> np.ndarray:
    """:func:`gathered_pair_distances` under a known ``plan``.  Pairs scored
    different ways are scored apart, each over exactly its own terms."""
    doubled, columns = plan
    if not isinstance(columns, int):
        keys = doubled * (int(columns.max()) + 1) + columns
        distances = np.empty(row_ids.size, dtype=np.float64)
        for key in np.unique(keys).tolist():
            mine = np.flatnonzero(keys == key)
            distances[mine] = _scored(
                rows, row_ids[mine], queries, None if query_index is None else query_index[mine],
                include_stats, (int(doubled[mine[0]]), int(columns[mine[0]])))
        return distances
    # Two halves of one length are read as stored; any other pair whole.
    whole = not doubled
    if queries.size == 1:
        query_index = 0
        query = (queries.take(np.zeros(1, dtype=np.intp), columns, True) if whole
                 else queries.row(0, slice(columns)))
    else:
        query = queries.take(query_index, columns, whole)
    gathered = rows.take(row_ids, columns, whole)
    gathered -= query
    squared = np.abs(gathered)
    squared *= squared
    totals = weighted_sum(squared, doubled, columns)
    if include_stats:
        row_means, row_stds = rows.statistics(row_ids)
        query_means, query_stds = queries.statistics(query_index)
        totals = totals + ((row_means - query_means) ** 2 + (row_stds - query_stds) ** 2)
    return np.sqrt(totals)


def weighted_sum(squared: np.ndarray, doubled: int, columns: int) -> np.ndarray:
    """The sum along the last axis of ``columns`` squared moduli, the first
    ``doubled`` weighted twice (:func:`_plan`): for two halves of one length,
    twice the sum with the term at ``n/2`` halved — both scalings exact, so
    one reduction — and else the plain sum.  The kernels and
    :func:`~repro.timeseries.features.record_distance` share it, and so the
    order of every operation.  ``squared`` is scratch."""
    if not doubled:
        return squared.sum(axis=-1)
    if columns > doubled:
        squared[..., doubled] *= 0.5
    totals = squared.sum(axis=-1)
    totals *= 2.0
    return totals


def _slice_rows(columns: int, per_pair: bool) -> int:
    """Rows of one exact slice over ``columns`` columns: a pruning round's
    ``PAIR_BLOCK * ABANDON_CHUNK`` coefficients (1 MB) against one broadcast
    query — :func:`exact_distances`' block — and a quarter of that with a
    query row gathered per pair.  Measured on the benchmark's 240-row join:
    ~7 % faster than at half the per-pair size, ~1.7x slower at 1 MB a side
    (its slices faulting their memory in afresh, ~1 700 minor faults a
    join); and ``analyze``'s pairwise sample must stay under 1 MB."""
    return max(1, PAIR_BLOCK * ABANDON_CHUNK // ((4 if per_pair else 1) * max(1, columns)))


def _partial_sums(rows: Records, ids: np.ndarray, queries: Records,
                  queried: np.ndarray | None, cols: np.ndarray,
                  plan: tuple[Any, Any]) -> np.ndarray:
    """Each pair's squared differences over the consecutive columns
    ``cols``, weighted as its exact distance weights them (:func:`_plan`): a
    lower bound on its coefficient term, which the sum over all of its
    columns reaches.  ``queried`` indexes ``queries``, or is ``None`` for a
    one-record ``queries``, broadcast."""
    doubled, columns = plan
    uniform = isinstance(columns, int)
    whole = not uniform or not doubled
    difference = rows.gather(ids, cols, whole)
    if queries.size == 1:
        difference -= (queries.gather(np.zeros(1, dtype=np.intp), cols, True) if whole
                       else queries.row(0, cols))
    else:
        difference -= queries.gather(queried, cols, whole)
    if not uniform:
        squared = np.abs(difference)
        squared *= squared
        squared *= (cols < doubled[:, None]).astype(np.float64) + (cols < columns[:, None])
        return squared.sum(axis=1)
    parts = difference.view(np.float64)
    sums = np.einsum("ij,ij->i", parts, parts)
    twice = min(doubled, int(cols[-1]) + 1) - int(cols[0])
    if twice >= cols.size:
        sums *= 2.0
    elif twice > 0:
        ahead = parts[:, :2 * twice]
        sums += np.einsum("ij,ij->i", ahead, ahead)
    return sums


def _abandon(rows: Records, queries: Records, positions: np.ndarray, ids: np.ndarray,
             queried: np.ndarray | None, totals: np.ndarray, bounds: np.ndarray | float,
             plan: tuple[Any, Any]
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, tuple[Any, Any]]:
    """The abandoning rounds of :func:`verify_pairs` over one block's pairs
    — record ``ids[t]`` of ``rows`` against record ``queried[t]`` of
    ``queries``, scored by ``plan`` — which it returns as ``(positions, ids,
    queried, plan)``; ``ids`` may be ``positions`` itself, compacted once.
    Each round maps the columns it gathers.

    A round costs about what scoring its pairs outright would, so rounds
    run only while the survivors' remaining columns overflow
    :data:`PAIR_BLOCK` (a probe with few candidates runs none), and stop
    once the pairs a round drops no longer pay for the columns it reads
    (see :data:`ABANDON_CHUNK`).
    """
    columns = _widest(plan)
    # The queries this block's pairs span: a round's gather copies their
    # columns, not the whole batch's, and one query's columns are
    # broadcast, not gathered pair by pair.
    low = 0 if queried is None else int(queried.min())
    spanned = queries.select(slice(low, 1 if queried is None else int(queried.max()) + 1))
    same = ids is positions
    for start in range(0, columns, ABANDON_CHUNK):
        if positions.size * (columns - start) <= PAIR_BLOCK:
            break
        cols = np.arange(start, min(start + ABANDON_CHUNK, columns))
        totals += _partial_sums(rows, ids, spanned, None if queried is None else queried - low,
                                cols, plan)
        # Compacted by the kept indices, not by the mask: a boolean index
        # costs a few gathers' worth on every array it compacts.
        alive = (totals <= bounds).nonzero()[0]
        dropped = positions.size - alive.size
        if dropped:
            positions, totals = positions[alive], totals[alive]
            ids = positions if same else ids[alive]
            plan = _cut(plan, alive)
            if queried is not None:
                queried, bounds = queried[alive], bounds[alive]
        if dropped * columns <= positions.size * ABANDON_CHUNK:
            break
    return positions, ids, queried, plan


def leading_bounds(rows: Records, query: Records, include_stats: bool) -> np.ndarray:
    """Squared lower bounds on the exact distances of every record of
    ``rows`` to the one record of ``query``: the statistics term and the
    first :data:`ABANDON_CHUNK` columns, the lowest frequencies, where a
    random walk's spectrum holds most of its energy — one gather, the first
    round :func:`verify_pairs` would run.  What a multi-step scan ranks its
    rows by before it scores any exactly."""
    ids = np.arange(rows.size)
    plan = _plan(rows, ids, query, 0)
    cols = np.arange(min(ABANDON_CHUNK, _widest(plan)))
    totals = (_partial_sums(rows, ids, query, None, cols, plan) if cols.size
              else np.zeros(rows.size, dtype=np.float64))
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
    :func:`gathered_pair_distances` under the plan the block already holds,
    in slices of :func:`_slice_rows` pairs.
    A pair reduces over its own columns, so a query's distances are
    bit-identical to a batch holding it alone, however long the other
    queries of the batch are.  Without ``epsilons`` every pair is scored and
    kept.

    ``positions`` index the pair arrays, ascending; no temporary is sized by
    the number of pairs or of survivors.
    """
    found: list[tuple[np.ndarray, np.ndarray]] = []
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
        plan = _plan(rows, ids, queries, 0 if queried is None else queried)
        width = _widest(plan)
        if epsilons is not None and positions.size * width > PAIR_BLOCK:
            positions, ids, queried, plan = _abandon(rows, queries, positions, ids, queried,
                                                     totals, bounds, plan)
        step = _slice_rows(width, queries.size > 1)
        for start in range(0, ids.size, step):
            pairs = slice(start, start + step)
            distances = gathered_pair_distances(
                rows, ids[pairs], queries, None if queried is None else queried[pairs],
                include_stats, _cut(plan, pairs))
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
