"""Columnar record storage and the vectorized distance kernels over it.

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
caches (e.g. transformed-coefficient matrices) invalidate on growth.  One
store serves a whole relation: the :class:`~repro.core.database.Database`
owns one per relation (``Database.columnar_store``), shares the spatial
index's store when its contents match, and the executor's scan fallback and
the statistics sampler read the same arrays — no path materialises its own
record list.

The module-level **kernels** implement exact record distances blockwise:

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
  after it" pair order at a time, handed to :func:`verify_pairs` with the
  relation as its own query matrix — bit-identical to one
  :func:`exact_distances` call per anchor;
* :func:`transform_full_record` / :meth:`ColumnarRecordStore.transformed_arrays`
  — a spectral transformation applied to one record or to the whole matrix
  (cached per store version).

Work accounting stays exact under batching because the kernels never skip
*counted* work: counters (candidates, postprocessed, record fetches) are
derived from the exact row sets the kernels process, not from wall-clock
shortcuts.
"""

from __future__ import annotations

import math
import mmap
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from ..core.errors import DimensionMismatchError

__all__ = [
    "ColumnarRecordStore",
    "record_matrix",
    "exact_distances",
    "gathered_pair_distances",
    "pair_blocks",
    "pair_block_distances",
    "pairwise_distances",
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
        #: (id(transformation), version) -> (transformation, coeffs, means, stds)
        self._transformed_cache: dict[int, tuple[Any, np.ndarray, np.ndarray,
                                                 np.ndarray]] = {}

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
        self._count += count
        self._transformed_cache.clear()

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
    def uniform_length(self) -> bool:
        """Whether every stored record has the same coefficient count."""
        if self._count == 0:
            return True
        lengths = self.lengths
        return bool(np.all(lengths == lengths[0]))

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
    # transformed views
    # ------------------------------------------------------------------
    def transformed_arrays(self, transformation: Any | None
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(coefficients, means, stds)`` after applying a spectral
        transformation to every record (cached until the store grows).

        ``None`` returns the base arrays.  Rows shorter than the matrix
        width carry transformation *offsets* in their padded region; the
        kernels never read past a row's true length, so the padding is
        inert.
        """
        if transformation is None:
            return self.coefficients, self.means, self.stds
        cached = self._transformed_cache.get(id(transformation))
        if cached is not None and cached[0] is transformation:
            return cached[1], cached[2], cached[3]
        lengths = self.lengths
        max_length = int(lengths.max()) if self._count else 0
        if transformation.multiplier.shape[0] < 1 + max_length:
            raise DimensionMismatchError(
                f"transformation {transformation.name!r} covers "
                f"{transformation.multiplier.shape[0]} spectral coefficients but a "
                f"stored record has {max_length} (plus DC); rebuild the "
                "transformation for the relation's series length")
        width = self.coefficients.shape[1]
        multiplier = transformation.multiplier[1:1 + width]
        offset = transformation.offset[1:1 + width]
        # The product is the result and the offset is added in place: written
        # as one expression, ``a * m + o`` holds a second relation-sized block
        # for the length of the addition, and the hole it leaves in the heap
        # is what a process's peak RSS then varies by from run to run.
        coefficients = self.coefficients * multiplier
        coefficients += offset
        extra = np.stack([self.means, self.stds], axis=1)
        extra = extra * transformation.extra_multiplier + transformation.extra_offset
        entry = (transformation, coefficients, extra[:, 0].copy(), extra[:, 1].copy())
        if len(self._transformed_cache) >= 8:
            self._transformed_cache.clear()
        self._transformed_cache[id(transformation)] = entry
        return entry[1], entry[2], entry[3]

    def __repr__(self) -> str:
        return (f"ColumnarRecordStore(size={self._count}, "
                f"width={self._coefficients.shape[1]}, "
                f"uniform={self.uniform_length})")


# ---------------------------------------------------------------------------
# record-level helper shared by query-side code and the reference tests
# ---------------------------------------------------------------------------
def transform_full_record(full_coefficients: np.ndarray, mean: float, std: float,
                          transformation: Any | None, *,
                          owner: str = "record"
                          ) -> tuple[np.ndarray, float, float]:
    """A spectral transformation applied to one ``(coefficients, mean, std)``
    record — the scalar twin of :meth:`ColumnarRecordStore.transformed_arrays`,
    used for query objects and incremental (nearest-neighbour) fetches."""
    if transformation is None:
        return full_coefficients, mean, std
    available = full_coefficients.shape[0]
    if transformation.multiplier.shape[0] < 1 + available:
        raise DimensionMismatchError(
            f"transformation {transformation.name!r} covers "
            f"{transformation.multiplier.shape[0]} spectral coefficients but the "
            f"{owner} has {available} (plus DC); rebuild the transformation "
            "for the relation's series length")
    coefficients = (full_coefficients * transformation.multiplier[1:1 + available]
                    + transformation.offset[1:1 + available])
    extra = (np.array([mean, std]) * transformation.extra_multiplier
             + transformation.extra_offset)
    return coefficients, float(extra[0]), float(extra[1])


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


def _gather_columns(matrix: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``matrix[rows[:, None], cols]``, a fresh array.

    numpy's (row, column) gather costs about twice a copy of the columns
    followed by a row take, so it goes that way when the matrix has no more
    rows than are gathered: the copy is then no larger than the result, and
    no temporary outgrows the gather.  A C-contiguous matrix with more rows
    is gathered by a flat ``take`` of element offsets, 25-40 % cheaper; a
    view is not (``take`` would first copy it whole).
    """
    if matrix.shape[0] <= rows.size:
        return matrix.take(cols, axis=1).take(rows, axis=0)
    if matrix.flags.c_contiguous:
        return matrix.take(rows[:, None] * matrix.shape[1] + cols)
    return matrix[rows[:, None], cols]


def _take_rows(matrix: np.ndarray, rows: np.ndarray | int, columns: int) -> np.ndarray:
    """``matrix[rows, :columns]``: a row ``take`` when the full width of a
    C-contiguous matrix is read (``take`` copies a strided view whole)."""
    if columns == matrix.shape[1] and matrix.flags.c_contiguous:
        return matrix.take(rows, axis=0)
    return matrix[rows, :columns]


def exact_distances(coefficients: np.ndarray, lengths: np.ndarray,
                    means: np.ndarray, stds: np.ndarray,
                    query_coefficients: np.ndarray, query_mean: float,
                    query_std: float, include_stats: bool, *,
                    row_ids: np.ndarray | None = None) -> np.ndarray:
    """Exact record distances of many rows to one query record.

    The common-prefix semantics (and, on equal-length data, the bit pattern)
    of :func:`~repro.timeseries.features.record_distance`, evaluated for all
    rows — or the gathered ``row_ids`` — by :func:`gathered_pair_distances`
    against a one-row query matrix, in blocks of :func:`_slice_rows` rows
    (a pruning round's coefficients).
    """
    query = np.asarray(query_coefficients)
    query_side = (query[None, :], (query.shape[0],), (query_mean,), (query_std,), None)
    if row_ids is None:
        row_ids = np.arange(coefficients.shape[0])
    rows = _slice_rows(min(coefficients.shape[1], query.shape[0]), False)
    arrays = (coefficients, lengths, means, stds, include_stats)
    if row_ids.size <= rows:
        return gathered_pair_distances(*arrays, row_ids, *query_side)
    return np.concatenate([gathered_pair_distances(*arrays, row_ids[at:at + rows], *query_side)
                           for at in range(0, row_ids.size, rows)])


def gathered_pair_distances(coefficients: np.ndarray, lengths: np.ndarray,
                            means: np.ndarray, stds: np.ndarray,
                            include_stats: bool, row_ids: np.ndarray,
                            query_matrix: np.ndarray, query_lengths: np.ndarray,
                            query_means: np.ndarray, query_stds: np.ndarray,
                            query_index: np.ndarray | None) -> np.ndarray:
    """One exact distance per (stored row, query) pair, in a single pass:
    the exact core under every exact distance of the engine.

    ``row_ids[t]`` names the stored record and ``query_index[t]`` the row of
    the stacked query arrays it is verified against; a one-row query matrix
    is broadcast instead (``query_index`` unread, its statistics may be
    1-tuples).  It holds a full row per pair, so :func:`verify_pairs` calls
    it on its survivors in the slices of :func:`_exact_slices`.  The rows
    are gathered once, the query subtracted and the moduli squared in place
    (``a *= a``, the bits of ``** 2``), then reduced once.
    """
    columns = min(coefficients.shape[1], query_matrix.shape[1])
    if query_matrix.shape[0] == 1:
        query_index, queries = 0, query_matrix[0, :columns]
    else:
        queries = _take_rows(query_matrix, query_index, columns)
    gathered = _take_rows(coefficients, row_ids, columns)
    gathered -= queries
    squared = np.abs(gathered)
    squared *= squared
    common = np.minimum(lengths[row_ids], query_lengths[query_index])
    if (common == columns).all():
        totals = squared.sum(axis=1)
    else:
        mask = np.arange(columns)[None, :] < common[:, None]
        totals = np.where(mask, squared, 0.0).sum(axis=1)
    if include_stats:
        totals = totals + ((means[row_ids] - query_means[query_index]) ** 2
                           + (stds[row_ids] - query_stds[query_index]) ** 2)
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


def _abandon(coefficients: np.ndarray, lengths: np.ndarray,
             query_matrix: np.ndarray, query_lengths: Sequence[int],
             positions: np.ndarray, rows: np.ndarray, queries: np.ndarray | None,
             totals: np.ndarray, bounds: np.ndarray | float
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The abandoning rounds of :func:`verify_pairs` over one block's pairs,
    which it returns as ``(positions, rows, queries)``; ``rows`` may be
    ``positions`` itself, compacted once.

    A round costs about what scoring its pairs outright would, so rounds
    run only while the survivors' remaining columns overflow
    :data:`PAIR_BLOCK` (a probe with few candidates runs none), and stop
    once the pairs a round drops no longer pay for the columns it reads
    (see :data:`ABANDON_CHUNK`).
    """
    common = np.minimum(lengths[rows], query_lengths[0 if queries is None else queries])
    columns = int(common.max())
    ragged = not (common == columns).all()
    order = _abandon_order(columns)
    # The rows of the batch this block's queries span: a round's gather
    # copies their columns, not the whole batch's, and one query's columns
    # are broadcast, not gathered pair by pair.
    low = 0 if queries is None else int(queries.min())
    spanned = query_matrix[low:1 if queries is None else int(queries.max()) + 1]
    same = rows is positions
    for start in range(0, columns, ABANDON_CHUNK):
        if positions.size * (columns - start) <= PAIR_BLOCK:
            break
        cols = order[start:start + ABANDON_CHUNK]
        difference = _gather_columns(coefficients, rows, cols)
        difference -= (spanned[0, cols] if spanned.shape[0] == 1
                       else _gather_columns(spanned, queries - low, cols))
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
            rows = positions if same else rows[alive]
            if ragged:
                common = common[alive]
            if queries is not None:
                queries, bounds = queries[alive], bounds[alive]
        if dropped * columns <= positions.size * ABANDON_CHUNK:
            break
    return positions, rows, queries


def verify_pairs(coefficients: np.ndarray, lengths: np.ndarray,
                 means: np.ndarray, stds: np.ndarray, include_stats: bool,
                 row_ids: np.ndarray | None, query_matrix: np.ndarray,
                 query_lengths: Sequence[int], query_means: Sequence[float],
                 query_stds: Sequence[float], query_index: np.ndarray | None,
                 epsilons: Sequence[float] | None) -> tuple[np.ndarray, np.ndarray]:
    """The filter-and-refine kernel: ``(positions, distances)`` of the
    (stored row, query) pairs whose exact distance is within their query's
    epsilon — every scan range, scan join and index verification.

    The pairs are those of :func:`gathered_pair_distances` — ``row_ids[t]``
    (every row of the matrix in order when ``row_ids`` is ``None``) against
    row ``query_index[t]`` of the stacked query arrays, or against the one
    row of a one-row query matrix when ``query_index`` is ``None`` (its
    statistics and epsilon may then be 1-tuples) — and ``epsilons[q]`` is
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
    width = min(coefficients.shape[1], query_matrix.shape[1])
    count = coefficients.shape[0] if row_ids is None else row_ids.size
    for first in range(0, count, PAIR_BLOCK):
        block = slice(first, min(first + PAIR_BLOCK, count))
        # Without row ids the pairs are the matrix's rows in order, whose
        # statistics are read as a slice, not gathered.
        rows = block if row_ids is None else row_ids[block]
        queries = None if query_index is None else query_index[block]
        # One query's statistics and threshold are scalars, a batch's per pair.
        at = 0 if queries is None else queries
        if epsilons is None:
            survivors = np.arange(block.stop - first)
        else:
            bounds = np.square(epsilons[at]) * (1.0 + _PRUNE_SLACK) + 1e-12
            if include_stats:
                totals = (means[rows] - query_means[at]) ** 2 + (stds[rows] - query_stds[at]) ** 2
            else:
                totals = np.zeros(block.stop - first, dtype=np.float64)
            survivors = (totals <= bounds).nonzero()[0]
            totals = totals[survivors]
            if queries is not None:
                queries, bounds = queries[survivors], bounds[survivors]
        positions = survivors + first
        rows = positions if row_ids is None else rows[survivors]
        if epsilons is not None and positions.size * width > PAIR_BLOCK:
            positions, rows, queries = _abandon(
                coefficients, lengths, query_matrix, query_lengths,
                positions, rows, queries, totals, bounds)
        widths = np.minimum(query_lengths[0 if queries is None else queries],
                            coefficients.shape[1])
        for pairs, columns in _exact_slices(widths, rows.size, query_matrix.shape[0] > 1):
            distances = gathered_pair_distances(
                coefficients, lengths, means, stds, include_stats, rows[pairs],
                query_matrix[:, :columns], query_lengths, query_means, query_stds,
                None if queries is None else queries[pairs])
            keep = (slice(None) if epsilons is None
                    else distances <= epsilons[0 if queries is None else queries[pairs]])
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


def pair_block_distances(coefficients: np.ndarray, lengths: np.ndarray,
                         means: np.ndarray, stds: np.ndarray,
                         include_stats: bool, first: int, last: int, *,
                         epsilon: float | None = None
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pair kernel: ``(left, right, distances)`` of one block of the
    self-join's condensed pair order (see :func:`pair_blocks`).

    The block's pairs go to :func:`verify_pairs` with the relation as its
    own query matrix, row ``right`` against anchor ``left``.  Without
    ``epsilon`` every pair of the block is scored and returned; with one,
    only the pairs within it.  Either way each pair is scored exactly as
    ``exact_distances`` scores row ``right`` against the record of row
    ``left``: the same reduction over the same ``lengths[left]`` columns, so
    distances are bit-identical to the per-anchor computation on uniform and
    ragged relations alike.
    """
    left, right = _pair_rows(coefficients.shape[0], first, last)
    epsilons = None if epsilon is None else np.broadcast_to(float(epsilon), lengths.shape)
    positions, distances = verify_pairs(coefficients, lengths, means, stds, include_stats,
                                        right, coefficients, lengths, means, stds, left,
                                        epsilons)
    return left[positions], right[positions], distances


def pairwise_distances(coefficients: np.ndarray, lengths: np.ndarray,
                       means: np.ndarray, stds: np.ndarray,
                       include_stats: bool, *,
                       row_ids: Sequence[int] | np.ndarray | None = None
                       ) -> np.ndarray:
    """Condensed upper-triangle distance vector over rows (or ``row_ids``).

    Backs the statistics sampler, the advisor and Table 1's threshold
    sample: the pair kernel without a threshold, block by block, so sampling
    shares the join's kernel instead of a loop of its own.
    """
    if row_ids is not None:
        row_ids = np.asarray(row_ids, dtype=np.intp)
        coefficients = coefficients[row_ids]
        lengths = lengths[row_ids]
        means = means[row_ids]
        stds = stds[row_ids]
    count = coefficients.shape[0]
    condensed = np.empty(count * (count - 1) // 2, dtype=np.float64)
    for first, last in pair_blocks(count):
        condensed[first:last] = pair_block_distances(
            coefficients, lengths, means, stds, include_stats, first, last)[2]
    return condensed
