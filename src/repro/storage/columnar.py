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

* :func:`exact_distances` — one query against many rows, with the
  common-prefix semantics of
  :func:`~repro.timeseries.features.record_distance` (and bit-identical
  results on equal-length data: both reduce with ``np.sum`` over the same
  values in the same order);
* :func:`early_abandon_candidates` — chunked cumulative partial sums with
  mask-and-refine compaction: rows whose running sum clearly exceeds the
  threshold are dropped after each coefficient chunk, mirroring the
  classic early-abandon scan but over whole array blocks.  Pruning is
  *conservative* (a tiny slack keeps borderline rows alive), so the
  surviving rows are re-scored by :func:`exact_distances` and the answers
  are exactly those of the non-abandoning path;
* :func:`gathered_pair_distances` — the exact scorer under both abandoning
  pair kernels: arbitrary (row, query) pairs scored in one call, which the
  kernels below hand their survivors to in slices of at most
  :data:`PAIR_BLOCK` coefficients;
* :func:`verify_pairs` — **candidate verification** for the k-index, a
  single probe being a batch of one: flat (row, query) pairs taken
  :data:`PAIR_BLOCK` at a time, abandoned chunk by chunk against each
  query's own threshold, and only the survivors scored exactly —
  bit-identical to scoring every candidate with
  :func:`gathered_pair_distances`;
* :func:`pair_block_distances` — the **pair kernel** behind every scan-side
  pair computation (both scan methods of the self-join, and
  :func:`pairwise_distances` for the statistics sampler, the advisor and
  threshold samples): one block of the flat "every anchor against the rows
  after it" pair order at a time — the same abandoning rounds run over
  ``(left, right)`` index arrays, every survivor re-scored through
  :func:`gathered_pair_distances` in slices, bit-identical to one
  :func:`exact_distances` call per anchor, with no temporary larger than
  :data:`PAIR_BLOCK` allows;
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
from typing import Any, Iterable, Sequence

import numpy as np

from ..core.errors import DimensionMismatchError

__all__ = [
    "ColumnarRecordStore",
    "exact_distances",
    "early_abandon_candidates",
    "gathered_pair_distances",
    "pair_blocks",
    "pair_block_distances",
    "pairwise_distances",
    "transform_full_record",
    "verify_pairs",
]

#: Coefficient columns consumed per early-abandon round.  The DFT
#: concentrates energy in the first coefficients, so most non-answers are
#: dropped after the first chunk or two.
ABANDON_CHUNK = 8

#: Relative slack applied to the early-abandon threshold so pruning stays
#: conservative under floating-point reassociation: a row is only dropped
#: when its partial sum *clearly* exceeds the limit, and every survivor is
#: re-scored exactly — so abandoning changes timing, never answers.
_PRUNE_SLACK = 1e-9

#: Pairs per block of the pair kernel — at once its memory bound (a pruning
#: round gathers at most ``PAIR_BLOCK * ABANDON_CHUNK`` coefficients, 1 MB,
#: and the exact pass ``PAIR_BLOCK`` coefficients a slice, 128 KB), the scan
#: join's cancellation seam and the unit it fans across workers.
PAIR_BLOCK = 8192


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

        An *empty* store takes a matrix that owns its memory over instead of
        copying it — the caller must not write to it afterwards (the store
        never does: it only appends, and growing reallocates).  Loading a
        relation therefore never holds its spectra twice: a second
        relation-sized block, freed a moment later, is what the allocator
        keeps resident or not from one run to the next.
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
        if start == 0 and flags.owndata and flags.writeable and flags.c_contiguous:
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
            grown = np.zeros((new_capacity, new_width), dtype=np.complex128)
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
def _coefficient_sums(coefficients: np.ndarray, lengths: np.ndarray,
                      query_coefficients: np.ndarray, query_length: int
                      ) -> np.ndarray:
    """Sum of squared coefficient differences over each row's common prefix."""
    width = coefficients.shape[1]
    columns = min(width, query_length)
    if columns == 0:
        return np.zeros(coefficients.shape[0], dtype=np.float64)
    squared = np.abs(coefficients[:, :columns]
                     - query_coefficients[:columns]) ** 2
    common = np.minimum(lengths, query_length)
    if np.all(common == columns):
        return np.sum(squared, axis=1)
    mask = np.arange(columns)[None, :] < common[:, None]
    return np.sum(np.where(mask, squared, 0.0), axis=1)


def exact_distances(coefficients: np.ndarray, lengths: np.ndarray,
                    means: np.ndarray, stds: np.ndarray,
                    query_coefficients: np.ndarray, query_mean: float,
                    query_std: float, include_stats: bool, *,
                    row_ids: np.ndarray | None = None) -> np.ndarray:
    """Exact record distances of many rows to one query record.

    The common-prefix semantics (and, on equal-length data, the bit pattern)
    of :func:`~repro.timeseries.features.record_distance`, evaluated for all
    rows — or the gathered ``row_ids`` — in one kernel call.
    """
    if row_ids is not None:
        coefficients = coefficients[row_ids]
        lengths = lengths[row_ids]
        means = means[row_ids]
        stds = stds[row_ids]
    totals = _coefficient_sums(coefficients, lengths,
                               np.asarray(query_coefficients), len(query_coefficients))
    if include_stats:
        totals = totals + ((means - query_mean) ** 2 + (stds - query_std) ** 2)
    return np.sqrt(totals)


def early_abandon_candidates(coefficients: np.ndarray, lengths: np.ndarray,
                             means: np.ndarray, stds: np.ndarray,
                             query_coefficients: np.ndarray, query_mean: float,
                             query_std: float, include_stats: bool,
                             epsilon: float, *,
                             chunk: int = ABANDON_CHUNK) -> np.ndarray:
    """Row indices surviving a vectorized early-abandoning scan.

    Accumulates squared differences chunkwise (statistics terms first, then
    coefficients from the lowest frequency up — largest contributions first,
    which is what makes abandoning effective), dropping rows whose running
    sum clearly exceeds ``epsilon**2`` after each chunk and compacting the
    active set.  Pruned rows are *guaranteed* non-answers (partial sums only
    grow and a small slack absorbs float reassociation), so callers re-score
    only the survivors with :func:`exact_distances`.
    """
    count = coefficients.shape[0]
    if count == 0:
        return np.zeros(0, dtype=np.intp)
    limit = float(epsilon) ** 2
    bound = limit * (1.0 + _PRUNE_SLACK) + 1e-12
    if include_stats:
        totals = (means - query_mean) ** 2 + (stds - query_std) ** 2
    else:
        totals = np.zeros(count, dtype=np.float64)
    active = np.nonzero(totals <= bound)[0]
    totals = totals[active]
    query_coefficients = np.asarray(query_coefficients)
    columns = min(coefficients.shape[1], len(query_coefficients))
    common = np.minimum(lengths, len(query_coefficients))
    ragged = not np.all(common == columns)
    for start in range(0, columns, chunk):
        if active.size == 0:
            break
        stop = min(start + chunk, columns)
        squared = np.abs(coefficients[active, start:stop]
                         - query_coefficients[start:stop]) ** 2
        if ragged:
            mask = np.arange(start, stop)[None, :] < common[active][:, None]
            squared = np.where(mask, squared, 0.0)
        totals = totals + np.sum(squared, axis=1)
        alive = totals <= bound
        if not alive.all():
            active = active[alive]
            totals = totals[alive]
    return active


def gathered_pair_distances(coefficients: np.ndarray, lengths: np.ndarray,
                            means: np.ndarray, stds: np.ndarray,
                            include_stats: bool, row_ids: np.ndarray,
                            query_matrix: np.ndarray, query_lengths: np.ndarray,
                            query_means: np.ndarray, query_stds: np.ndarray,
                            query_index: np.ndarray) -> np.ndarray:
    """One exact distance per (stored row, query) pair, in a single pass.

    ``row_ids[t]`` names the stored record and ``query_index[t]`` the row of
    the stacked query arrays it is verified against.  It holds a full row
    per pair, so the abandoning kernels (:func:`verify_pairs`,
    :func:`pair_block_distances`) call it on their survivors in slices of
    at most :data:`PAIR_BLOCK` coefficients.
    """
    if row_ids.size == 0:
        return np.zeros(0, dtype=np.float64)
    columns = min(coefficients.shape[1], query_matrix.shape[1])
    gathered = coefficients[row_ids, :columns]
    queries = query_matrix[query_index, :columns]
    squared = np.abs(gathered - queries) ** 2
    common = np.minimum(lengths[row_ids], query_lengths[query_index])
    if np.all(common == columns):
        totals = np.sum(squared, axis=1)
    else:
        mask = np.arange(columns)[None, :] < common[:, None]
        totals = np.sum(np.where(mask, squared, 0.0), axis=1)
    if include_stats:
        totals = totals + ((means[row_ids] - query_means[query_index]) ** 2
                           + (stds[row_ids] - query_stds[query_index]) ** 2)
    return np.sqrt(totals)


def verify_pairs(coefficients: np.ndarray, lengths: np.ndarray,
                 means: np.ndarray, stds: np.ndarray, include_stats: bool,
                 row_ids: np.ndarray, query_matrix: np.ndarray,
                 query_lengths: np.ndarray, query_means: np.ndarray,
                 query_stds: np.ndarray, query_index: np.ndarray,
                 epsilons: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidate verification: ``(positions, distances)`` of the (stored row,
    query) pairs whose exact distance is within their query's epsilon.

    The pairs are those of :func:`gathered_pair_distances` — ``row_ids[t]``
    against row ``query_index[t]`` of the stacked query arrays, and
    ``epsilons[q]`` is query ``q``'s threshold — taken :data:`PAIR_BLOCK` at a
    time.  A block is first abandoned in rounds like the pair kernel's (the
    statistics term, then :data:`ABANDON_CHUNK` coefficient columns at a
    time, each gathered from the two matrices), and only its survivors are
    scored exactly, by :func:`gathered_pair_distances` in slices of at most
    ``PAIR_BLOCK`` coefficients — the same reduction over the same columns as
    one call over every pair, so distances are bit-identical to it.

    ``positions`` index the pair arrays, ascending; no temporary is sized by
    the number of pairs or of survivors.
    """
    found: list[tuple[np.ndarray, np.ndarray]] = []
    width = min(coefficients.shape[1], query_matrix.shape[1])
    piece = max(1, PAIR_BLOCK // max(1, width))
    limits = epsilons ** 2 * (1.0 + _PRUNE_SLACK) + 1e-12
    for first in range(0, row_ids.size, PAIR_BLOCK):
        rows = row_ids[first:first + PAIR_BLOCK]
        queries = query_index[first:first + PAIR_BLOCK]
        if include_stats:
            totals = (means[rows] - query_means[queries]) ** 2 \
                + (stds[rows] - query_stds[queries]) ** 2
        else:
            totals = np.zeros(rows.size, dtype=np.float64)
        bounds = limits[queries]
        survivors = np.nonzero(totals <= bounds)[0]
        rows, queries = rows[survivors], queries[survivors]
        # A round costs about what scoring its pairs outright would, so
        # rounds run only while the survivors' remaining columns overflow
        # one exact slice (a probe with few candidates runs none).
        if survivors.size * width > PAIR_BLOCK:
            totals, bounds = totals[survivors], bounds[survivors]
            common = np.minimum(lengths[rows], query_lengths[queries])
            columns = int(common.max())
            ragged = not np.all(common == columns)
            for start in range(0, columns, ABANDON_CHUNK):
                if survivors.size * (columns - start) <= PAIR_BLOCK:
                    break
                stop = min(start + ABANDON_CHUNK, columns)
                difference = coefficients[rows, start:stop]
                difference -= query_matrix[queries, start:stop]
                if ragged:
                    difference[np.arange(start, stop) >= common[:, None]] = 0.0
                parts = difference.view(np.float64)
                totals += np.einsum("ij,ij->i", parts, parts)
                alive = totals <= bounds
                if not alive.all():
                    survivors, rows, queries = survivors[alive], rows[alive], queries[alive]
                    common, totals, bounds = common[alive], totals[alive], bounds[alive]
        for start in range(0, survivors.size, piece):
            pairs = slice(start, start + piece)
            distances = gathered_pair_distances(
                coefficients, lengths, means, stds, include_stats, rows[pairs],
                query_matrix, query_lengths, query_means, query_stds, queries[pairs])
            keep = distances <= epsilons[queries[pairs]]
            found.append((first + survivors[pairs][keep], distances[keep]))
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

    Without ``epsilon`` every pair of the block is scored.  With one, pairs
    are first abandoned by the rounds of :func:`early_abandon_candidates`
    run over the flat pair arrays — statistics terms, then
    :data:`ABANDON_CHUNK` coefficient columns at a time against the same
    conservative bound, compacting ``left`` / ``right`` / totals together —
    and only the survivors (a superset of the pairs within ``epsilon``) are
    returned.  A round's partial sums only have to stay within the bound's
    slack of the exact ones, so they add squared real and imaginary parts
    directly instead of squaring a complex modulus.

    Either way each returned pair is scored exactly as ``exact_distances``
    scores row ``right`` against the record of row ``left``: the same
    reduction over the same ``lengths[left]`` columns, so distances are
    bit-identical to the per-anchor computation on uniform and ragged
    relations alike.

    Every temporary is bounded by :data:`PAIR_BLOCK`, never by the relation
    or the number of survivors: a pruning round gathers at most
    ``PAIR_BLOCK * ABANDON_CHUNK`` coefficients and the exact pass walks the
    survivors in row slices of ``PAIR_BLOCK`` coefficients.
    """
    left, right = _pair_rows(coefficients.shape[0], first, last)
    if epsilon is not None:
        bound = float(epsilon) ** 2 * (1.0 + _PRUNE_SLACK) + 1e-12
        if include_stats:
            totals = (means[right] - means[left]) ** 2 \
                + (stds[right] - stds[left]) ** 2
            alive = totals <= bound
            left, right, totals = left[alive], right[alive], totals[alive]
        else:
            totals = np.zeros(left.size, dtype=np.float64)
        common = np.minimum(lengths[left], lengths[right])
        columns = int(common.max()) if common.size else 0
        ragged = not np.all(common == columns)
        for start in range(0, columns, ABANDON_CHUNK):
            if left.size == 0:
                break
            chunk = coefficients[:, start:min(start + ABANDON_CHUNK, columns)]
            difference = chunk.take(right, axis=0)
            difference -= chunk.take(left, axis=0)
            if ragged:
                beyond = np.arange(start, start + chunk.shape[1]) >= common[:, None]
                difference[beyond] = 0.0
            parts = difference.view(np.float64)
            totals += np.einsum("ij,ij->i", parts, parts)
            alive = totals <= bound
            if not alive.all():
                left, right, totals = left[alive], right[alive], totals[alive]
                common = common[alive]
    distances = np.empty(left.size, dtype=np.float64)
    # exact_distances reduces over min(width, len(anchor)) columns, and the
    # bits of a pairwise sum depend on how many it reduces over — so a slice
    # of the exact pass never spans two anchor lengths.
    anchor_lengths = lengths[left]
    edges = [0, *(np.flatnonzero(np.diff(anchor_lengths)) + 1).tolist(), left.size]
    for run_first, run_last in zip(edges[:-1], edges[1:]):
        if run_first == run_last:
            continue
        columns = int(anchor_lengths[run_first])
        rows = max(1, PAIR_BLOCK // max(1, columns))
        for start in range(run_first, run_last, rows):
            piece = slice(start, min(start + rows, run_last))
            distances[piece] = gathered_pair_distances(
                coefficients, lengths, means, stds, include_stats, right[piece],
                coefficients[:, :columns], lengths, means, stds, left[piece])
    return left, right, distances


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
