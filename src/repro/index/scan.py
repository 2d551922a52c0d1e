"""Sequential-scan baselines for similarity queries.

Every index experiment in the evaluation is compared against scanning the
whole relation.  Two flavours are provided, matching methods (a) and (b) of
the original join experiment:

* a **naive scan** that computes every distance in full, and
* an **optimised scan** that abandons a distance computation as soon as the
  running sum exceeds the threshold — effective because the DFT concentrates
  most of the energy in the first few coefficients, so non-answers are
  rejected after a short prefix.

Both flavours execute as **blockwise kernels** over the relation's
:class:`~repro.storage.columnar.ColumnarRecordStore` — contiguous coefficient
matrices instead of per-record Python tuples — through the one refine kernel,
:func:`~repro.storage.columnar.verify_pairs`: a range query is its span of
rows against the one query, the self-join the flat (anchor, other) pairs of
:func:`~repro.storage.columnar.pair_block_distances`.  Early abandoning is
chunked cumulative partial sums with compaction of the surviving pairs, and
survivors are re-scored exactly, so the two flavours return identical
answers and differ only in work.  Transformation semantics match the
:class:`~repro.index.kindex.KIndex` (the test suite asserts the results are
identical).

With ``workers > 1`` every query fans across **fixed-size row partitions**
(:mod:`repro.storage.partition`) on a shared thread pool — the kernels
release the GIL, so partitions execute on separate cores.  Answers stay
bit-identical to serial execution because the kernels are row-independent
and the merge steps reproduce the serial orders exactly:

* range — per-partition survivors are concatenated in partition order
  (= global row order) and the final stable sort sees the same distances
  in the same sequence as the serial path;
* NN — per-partition stable top-``k`` lists, already ordered by
  ``(distance, global id)``, are combined with a k-way heap merge, which
  is precisely the serial stable argsort's order;
* join — the flat pair order (every anchor against the rows after it) is
  cut into blocks of equal pair count, each block one call of the pair
  kernel, and blocks concatenate in pair order.  The block is the same at
  every worker count — one worker simply runs them in turn — and a pair's
  distance does not depend on which block holds it.

Work counters are unaffected: a scan's counted work (candidates,
postprocessed pairs, data pages) is a function of the relation's size, not
of the partitioning.
"""

from __future__ import annotations

import heapq
import time
from typing import Iterable

import numpy as np

from ..core.parallel import parallel_map, resolve_workers
from ..storage.columnar import (
    ColumnarRecordStore,
    exact_distances,
    pair_block_distances,
    pair_blocks,
    transform_full_record,
    verify_pairs,
)
from ..storage.buffer import BufferPool
from ..storage.pages import records_per_page as page_capacity
from ..storage.partition import DEFAULT_PARTITION_ROWS, partition_spans
from ..timeseries.features import SeriesFeatureExtractor
from ..timeseries.series import TimeSeries
from ..timeseries.transforms import SpectralTransformation
from .kindex import NearestNeighborResult, QueryStatistics, RangeQueryResult

__all__ = ["SequentialScan"]


class SequentialScan:
    """A scan-based evaluator over a relation's columnar record store.

    Parameters
    ----------
    extractor:
        The feature configuration (used for query-side extraction and the
        exact-distance definition; the index prefix itself plays no role in
        scanning).
    store:
        An existing :class:`ColumnarRecordStore` to scan — how the executor
        shares one store per relation between the scan fallback, the
        statistics sampler and (through the database) the index.  Without
        one the scan owns a fresh store filled by :meth:`insert`/:meth:`extend`.
    workers:
        Worker threads for partition-parallel execution (``None``/1 serial,
        0 = all cores).  Answers are bit-identical at any worker count.
    partition_rows:
        Minimum rows per partition for the range/NN fan-out (default
        :data:`~repro.storage.partition.DEFAULT_PARTITION_ROWS`); the join
        fans out by pair blocks instead.
    buffer:
        Optional buffer pool over a page store (a durable relation's mapped
        segments) that the scan charges its passes to.  Pages are
        arithmetic — page ``p`` covers rows ``[p * records_per_page,
        (p + 1) * records_per_page)`` — so one pass is one
        ``buffer.read_run(0, data_pages)``: resident pages are hits, and the
        pool's hit/miss deltas land in each query's statistics.
    """

    def __init__(self, extractor: SeriesFeatureExtractor | None = None, *,
                 store: ColumnarRecordStore | None = None,
                 workers: int | None = None,
                 partition_rows: int | None = None,
                 buffer: BufferPool | None = None) -> None:
        self.extractor = extractor if extractor is not None else SeriesFeatureExtractor()
        self.store = store if store is not None else ColumnarRecordStore()
        self.workers = resolve_workers(workers)
        self.partition_rows = (max(1, int(partition_rows))
                               if partition_rows is not None
                               else DEFAULT_PARTITION_ROWS)
        self.buffer = buffer

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def insert(self, series: TimeSeries) -> None:
        """Add one series to the scanned relation."""
        self.extend([series])

    def extend(self, collection: Iterable[TimeSeries]) -> None:
        """Add every series of a collection (one block extraction, see
        :meth:`ColumnarRecordStore.extend`)."""
        self.store.extend(collection)

    def __len__(self) -> int:
        return len(self.store)

    @property
    def records_per_page(self) -> int:
        """Records per data page, derived from the record size with the
        shared :func:`~repro.storage.pages.records_per_page` arithmetic —
        the same arithmetic the planner's cost model prices scans with and
        a durable relation's page store maps its segments with (1 before
        any record is stored)."""
        if len(self.store) == 0:
            return 1
        return page_capacity(self.store.record_bytes())

    @property
    def data_pages(self) -> int:
        """Data pages one full pass over the relation reads."""
        if len(self.store) == 0:
            return 0
        return -(-len(self.store) // self.records_per_page)

    def _charge_scan_io(self, statistics: QueryStatistics) -> None:
        """A pass reads ``data_pages`` pages; with a buffer pool attached they
        are asked of it as the one run ``[0, data_pages)``, so resident pages
        are hits rather than device reads.  The pass's pages and (hits,
        misses) land in ``statistics``, the pass's own: one scan serves
        concurrent readers, so nothing is kept on the scan."""
        statistics.node_accesses = self.data_pages
        if self.buffer is not None:
            statistics.buffer_hits, statistics.buffer_misses = \
                self.buffer.read_run(0, statistics.node_accesses)

    # ------------------------------------------------------------------
    # query-side helpers
    # ------------------------------------------------------------------
    def _query_record(self, query: TimeSeries,
                      transformation: SpectralTransformation | None,
                      transform_query: bool) -> tuple[np.ndarray, float, float]:
        features = self.extractor.extract(query)
        record = (features.full_coefficients, features.mean, features.std)
        if transformation is not None and transform_query:
            return transform_full_record(*record, transformation, owner="query")
        return record

    def _spans(self, count: int) -> list[tuple[int, int]]:
        """Row spans for the range/NN fan-out; one covering span when serial
        (the partitioned code path *is* the serial code path at one span).

        The per-row kernel work is uniform, so spans are balanced to the
        worker count — at most one span per worker, with ``partition_rows``
        as the minimum span so a tiny relation is not over-fanned.  A busier
        split would cap the speedup below the worker count: five
        partition-sized spans over four workers leave one worker doing two.
        Answers are span-size-independent (the kernels are row-independent
        and the merges preserve row order), so balancing is free.
        """
        if self.workers <= 1:
            return [(0, count)] if count else []
        block = max(self.partition_rows, -(-count // self.workers))
        return partition_spans(count, block)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def range_query(self, query: TimeSeries, epsilon: float, *,
                    transformation: SpectralTransformation | None = None,
                    transform_query: bool = True,
                    early_abandon: bool = True) -> RangeQueryResult:
        """All series within ``epsilon`` of the query (scan of the whole relation)."""
        if not epsilon >= 0:  # NaN too
            raise ValueError("epsilon must be non-negative")
        started = time.perf_counter()
        query_record = self._query_record(query, transformation, transform_query)
        result = RangeQueryResult()
        self._charge_scan_io(result.statistics)
        count = len(self.store)
        if count:
            coefficients, means, stds = self.store.transformed_arrays(transformation)
            lengths = self.store.lengths
            query_coefficients, query_mean, query_std = query_record
            query_side = (query_coefficients[None, :], (query_coefficients.shape[0],),
                          (query_mean,), (query_std,), None,
                          (epsilon,) if early_abandon else None)

            def scan_span(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
                """Kept (global row ids, distances) of one partition, in row
                order — the serial computation restricted to its rows."""
                positions, distances = verify_pairs(
                    coefficients[start:stop], lengths[start:stop], means[start:stop],
                    stds[start:stop], self.extractor.include_stats, None, *query_side)
                keep = distances <= epsilon
                return positions[keep] + start, distances[keep]

            # Partitions concatenate in partition order = global row order,
            # so the stable sort below sees exactly the serial sequence.
            parts = parallel_map(scan_span, self._spans(count),
                                 workers=self.workers)
            ids = np.concatenate([part[0] for part in parts])
            distances = np.concatenate([part[1] for part in parts])
            order = np.argsort(distances, kind="stable")
            result.answers = list(zip(self.store.series_at(ids[order]),
                                      distances[order].tolist()))
        # One sequential pass over the data pages; exact distances come with
        # the pages already read, so no per-candidate record fetches.
        result.statistics.postprocessed = count
        result.statistics.candidates = count
        result.statistics.elapsed_seconds = time.perf_counter() - started
        return result

    def nearest_neighbors(self, query: TimeSeries, k: int = 1, *,
                          transformation: SpectralTransformation | None = None,
                          transform_query: bool = True) -> NearestNeighborResult:
        """The ``k`` nearest series by exhaustive comparison."""
        if k <= 0:
            raise ValueError("k must be positive")
        started = time.perf_counter()
        query_record = self._query_record(query, transformation, transform_query)
        result = NearestNeighborResult()
        self._charge_scan_io(result.statistics)
        count = len(self.store)
        result.statistics.postprocessed = count
        result.statistics.candidates = count
        if count == 0:
            return result
        coefficients, means, stds = self.store.transformed_arrays(transformation)
        lengths = self.store.lengths
        include_stats = self.extractor.include_stats

        def nearest_in_span(start: int, stop: int) -> list[tuple[float, int]]:
            """A partition's stable top-``k`` as (distance, global id) pairs
            in ascending order — every global answer is in its partition's
            top-``k``, so merging these lists loses nothing."""
            distances = exact_distances(coefficients, lengths, means, stds, *query_record,
                                        include_stats, row_ids=np.arange(start, stop))
            order = np.argsort(distances, kind="stable")[:k]
            return [(float(distances[i]), start + int(i)) for i in order]

        # Each partition list is ordered by (distance, global id) — stable
        # argsort breaks ties by ascending local row — so the k-way heap
        # merge reproduces the serial stable argsort's order exactly.
        parts = parallel_map(nearest_in_span, self._spans(count),
                             workers=self.workers)
        merged = heapq.merge(*parts)
        result.answers = [(self.store.series(row_id), distance)
                          for distance, row_id in list(merged)[:k]]
        result.statistics.elapsed_seconds = time.perf_counter() - started
        return result

    def all_pairs(self, epsilon: float, *,
                  transformation: SpectralTransformation | None = None,
                  early_abandon: bool = True
                  ) -> tuple[list[tuple[TimeSeries, TimeSeries, float]], QueryStatistics]:
        """Self-join by nested scanning: unordered pairs within ``epsilon``.

        ``early_abandon=False`` reproduces method (a) of the join experiment
        (every distance computed in full); ``True`` reproduces method (b).
        Each unordered pair appears once, as in the original's accounting for
        those two methods.  Both run the pair kernel
        (:func:`~repro.storage.columnar.pair_block_distances`) over blocks
        of the flat (anchor, other) pair order — method (a) without a
        threshold, method (b) abandoning against ``epsilon`` — and keep the
        pairs whose exact distance is within it.
        """
        if not epsilon >= 0:  # NaN too
            raise ValueError("epsilon must be non-negative")
        started = time.perf_counter()
        stats = QueryStatistics()
        count = len(self.store)
        pairs: list[tuple[TimeSeries, TimeSeries, float]] = []
        self._charge_scan_io(stats)
        if count:
            coefficients, means, stds = self.store.transformed_arrays(transformation)
            lengths = self.store.lengths
            include_stats = self.extractor.include_stats
            series = self.store.series_list()

            def join_block(first: int, last: int
                           ) -> list[tuple[TimeSeries, TimeSeries, float]]:
                """The qualifying pairs of one block, in pair order."""
                left, right, distances = pair_block_distances(
                    coefficients, lengths, means, stds, include_stats,
                    first, last, epsilon=epsilon if early_abandon else None)
                keep = distances <= epsilon
                return [(series[anchor], series[other], distance)
                        for anchor, other, distance
                        in zip(left[keep].tolist(), right[keep].tolist(),
                               distances[keep].tolist())]

            # One block is one task, and parallel_map polls the cancellation
            # token before every task: a running join stops within a block.
            # Blocks concatenate in pair order, so the list is the serial one.
            for block in parallel_map(join_block, pair_blocks(count),
                                      workers=self.workers):
                pairs.extend(block)
        stats.postprocessed = count * (count - 1) // 2
        stats.candidates = stats.postprocessed
        stats.elapsed_seconds = time.perf_counter() - started
        return pairs, stats
