"""Tests for the sequential-scan baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.index.scan import SequentialScan
from repro.storage.buffer import BufferPool
from repro.storage.columnar import ColumnarRecordStore, transform_full_record
from repro.storage.pages import PageStore, records_per_page
from repro.timeseries.features import SeriesFeatureExtractor
from repro.timeseries.generators import random_walk_collection
from repro.timeseries.transforms import moving_average_spectral


class TestScanQueries:
    def test_early_abandon_equals_full_computation(self, loaded_scan, walk_collection):
        query = walk_collection[0]
        for epsilon in (0.5, 3.0, 10.0):
            fast = loaded_scan.range_query(query, epsilon, early_abandon=True)
            slow = loaded_scan.range_query(query, epsilon, early_abandon=False)
            assert sorted(s.object_id for s, _ in fast.answers) == \
                sorted(s.object_id for s, _ in slow.answers)
            for (_, a), (_, b) in zip(fast.answers, slow.answers):
                assert a == pytest.approx(b)

    def test_epsilon_validation(self, loaded_scan, walk_collection):
        with pytest.raises(ValueError):
            loaded_scan.range_query(walk_collection[0], -1.0)

    def test_join_epsilon_validation(self):
        """The scan plan of a join rejects what the index plan rejects
        (``KIndex.all_pairs``), with the same message and before any I/O."""
        store = PageStore()
        scan = SequentialScan(page_store=store, records_per_page=4)
        scan.extend(random_walk_collection(8, 32, seed=9))
        for early_abandon in (True, False):
            with pytest.raises(ValueError, match="epsilon must be non-negative"):
                scan.all_pairs(-1.0, early_abandon=early_abandon)
        assert store.stats.reads == 0
        with pytest.raises(ValueError, match="epsilon must be non-negative"):
            SequentialScan().all_pairs(-1.0)

    def test_nearest_neighbors_k_validation(self, loaded_scan, walk_collection):
        with pytest.raises(ValueError):
            loaded_scan.nearest_neighbors(walk_collection[0], k=0)

    def test_nearest_neighbors_sorted(self, loaded_scan, walk_collection):
        answers = loaded_scan.nearest_neighbors(walk_collection[1], k=5)
        distances = [d for _, d in answers]
        assert distances == sorted(distances)
        assert answers[0][0].object_id == walk_collection[1].object_id

    def test_all_pairs_counts_unordered_pairs_once(self):
        data = random_walk_collection(20, 32, seed=7)
        scan = SequentialScan()
        scan.extend(data)
        pairs, stats = scan.all_pairs(1e9)
        assert len(pairs) == 20 * 19 // 2
        assert stats.postprocessed == 20 * 19 // 2

    def test_all_pairs_early_abandon_equivalence(self):
        data = random_walk_collection(25, 32, seed=8)
        scan = SequentialScan()
        scan.extend(data)
        smoothing = moving_average_spectral(32, 5)
        fast, _ = scan.all_pairs(3.0, transformation=smoothing, early_abandon=True)
        slow, _ = scan.all_pairs(3.0, transformation=smoothing, early_abandon=False)
        assert {frozenset((a.object_id, b.object_id)) for a, b, _ in fast} == \
            {frozenset((a.object_id, b.object_id)) for a, b, _ in slow}

    def test_transformed_distances_match_full_definition(self, walk_collection):
        """The scan's transformed distance equals the distance between fully
        transformed extractions computed from scratch."""
        extractor = SeriesFeatureExtractor(2)
        scan = SequentialScan(extractor)
        scan.extend(walk_collection[:10])
        smoothing = moving_average_spectral(64, 10)
        query = walk_collection[0]
        result = scan.range_query(query, 1e9, transformation=smoothing,
                                  early_abandon=False)
        query_features = extractor.extract(query)
        query_record = transform_full_record(
            query_features.full_coefficients, query_features.mean,
            query_features.std, smoothing)
        for series, distance in result.answers:
            features = extractor.extract(series)
            record = transform_full_record(features.full_coefficients,
                                           features.mean, features.std, smoothing)
            expected = np.sqrt(np.sum(np.abs(record[0] - query_record[0]) ** 2)
                               + (record[1] - query_record[1]) ** 2
                               + (record[2] - query_record[2]) ** 2)
            assert distance == pytest.approx(float(expected), rel=1e-9)

    def test_short_transformation_raises_clear_error(self, walk_collection):
        """Regression: a transformation built for a shorter series length
        used to surface as a raw numpy broadcast error mid-scan."""
        from repro.core.errors import DimensionMismatchError
        scan = SequentialScan()
        scan.extend(walk_collection[:5])  # length-64 series
        too_short = moving_average_spectral(16, 4)
        with pytest.raises(DimensionMismatchError, match="spectral coefficients"):
            scan.range_query(walk_collection[0], 1.0, transformation=too_short)

    def test_short_transformation_raises_clear_error_in_kindex(self, walk_collection):
        """The same guard protects the index path's full-record postprocessing."""
        from repro.core.errors import DimensionMismatchError
        from repro.index.kindex import KIndex
        index = KIndex(SeriesFeatureExtractor(2))
        index.extend(walk_collection[:5])
        too_short = moving_average_spectral(16, 4)
        with pytest.raises(DimensionMismatchError, match="spectral coefficients"):
            index.range_query(walk_collection[0], 1.0, transformation=too_short)

    def test_all_pairs_distances_reported_for_answers(self):
        """Regression companion to removing the dead `distance is None and
        threshold is None` branch: every reported pair carries its distance
        and respects the threshold, with and without early abandoning."""
        data = random_walk_collection(15, 32, seed=12)
        scan = SequentialScan()
        scan.extend(data)
        for early_abandon in (True, False):
            pairs, _ = scan.all_pairs(4.0, early_abandon=early_abandon)
            assert all(distance <= 4.0 for _, _, distance in pairs)
            assert all(np.isfinite(distance) for _, _, distance in pairs)

    def test_page_store_charged_per_query(self):
        """Pages are arithmetic: a pass is charged one read per data page
        and the scan allocates nothing from its page store — not over a
        pre-filled store, not when it grows, not when it is queried."""
        data = random_walk_collection(27, 32, seed=9)
        filled = ColumnarRecordStore()
        filled.extend(data[:20])
        store = PageStore()
        scan = SequentialScan(page_store=store, records_per_page=4, store=filled)
        assert scan.data_pages == 5  # 20 records / 4 per page
        assert store.stats.snapshot()["total"] == 0
        scan.extend(data[20:])
        assert scan.data_pages == 7  # the last page holds 3 of its 4 records
        assert store.stats.allocations == 0 and len(store) == 0
        range_work = scan.range_query(data[0], 1.0).statistics
        assert store.stats.reads == 7
        scan.nearest_neighbors(data[0], 3)
        assert store.stats.reads == 14
        _, join_work = scan.all_pairs(1.0)
        assert store.stats.reads == 21
        assert range_work.node_accesses == join_work.node_accesses == 7
        assert store.stats.allocations == 0 and len(store) == 0
        assert scan.last_buffer_io == (0, 0)  # no pool, nothing to hit

    def test_a_pass_is_one_run_and_no_page_reads(self):
        class CountingStore(PageStore):
            def __init__(self):
                super().__init__()
                self.calls = []

            def read(self, page_id):
                self.calls.append(("read", page_id))
                return super().read(page_id)

            def read_run(self, first, stop):
                self.calls.append(("read_run", first, stop))
                super().read_run(first, stop)

        data = random_walk_collection(22, 32, seed=9)
        store = CountingStore()
        scan = SequentialScan(page_store=store, records_per_page=4)
        scan.extend(data)
        scan.range_query(data[0], 1.0)
        scan.nearest_neighbors(data[1], 2)
        scan.all_pairs(1.0)
        assert store.calls == [("read_run", 0, 6)] * 3
        # Behind a pool the scan asks the pool, and the pool the store:
        # one run while everything misses, nothing once it is resident.
        del store.calls[:]
        pooled = SequentialScan(page_store=store, records_per_page=4,
                                store=scan.store, buffer=BufferPool(store, 8))
        cold = pooled.range_query(data[0], 1.0).statistics
        warm = pooled.all_pairs(1.0)[1]
        assert (cold.buffer_hits, cold.buffer_misses) == (0, 6)
        assert (warm.buffer_hits, warm.buffer_misses) == (6, 0)
        assert store.calls == [("read_run", 0, 6)]

    def test_records_per_page_follows_the_first_record(self):
        scan = SequentialScan()
        assert scan.records_per_page == 1 and scan.data_pages == 0
        scan.extend(random_walk_collection(9, 64, seed=3))
        expected = records_per_page(scan.store.record_bytes())
        assert scan.records_per_page == expected
        assert scan.data_pages == -(-9 // expected)
