"""Tests for the sequential-scan baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.index.scan import SequentialScan
from repro.storage.buffer import BufferPool
from repro.storage.columnar import ColumnarRecordStore
from repro.storage.pages import records_per_page
from repro.timeseries.features import SeriesFeatureExtractor
from repro.timeseries.generators import random_walk_collection
from repro.timeseries.transforms import moving_average_spectral
from test_storage import LoggingStore


class TestScanQueries:
    def test_early_abandon_equals_full_computation(self, loaded_scan, walk_collection):
        query = walk_collection[0]
        for epsilon in (0.5, 3.0, 10.0):
            fast = loaded_scan.range_query(query, epsilon, early_abandon=True)
            slow = loaded_scan.range_query(query, epsilon, early_abandon=False)
            assert sorted(s.object_id for s, _ in fast.answers) == sorted(
                s.object_id for s, _ in slow.answers
            )
            for (_, a), (_, b) in zip(fast.answers, slow.answers):
                assert a == pytest.approx(b)

    def test_epsilon_validation(self, loaded_scan, walk_collection):
        with pytest.raises(ValueError):
            loaded_scan.range_query(walk_collection[0], -1.0)

    def test_join_epsilon_validation(self):
        """The scan plan of a join rejects what the index plan rejects
        (``KIndex.all_pairs``), with the same message and before any I/O."""
        store = LoggingStore()
        scan = SequentialScan(buffer=BufferPool(store, 8))
        scan.extend(random_walk_collection(8, 32, seed=9))
        for early_abandon in (True, False):
            with pytest.raises(ValueError, match="epsilon must be non-negative"):
                scan.all_pairs(-1.0, early_abandon=early_abandon)
        assert store.stats.reads == scan.buffer.stats.accesses == 0
        with pytest.raises(ValueError, match="epsilon must be non-negative"):
            SequentialScan().all_pairs(-1.0)

    def test_nearest_neighbors_k_validation(self, loaded_scan, walk_collection):
        with pytest.raises(ValueError):
            loaded_scan.nearest_neighbors(walk_collection[0], k=0)

    def test_nearest_neighbors_sorted(self, loaded_scan, walk_collection):
        answers = loaded_scan.nearest_neighbors(walk_collection[1], k=5).answers
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
        assert {frozenset((a.object_id, b.object_id)) for a, b, _ in fast} == {
            frozenset((a.object_id, b.object_id)) for a, b, _ in slow
        }

    def test_transformed_distances_match_full_definition(self, walk_collection):
        """The scan's transformed distance equals the distance between fully
        transformed extractions computed from scratch."""
        extractor = SeriesFeatureExtractor(2)
        scan = SequentialScan(extractor)
        scan.extend(walk_collection[:10])
        smoothing = moving_average_spectral(64, 10)
        query = walk_collection[0]
        result = scan.range_query(query, 1e9, transformation=smoothing, early_abandon=False)
        def transformed(series):
            """The whole transformed spectrum of the normal form, from scratch."""
            values = series.values
            normal = (values - values.mean()) / values.std()
            spectrum = smoothing.apply_spectrum(np.fft.fft(normal, norm="ortho"))
            return spectrum[1:], values.mean(), values.std()

        query_record = transformed(query)
        for series, distance in result.answers:
            record = transformed(series)
            expected = np.sqrt(
                np.sum(np.abs(record[0] - query_record[0]) ** 2)
                + (record[1] - query_record[1]) ** 2
                + (record[2] - query_record[2]) ** 2
            )
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

    @pytest.mark.parametrize("probe", ["range", "nearest"])
    def test_a_too_long_query_is_named_by_index_and_scan(self, probe):
        """A query longer than the transformation covers is the query's
        fault: the index's paths say so as the scan's do."""
        from repro.core.errors import DimensionMismatchError
        from repro.index.kindex import KIndex

        data = random_walk_collection(50, 64, seed=5)
        transformation = moving_average_spectral(64, 4)
        scan = SequentialScan(SeriesFeatureExtractor(2))
        scan.extend(data)
        owners = (KIndex.bulk_load(data, SeriesFeatureExtractor(2)), scan)
        query = random_walk_collection(1, 128, seed=6)[0]
        for owner in owners:
            run = owner.range_query if probe == "range" else owner.nearest_neighbors
            with pytest.raises(DimensionMismatchError, match="the query has 127"):
                run(query, 1.0 if probe == "range" else 3, transformation=transformation)

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

    def test_a_pass_charges_one_read_per_data_page(self):
        """Pages are arithmetic: a pass reads ``data_pages`` pages — over a
        pre-filled store, after it grows, for every query family — and
        through a pool too small to hit, every one reaches the page store."""
        data = random_walk_collection(27, 64, seed=9)  # four records to a page
        filled = ColumnarRecordStore()
        filled.extend(data[:20])
        plain = SequentialScan(store=filled)
        assert (plain.records_per_page, plain.data_pages) == (4, 5)
        plain.extend(data[20:])
        assert plain.data_pages == 7  # the last page holds 3 of its 4 records
        store = LoggingStore()
        pooled = SequentialScan(store=filled, buffer=BufferPool(store, 1))
        for scan in (plain, pooled):
            range_work = scan.range_query(data[0], 1.0).statistics
            nearest_work = scan.nearest_neighbors(data[0], 3).statistics
            _, join_work = scan.all_pairs(1.0)
            for work in (range_work, nearest_work, join_work):
                assert work.node_accesses == 7
                assert work.buffer_hits == 0
                assert work.buffer_misses == (0 if scan is plain else 7)
        assert store.stats.reads == 21

    def test_a_pass_is_one_run(self):
        """The scan asks its pool for one run a pass, and the pool its store
        for one run while everything misses, nothing once it is resident."""

        class CountingPool(BufferPool):
            def read_run(self, first, stop):
                self.calls.append((first, stop))
                return super().read_run(first, stop)

        data = random_walk_collection(22, 64, seed=9)
        store = LoggingStore()
        pool = CountingPool(store, 8)
        pool.calls = []
        scan = SequentialScan(buffer=pool)
        scan.extend(data)
        cold = scan.range_query(data[0], 1.0).statistics
        nearest = scan.nearest_neighbors(data[1], 2).statistics
        warm = scan.all_pairs(1.0)[1]
        assert pool.calls == [(0, 6)] * 3
        assert (cold.buffer_hits, cold.buffer_misses) == (0, 6)
        assert (nearest.buffer_hits, nearest.buffer_misses) == (6, 0)
        assert (warm.buffer_hits, warm.buffer_misses) == (6, 0)
        assert store.runs == [(0, 6)]

    def test_a_pass_over_an_empty_relation_reads_no_page(self):
        store = LoggingStore()
        scan = SequentialScan(buffer=BufferPool(store, 8))
        assert scan.data_pages == 0
        walk = random_walk_collection(1, 64, seed=9)[0]
        for work in (scan.range_query(walk, 1.0).statistics,
                     scan.nearest_neighbors(walk, 2).statistics,
                     scan.all_pairs(1.0)[1]):
            assert (work.node_accesses, work.buffer_hits, work.buffer_misses) == (0, 0, 0)
        assert store.runs == [] and scan.buffer.stats.accesses == 0

    @pytest.mark.parametrize("outer", ["range", "nearest", "join"])
    def test_interleaved_passes_report_their_own_buffer_counts(self, outer):
        """One scan serves concurrent readers, so a pass that runs while
        another sits between charging its pages and reporting them must not
        hand the other its buffer counts.  The second pass runs inside the
        first — deterministically, from the first's call for its record set."""
        data = random_walk_collection(22, 64, seed=9)
        scan = SequentialScan(buffer=BufferPool(LoggingStore(), 8))
        scan.extend(data)
        passes = {
            "range": lambda: scan.range_query(data[0], 1.0).statistics,
            "nearest": lambda: scan.nearest_neighbors(data[1], 2).statistics,
            "join": lambda: scan.all_pairs(1.0)[1],
        }
        inner = []
        records = scan.store.records

        def interleaved(transformation):
            scan.store.records = records  # the second pass runs plain
            inner.append(passes["nearest" if outer == "range" else "range"]())
            return records(transformation)

        scan.store.records = interleaved
        first = passes[outer]()
        assert len(inner) == 1
        assert (first.buffer_hits, first.buffer_misses) == (0, 6)  # cold pool
        assert (inner[0].buffer_hits, inner[0].buffer_misses) == (6, 0)
        assert first.node_accesses == inner[0].node_accesses == 6

    def test_records_per_page_follows_the_first_record(self):
        scan = SequentialScan()
        assert scan.records_per_page == 1 and scan.data_pages == 0
        scan.extend(random_walk_collection(9, 64, seed=3))
        expected = records_per_page(scan.store.record_bytes())
        assert scan.records_per_page == expected
        assert scan.data_pages == -(-9 // expected)
