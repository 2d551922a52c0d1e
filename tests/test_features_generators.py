"""Tests for feature extraction, the workload generators and the stock archive."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import IndexError_
from repro.core.spaces import PolarSpace, RectangularSpace
from repro.storage.columnar import ColumnarRecordStore
from repro.timeseries import features as features_module
from repro.timeseries.distances import dtw_distance, dynamic_time_warping, normalized_euclidean
from repro.timeseries.features import SeriesFeatureExtractor
from repro.timeseries.generators import (
    noisy_copy,
    opposite_copy,
    random_walk,
    random_walk_collection,
    scaled_shifted_copy,
    seasonal_series,
    trending_series,
    warped_copy,
)
from repro.timeseries.normalform import normalize
from repro.timeseries.series import TimeSeries
from repro.timeseries.stockdata import StockArchiveConfig, bba_ztr_like_pair, make_stock_archive


class TestFeatureExtractor:
    def test_configuration_validation(self):
        with pytest.raises(ValueError):
            SeriesFeatureExtractor(num_coefficients=0)
        with pytest.raises(ValueError):
            SeriesFeatureExtractor(representation="spherical")

    def test_space_shapes(self):
        assert isinstance(SeriesFeatureExtractor(2, "polar").space, PolarSpace)
        assert isinstance(SeriesFeatureExtractor(2, "rectangular").space, RectangularSpace)
        assert SeriesFeatureExtractor(3).space.dimension == 8
        assert SeriesFeatureExtractor(3, include_stats=False).space.dimension == 6

    def test_extract_stats_match_series(self):
        series = TimeSeries(np.arange(32.0))
        features = SeriesFeatureExtractor(2).extract(series)
        assert features.mean == pytest.approx(series.mean())
        assert features.std == pytest.approx(series.std())
        assert features.point[0] == pytest.approx(series.mean())
        assert features.point[1] == pytest.approx(series.std())

    def test_full_coefficients_exclude_dc_term(self):
        series = TimeSeries(np.random.default_rng(71).uniform(0, 10, 16))
        features = SeriesFeatureExtractor(2).extract(series)
        # Coefficients 1 … 8 of 1 … 15: the others are their conjugates.
        assert features.full_coefficients.shape == (8,)
        assert features.length == 15

    def test_full_distance_equals_normal_form_distance_plus_stats(self):
        rng = np.random.default_rng(72)
        a = TimeSeries(rng.uniform(0, 10, 64))
        b = TimeSeries(rng.uniform(0, 10, 64))
        extractor = SeriesFeatureExtractor(2)
        fa, fb = extractor.extract(a), extractor.extract(b)
        expected = np.sqrt(normalized_euclidean(a, b) ** 2
                           + (a.mean() - b.mean()) ** 2 + (a.std() - b.std()) ** 2)
        assert extractor.full_distance(fa, fb) == pytest.approx(expected, rel=1e-9)

    def test_short_series_padding(self):
        series = TimeSeries([1.0, 2.0])
        features = SeriesFeatureExtractor(4).extract(series)
        assert features.point.dimension == 2 + 8

    def test_identical_series_have_identical_points(self):
        series = TimeSeries(np.random.default_rng(73).uniform(0, 5, 32))
        extractor = SeriesFeatureExtractor(3)
        assert extractor.point(series) == extractor.point(TimeSeries(series.values.copy()))


class TestExtractMany:
    """The block kernel behind every load path is ``extract``, bit for bit."""

    @given(seed=st.integers(0, 2**32 - 1),
           lengths=st.lists(st.sampled_from([1, 2, 3, 4, 7, 33, 100, 127, 128]),
                            min_size=0, max_size=40),
           constant=st.sets(st.integers(0, 39)),
           num_coefficients=st.sampled_from([1, 2, 5]),
           representation=st.sampled_from(["polar", "rectangular"]),
           include_stats=st.booleans(), chunk=st.sampled_from([1, 3, 512]))
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_the_per_series_loop(self, seed, lengths, constant,
                                            num_coefficients, representation,
                                            include_stats, chunk):
        """Ragged lengths (shorter than the prefix included: zero-padded),
        constant series (``std == 0``), batches crossing the chunk size."""
        rng = np.random.default_rng(seed)
        batch = [TimeSeries(np.full(length, rng.normal()) if row in constant
                            else rng.normal(scale=30.0, size=length).cumsum())
                 for row, length in enumerate(lengths)]
        extractor = SeriesFeatureExtractor(num_coefficients, representation,
                                           include_stats)
        original = features_module.EXTRACT_CHUNK_ROWS
        features_module.EXTRACT_CHUNK_ROWS = chunk
        try:
            points, coefficients, counts, means, stds = extractor.extract_many(batch)
        finally:
            features_module.EXTRACT_CHUNK_ROWS = original
        singles = [extractor.extract(series) for series in batch]
        assert points.shape == (len(batch), extractor.space.dimension)
        assert coefficients.shape == (
            len(batch), max((len(one.full_coefficients) for one in singles), default=0))
        for row, one in enumerate(singles):
            size = len(one.full_coefficients)
            assert counts[row] == one.length == len(batch[row]) - 1
            assert size == len(batch[row]) // 2
            assert np.array_equal(points[row], one.point.values)
            assert np.array_equal(coefficients[row, :size], one.full_coefficients)
            assert not coefficients[row, size:].any()
            assert (means[row], stds[row]) == (one.mean, one.std)

    def test_the_store_loads_through_the_same_kernel(self):
        data = random_walk_collection(9, 48, seed=3) + random_walk_collection(4, 20, seed=4)
        store = ColumnarRecordStore()
        store.extend(data[:5])
        assert store.append(data[5]) == 5
        store.extend(data[6:])
        extractor = SeriesFeatureExtractor()
        for record, series in enumerate(data):
            coefficients, mean, std, length = store.full_record(record)
            one = extractor.extract(series)
            assert np.array_equal(coefficients, one.full_coefficients)
            assert (mean, std, length) == (one.mean, one.std, one.length)

    def test_a_non_series_is_named_and_nothing_is_stored(self):
        data = random_walk_collection(3, 16, seed=5)
        with pytest.raises(IndexError_, match="'oops' is not a time series"):
            SeriesFeatureExtractor().extract_many(data + ["oops"])
        store = ColumnarRecordStore()
        with pytest.raises(IndexError_, match="not a time series"):
            store.extend(data + [object()])
        assert len(store) == 0


class TestGenerators:
    def test_random_walk_respects_bounds(self):
        series = random_walk(100, seed=1)
        assert len(series) == 100
        steps = np.diff(series.values)
        assert np.all(np.abs(steps) <= 4.0 + 1e-9)
        assert 20.0 <= series.values[0] <= 99.0

    def test_random_walk_reproducible(self):
        assert np.allclose(random_walk(50, seed=5).values, random_walk(50, seed=5).values)
        assert not np.allclose(random_walk(50, seed=5).values, random_walk(50, seed=6).values)

    def test_random_walk_rejects_bad_length(self):
        with pytest.raises(ValueError):
            random_walk(0)

    def test_collection(self):
        collection = random_walk_collection(10, 32, seed=3)
        assert len(collection) == 10
        assert all(len(series) == 32 for series in collection)
        assert len({series.name for series in collection}) == 10

    def test_trending_and_seasonal(self):
        trend = trending_series(100, slope=0.5, noise=0.0, seed=1)
        assert trend.values[-1] > trend.values[0]
        season = seasonal_series(100, period=20, noise=0.0, seed=1)
        assert season.values.max() <= 50 + 5 + 1e-9

    def test_noisy_copy_is_close(self):
        base = random_walk(64, seed=9)
        copy = noisy_copy(base, noise=0.1, seed=10)
        assert base.euclidean_distance(copy) < 0.1 * np.sqrt(64) * 4

    def test_opposite_copy_negatively_correlated(self):
        base = random_walk(128, seed=11)
        opposite = opposite_copy(base, noise=0.1, seed=12)
        correlation = np.corrcoef(base.values, opposite.values)[0, 1]
        assert correlation < -0.9

    def test_scaled_shifted_copy_has_same_normal_form(self):
        base = random_walk(64, seed=13)
        copy = scaled_shifted_copy(base, scale=2.5, shift=-4.0, noise=0.0)
        assert np.allclose(normalize(base).series.values,
                           normalize(copy).series.values, atol=1e-9)

    def test_warped_copy_length(self):
        base = random_walk(16, seed=14)
        assert len(warped_copy(base, 3)) == 48


class TestStockArchive:
    def test_shape_and_determinism(self):
        config = StockArchiveConfig(num_series=60, length=64)
        archive = make_stock_archive(config)
        again = make_stock_archive(config)
        assert len(archive) == 60
        assert all(len(series) == 64 for series in archive)
        assert all(np.allclose(a.values, b.values) for a, b in zip(archive, again))

    def test_prices_positive(self):
        archive = make_stock_archive(StockArchiveConfig(num_series=40, length=64))
        assert all(np.all(series.values > 0) for series in archive)

    def test_planted_similar_pairs_are_close_after_normalisation(self):
        config = StockArchiveConfig(num_series=60, length=128, planted_similar_pairs=4,
                                    planted_opposite_pairs=2)
        archive = make_stock_archive(config)
        unrelated = normalized_euclidean(archive[-1], archive[-2])
        planted = normalized_euclidean(archive[0], archive[1])
        assert planted < unrelated

    def test_planted_opposite_pairs_anticorrelated(self):
        config = StockArchiveConfig(num_series=60, length=128, planted_similar_pairs=4,
                                    planted_opposite_pairs=2)
        archive = make_stock_archive(config)
        first_opposite = 2 * config.planted_similar_pairs
        a, b = archive[first_opposite], archive[first_opposite + 1]
        assert np.corrcoef(a.values, b.values)[0, 1] < -0.5

    def test_too_many_planted_pairs_rejected(self):
        with pytest.raises(ValueError):
            make_stock_archive(StockArchiveConfig(num_series=5, planted_similar_pairs=4,
                                                  planted_opposite_pairs=4))

    def test_bba_ztr_like_pair_statistics(self):
        bba, ztr = bba_ztr_like_pair()
        assert bba.std() > 5 * ztr.std()
        assert abs(bba.mean() - 9.5) < 1.0
        assert abs(ztr.mean() - 8.64) < 0.5


class TestDTW:
    def test_identical_series_distance_zero(self):
        series = TimeSeries([1.0, 2.0, 3.0])
        assert dtw_distance(series, series) == pytest.approx(0.0)

    def test_warped_series_distance_zero(self):
        base = TimeSeries([1.0, 3.0, 2.0, 5.0])
        warped = TimeSeries(np.repeat(base.values, 2))
        assert dtw_distance(base, warped) == pytest.approx(0.0)

    def test_dtw_not_greater_than_euclidean(self):
        rng = np.random.default_rng(81)
        a = TimeSeries(rng.uniform(0, 10, 32))
        b = TimeSeries(rng.uniform(0, 10, 32))
        assert dtw_distance(a, b) <= a.euclidean_distance(b) + 1e-9

    def test_path_endpoints(self):
        a = TimeSeries([1.0, 2.0, 3.0])
        b = TimeSeries([1.0, 2.0, 2.5, 3.0])
        _, path = dynamic_time_warping(a, b)
        assert path[0] == (0, 0)
        assert path[-1] == (2, 3)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            dtw_distance(np.array([]), np.array([1.0]))
