"""Identity suite: the vectorized kernels against a per-record reference.

The columnar refactor deleted the per-record Python hot paths from the
engine; this suite retains them *here* — as an obviously-correct reference
implementation — and asserts that every vectorized path (scan range/NN/join,
k-index verification single and batched, metric-index screening) returns the
same answer ids **and the same distances**, including under spectral
transformations, on the polar (periodic-angle) layout, and on ragged
relations of mixed series lengths.  Statistics counters must also stay exact
under batching: a batched query reports the same per-query candidate /
postprocessed / record-fetch counts as running it alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.index.kindex import KIndex
from repro.index.metric import MetricIndex
from repro.index.scan import SequentialScan
from repro.storage.columnar import transform_full_record
from repro.timeseries.features import SeriesFeatureExtractor
from repro.timeseries.generators import make_rng, random_walk, random_walk_collection
from repro.timeseries.transforms import moving_average_spectral, scale_spectral


# ----------------------------------------------------------------------
# the reference implementation (per-record, kept in tests only)
# ----------------------------------------------------------------------
def reference_record(extractor, series, transformation=None):
    features = extractor.extract(series)
    record = (features.full_coefficients, features.mean, features.std)
    if transformation is not None:
        record = transform_full_record(*record, transformation)
    return record


def reference_distance(a, b, include_stats):
    common = min(a[0].shape[0], b[0].shape[0])
    total = float(np.sum(np.abs(a[0][:common] - b[0][:common]) ** 2))
    if include_stats:
        total += (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2
    return float(np.sqrt(total))


def reference_scan_range(extractor, data, query, epsilon, transformation=None,
                         transform_query=True):
    query_record = reference_record(
        extractor, query, transformation if transform_query else None)
    answers = []
    for series in data:
        record = reference_record(extractor, series, transformation)
        distance = reference_distance(record, query_record,
                                      extractor.include_stats)
        if distance <= epsilon:
            answers.append((series, distance))
    answers.sort(key=lambda pair: pair[1])
    return answers


def reference_nearest(extractor, data, query, k, transformation=None):
    query_record = reference_record(extractor, query, transformation)
    scored = []
    for series in data:
        record = reference_record(extractor, series, transformation)
        scored.append((series, reference_distance(record, query_record,
                                                  extractor.include_stats)))
    scored.sort(key=lambda pair: pair[1])
    return scored[:k]


def reference_join(extractor, data, epsilon, transformation=None):
    records = [reference_record(extractor, series, transformation)
               for series in data]
    pairs = []
    for i in range(len(data)):
        for j in range(i + 1, len(data)):
            distance = reference_distance(records[i], records[j],
                                          extractor.include_stats)
            if distance <= epsilon:
                pairs.append((data[i], data[j], distance))
    return pairs


def ids(answers):
    return [series.object_id for series, _ in answers]


def distances(answers):
    return [distance for _, distance in answers]


def assert_same_answers(actual, expected, *, exact=True):
    assert ids(actual) == ids(expected)
    if exact:
        assert distances(actual) == distances(expected)
    else:
        assert distances(actual) == pytest.approx(distances(expected),
                                                  rel=1e-9, abs=1e-12)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def walks():
    return random_walk_collection(60, 64, seed=41)


@pytest.fixture(scope="module")
def ragged_walks():
    rng = make_rng(43)
    return [random_walk(int(length), seed=rng)
            for length in rng.integers(24, 64, size=40)]


@pytest.fixture(scope="module")
def mavg():
    return moving_average_spectral(64, 8)


# ----------------------------------------------------------------------
# sequential scan
# ----------------------------------------------------------------------
class TestScanIdentity:
    @pytest.mark.parametrize("early_abandon", [True, False])
    @pytest.mark.parametrize("epsilon", [0.5, 3.0, 8.0, 1e9])
    def test_range_matches_reference(self, walks, epsilon, early_abandon):
        scan = SequentialScan()
        scan.extend(walks)
        result = scan.range_query(walks[3], epsilon, early_abandon=early_abandon)
        expected = reference_scan_range(scan.extractor, walks, walks[3], epsilon)
        assert_same_answers(result.answers, expected)

    @pytest.mark.parametrize("early_abandon", [True, False])
    def test_transformed_range_matches_reference(self, walks, mavg, early_abandon):
        scan = SequentialScan()
        scan.extend(walks)
        result = scan.range_query(walks[0], 4.0, transformation=mavg,
                                  early_abandon=early_abandon)
        expected = reference_scan_range(scan.extractor, walks, walks[0], 4.0,
                                        transformation=mavg)
        assert_same_answers(result.answers, expected)

    def test_untransformed_query_side(self, walks, mavg):
        scan = SequentialScan()
        scan.extend(walks)
        result = scan.range_query(walks[0], 6.0, transformation=mavg,
                                  transform_query=False)
        expected = reference_scan_range(scan.extractor, walks, walks[0], 6.0,
                                        transformation=mavg,
                                        transform_query=False)
        assert_same_answers(result.answers, expected)

    def test_without_stats_dimensions(self, walks):
        extractor = SeriesFeatureExtractor(2, include_stats=False)
        scan = SequentialScan(extractor)
        scan.extend(walks)
        result = scan.range_query(walks[5], 3.0)
        expected = reference_scan_range(extractor, walks, walks[5], 3.0)
        assert_same_answers(result.answers, expected)

    def test_ragged_lengths_match_reference(self, ragged_walks):
        scan = SequentialScan()
        scan.extend(ragged_walks)
        for epsilon in (1.0, 5.0, 1e9):
            result = scan.range_query(ragged_walks[1], epsilon)
            expected = reference_scan_range(scan.extractor, ragged_walks,
                                            ragged_walks[1], epsilon)
            assert_same_answers(result.answers, expected, exact=False)

    def test_nearest_matches_reference(self, walks):
        scan = SequentialScan()
        scan.extend(walks)
        answers = scan.nearest_neighbors(walks[7], k=5)
        expected = reference_nearest(scan.extractor, walks, walks[7], 5)
        assert_same_answers(answers, expected)

    def test_transformed_nearest_matches_reference(self, walks, mavg):
        scan = SequentialScan()
        scan.extend(walks)
        answers = scan.nearest_neighbors(walks[2], k=4, transformation=mavg)
        expected = reference_nearest(scan.extractor, walks, walks[2], 4,
                                     transformation=mavg)
        assert_same_answers(answers, expected)

    @pytest.mark.parametrize("early_abandon", [True, False])
    def test_join_matches_reference(self, walks, mavg, early_abandon):
        scan = SequentialScan()
        scan.extend(walks[:30])
        pairs, stats = scan.all_pairs(4.0, transformation=mavg,
                                      early_abandon=early_abandon)
        expected = reference_join(scan.extractor, walks[:30], 4.0,
                                  transformation=mavg)
        assert [(a.object_id, b.object_id) for a, b, _ in pairs] == \
            [(a.object_id, b.object_id) for a, b, _ in expected]
        assert [d for _, _, d in pairs] == [d for _, _, d in expected]
        assert stats.postprocessed == 30 * 29 // 2


# ----------------------------------------------------------------------
# k-index
# ----------------------------------------------------------------------
class TestKIndexIdentity:
    @pytest.mark.parametrize("representation", ["polar", "rectangular"])
    def test_range_matches_reference(self, walks, representation):
        extractor = SeriesFeatureExtractor(2, representation=representation)
        index = KIndex(extractor)
        index.extend(walks)
        for epsilon in (0.5, 3.0, 8.0):
            result = index.range_query(walks[4], epsilon)
            expected = reference_scan_range(extractor, walks, walks[4], epsilon)
            assert_same_answers(result.answers, expected)

    def test_transformed_range_matches_reference(self, walks, mavg):
        index = KIndex()
        index.extend(walks)
        result = index.range_query(walks[1], 4.0, transformation=mavg)
        expected = reference_scan_range(index.extractor, walks, walks[1], 4.0,
                                        transformation=mavg)
        assert_same_answers(result.answers, expected)

    def test_scale_transformation_matches_reference(self, walks):
        # A complex multiplier exercises the polar (periodic-angle) layout.
        scaling = scale_spectral(64, 2.0)
        index = KIndex()
        index.extend(walks)
        result = index.range_query(walks[6], 5.0, transformation=scaling)
        expected = reference_scan_range(index.extractor, walks, walks[6], 5.0,
                                        transformation=scaling)
        assert_same_answers(result.answers, expected)

    @pytest.mark.parametrize("smoothed", [False, True])
    def test_batch_matches_singletons_and_reference(self, walks, mavg, smoothed):
        transformation = mavg if smoothed else None
        index = KIndex()
        index.extend(walks)
        queries = [walks[0], walks[9], walks[17], walks[33]]
        epsilons = [1.0, 3.0, 6.0, 9.0]
        batched = index.range_query_batch(queries, epsilons,
                                          transformation=transformation)
        looped_accesses = 0
        for query, epsilon, result in zip(queries, epsilons, batched):
            single = index.range_query(query, epsilon, transformation=transformation)
            looped_accesses += single.statistics.node_accesses
            assert_same_answers(result.answers, single.answers)
            expected = reference_scan_range(index.extractor, walks, query, epsilon,
                                            transformation=transformation)
            assert_same_answers(result.answers, expected)
            # Counter exactness under batching: the per-query work counters
            # match the singleton run (only node_accesses reports the shared
            # traversal).
            assert result.statistics.candidates == single.statistics.candidates
            assert result.statistics.postprocessed == single.statistics.postprocessed
            assert result.statistics.record_fetches == single.statistics.record_fetches
        # One traversal serves the batch, under a transformation too.
        assert len({result.statistics.node_accesses for result in batched}) == 1
        assert batched[0].statistics.node_accesses < looped_accesses

    def test_ragged_lengths_match_reference(self, ragged_walks):
        index = KIndex()
        index.extend(ragged_walks)
        result = index.range_query(ragged_walks[3], 5.0)
        expected = reference_scan_range(index.extractor, ragged_walks,
                                        ragged_walks[3], 5.0)
        assert_same_answers(result.answers, expected, exact=False)

    def test_bulk_load_matches_reference(self, walks):
        index = KIndex.bulk_load(walks)
        result = index.range_query(walks[8], 4.0)
        expected = reference_scan_range(index.extractor, walks, walks[8], 4.0)
        assert_same_answers(result.answers, expected)

    def test_nearest_matches_reference(self, walks):
        index = KIndex()
        index.extend(walks)
        result = index.nearest_neighbors(walks[11], k=5)
        expected = reference_nearest(index.extractor, walks, walks[11], 5)
        assert_same_answers(result.answers, expected)

    def test_scan_and_index_agree_bitwise(self, walks):
        index = KIndex()
        index.extend(walks)
        scan = SequentialScan()
        scan.extend(walks)
        for epsilon in (2.0, 7.0):
            from_index = index.range_query(walks[12], epsilon)
            from_scan = scan.range_query(walks[12], epsilon)
            assert_same_answers(from_index.answers, from_scan.answers)


# ----------------------------------------------------------------------
# metric index
# ----------------------------------------------------------------------
class TestMetricIdentity:
    @staticmethod
    def _index_and_values():
        rng = make_rng(7)
        values = [float(v) for v in rng.normal(size=80)]
        index = MetricIndex(lambda a, b: abs(a - b), leaf_capacity=6)
        index.extend(values)
        return index, values

    def test_range_matches_brute_force(self):
        index, values = self._index_and_values()
        for query, epsilon in ((0.0, 0.25), (1.5, 0.5), (-2.0, 1.0)):
            result = index.range_query(query, epsilon)
            expected = sorted(((v, abs(v - query)) for v in values
                               if abs(v - query) <= epsilon),
                              key=lambda pair: pair[1])
            assert [v for v, _ in result.answers] == [v for v, _ in expected]
            assert [d for _, d in result.answers] == [d for _, d in expected]

    def test_batch_counters_match_singletons(self):
        index, _ = self._index_and_values()
        queries = [0.0, 0.7, -1.2]
        epsilons = [0.3, 0.6, 0.9]
        batched = index.range_query_batch(queries, epsilons)
        for query, epsilon, result in zip(queries, epsilons, batched):
            single = index.range_query(query, epsilon)
            assert [v for v, _ in result.answers] == \
                [v for v, _ in single.answers]
            assert result.statistics.candidates == single.statistics.candidates
            assert result.statistics.postprocessed == \
                single.statistics.postprocessed
            assert result.statistics.node_accesses == \
                single.statistics.node_accesses

    def test_nearest_matches_brute_force(self):
        index, values = self._index_and_values()
        result = index.nearest_neighbors(0.4, k=7)
        expected = sorted(((v, abs(v - 0.4)) for v in values),
                          key=lambda pair: pair[1])[:7]
        assert [v for v, _ in result.answers] == [v for v, _ in expected]
