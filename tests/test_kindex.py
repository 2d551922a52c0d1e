"""Integration tests for the k-index: Lemma 1 (no false dismissals), exactness
of the three query types, and agreement with the sequential scan."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import IndexError_, UnsafeTransformationError
from repro.index.kindex import KIndex
from repro.index.rtree import PackedRTree
from repro.index.scan import SequentialScan
from repro.timeseries.features import SeriesFeatureExtractor
from repro.timeseries.generators import noisy_copy, random_walk_collection
from repro.timeseries.transforms import (
    identity_spectral,
    moving_average_spectral,
    reverse_spectral,
    shift_spectral,
)


def _ids(answers):
    return sorted(series.object_id for series, _ in answers)


class TestConstruction:
    def test_an_index_is_born_with_an_empty_packed_tree(self):
        """No tree variant to choose (a grower's is ``RTree(split=…)``), no
        simulated page store: the options are gone, not ignored."""
        index = KIndex(max_entries=4)
        assert len(index) == len(index.tree) == 0
        assert isinstance(index.tree, PackedRTree) and index.tree.max_entries == 4
        for option in ({"tree_kind": "rstar"}, {"page_store": None}):
            with pytest.raises(TypeError):
                KIndex(**option)
        with pytest.raises(IndexError_):
            KIndex(max_entries=1)

    def test_insert_and_record_lookup(self, walk_collection):
        index = KIndex()
        record_id = index.insert(walk_collection[0])
        series, features = index.record(record_id)
        assert series is walk_collection[0]
        assert features.point.dimension == index.space.dimension
        with pytest.raises(IndexError_):
            index.record(999)

    def test_series_list_order(self, walk_collection):
        index = KIndex()
        index.extend(walk_collection[:5])
        assert [s.object_id for s in index.series_list()] == \
            [s.object_id for s in walk_collection[:5]]

    def test_repr_mentions_configuration(self, loaded_index):
        assert "polar" in repr(loaded_index)


class TestRangeQueries:
    def test_query_series_always_in_its_own_answer_set(self, loaded_index, walk_collection):
        result = loaded_index.range_query(walk_collection[3], epsilon=1e-9)
        assert walk_collection[3].object_id in {s.object_id for s, _ in result.answers}

    def test_epsilon_validation(self, loaded_index, walk_collection):
        with pytest.raises(ValueError):
            loaded_index.range_query(walk_collection[0], epsilon=-1.0)

    def test_answers_sorted_by_distance(self, loaded_index, walk_collection):
        result = loaded_index.range_query(walk_collection[0], epsilon=20.0)
        distances = [d for _, d in result.answers]
        assert distances == sorted(distances)

    def test_statistics_populated(self, loaded_index, walk_collection):
        result = loaded_index.range_query(walk_collection[0], epsilon=5.0)
        assert result.statistics.node_accesses > 0
        assert result.statistics.candidates >= len(result)
        assert result.statistics.postprocessed == result.statistics.candidates

    def test_filter_only_mode_is_superset(self, loaded_index, walk_collection):
        exact = loaded_index.range_query(walk_collection[0], epsilon=5.0, exact=True)
        filtered = loaded_index.range_query(walk_collection[0], epsilon=5.0, exact=False)
        assert set(_ids(exact.answers)) <= set(_ids(filtered.answers))

    @pytest.mark.parametrize("representation", ["polar", "rectangular"])
    @pytest.mark.parametrize("epsilon", [0.5, 2.0, 8.0])
    def test_agrees_with_scan_no_transformation(self, walk_collection, representation,
                                                epsilon):
        extractor = SeriesFeatureExtractor(2, representation)
        index, scan = KIndex(extractor), SequentialScan(extractor)
        index.extend(walk_collection)
        scan.extend(walk_collection)
        query = walk_collection[7]
        assert _ids(index.range_query(query, epsilon).answers) == \
            _ids(scan.range_query(query, epsilon).answers)

    @pytest.mark.parametrize("make_transformation", [
        pytest.param(lambda n: identity_spectral(n), id="identity"),
        pytest.param(lambda n: moving_average_spectral(n, 10), id="mavg10"),
        pytest.param(lambda n: reverse_spectral(n), id="reverse"),
        pytest.param(lambda n: shift_spectral(n, 5.0), id="shift"),
        pytest.param(lambda n: reverse_spectral(n).compose(moving_average_spectral(n, 5)),
                     id="reverse-then-smooth"),
    ])
    @pytest.mark.parametrize("epsilon", [1.0, 4.0])
    def test_no_false_dismissals_under_transformations(self, walk_collection,
                                                       make_transformation, epsilon):
        """Lemma 1: the index answers exactly what the scan answers, for every
        safe transformation (the scan is the ground truth)."""
        length = len(walk_collection[0])
        transformation = make_transformation(length)
        extractor = SeriesFeatureExtractor(2, "polar")
        index, scan = KIndex(extractor), SequentialScan(extractor)
        index.extend(walk_collection)
        scan.extend(walk_collection)
        query = walk_collection[11]
        got = index.range_query(query, epsilon, transformation=transformation)
        want = scan.range_query(query, epsilon, transformation=transformation)
        assert _ids(got.answers) == _ids(want.answers)
        for (_, d_index), (_, d_scan) in zip(got.answers, want.answers):
            assert d_index == pytest.approx(d_scan, rel=1e-9, abs=1e-9)

    def test_unsafe_transformation_rejected_in_rectangular_space(self, walk_collection):
        extractor = SeriesFeatureExtractor(2, "rectangular")
        index = KIndex(extractor)
        index.extend(walk_collection[:10])
        with pytest.raises(UnsafeTransformationError):
            index.range_query(walk_collection[0], 1.0,
                              transformation=moving_average_spectral(64, 5))

    def test_transform_query_false_changes_semantics(self, loaded_index, walk_collection):
        reverse = reverse_spectral(64)
        query = walk_collection[0]
        both_sides = loaded_index.range_query(query, 0.5, transformation=reverse)
        one_side = loaded_index.range_query(query, 0.5, transformation=reverse,
                                            transform_query=False)
        # Reversing both sides keeps the query similar to itself...
        assert query.object_id in {s.object_id for s, _ in both_sides.answers}
        # ...whereas reversing only the data makes the query unlike itself.
        assert query.object_id not in {s.object_id for s, _ in one_side.answers}

    def test_noisy_twin_found_under_smoothing(self, walk_collection):
        base = walk_collection[0]
        twin = noisy_copy(base, noise=1.0, seed=5)
        index = KIndex()
        index.extend(walk_collection)
        index.insert(twin)
        smoothing = moving_average_spectral(64, 10)
        result = index.range_query(base, epsilon=1.0, transformation=smoothing)
        assert twin.object_id in {s.object_id for s, _ in result.answers}

    @pytest.mark.parametrize("query_position", [0, 17, 43, 88, 119])
    @pytest.mark.parametrize("epsilon", [0.1, 0.9, 2.7, 6.5, 9.9])
    def test_index_equals_scan_across_queries_and_thresholds(
            self, query_position, epsilon, walk_collection, loaded_index, loaded_scan):
        query = walk_collection[query_position]
        assert _ids(loaded_index.range_query(query, epsilon).answers) == \
            _ids(loaded_scan.range_query(query, epsilon).answers)


class TestZeroEpsilon:
    """``range_query(q, 0.0)`` answers what the scan answers — above all the
    stored rows equal to ``q``.  A polar traversal at ε = 0 opens zero-width
    angular windows, and an edge point of a node must not fall an ulp
    outside one (it did: 13 of 48 stored rows missed on 8 seeds)."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), max_entries=st.integers(2, 8),
           # Every pairing the index accepts: a moving average turns phases,
           # which the rectangular layout cannot bound.
           setup=st.sampled_from([("polar", None), ("polar", "mavg"), ("polar", "reverse"),
                                  ("rectangular", None), ("rectangular", "reverse")]))
    def test_the_index_answers_what_the_scan_answers(self, seed, max_entries, setup):
        representation, transformation = setup
        data = random_walk_collection(30, 32, seed=seed)
        index = KIndex(SeriesFeatureExtractor(2, representation), max_entries=max_entries)
        index.extend(data)
        scan = SequentialScan()
        scan.extend(data)
        T = {None: None, "mavg": moving_average_spectral(32, 4),
             "reverse": reverse_spectral(32)}[transformation]
        for query in data[:6]:
            found = _ids(index.range_query(query, 0.0, transformation=T).answers)
            assert found == _ids(scan.range_query(query, 0.0, transformation=T).answers)
            if T is None:
                assert query.object_id in found


class TestNearestNeighborQueries:
    def test_k_validation(self, loaded_index, walk_collection):
        with pytest.raises(ValueError):
            loaded_index.nearest_neighbors(walk_collection[0], k=0)

    def test_nearest_is_self(self, loaded_index, walk_collection):
        result = loaded_index.nearest_neighbors(walk_collection[5], k=1)
        assert result.answers[0][0].object_id == walk_collection[5].object_id
        assert result.answers[0][1] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_matches_scan_exactly(self, loaded_index, loaded_scan, walk_collection, k):
        query = walk_collection[2]
        index_answers = loaded_index.nearest_neighbors(query, k=k).answers
        scan_answers = loaded_scan.nearest_neighbors(query, k=k)
        assert [s.object_id for s, _ in index_answers] == [s.object_id for s, _ in scan_answers]

    def test_matches_scan_under_transformation(self, loaded_index, loaded_scan,
                                               walk_collection):
        smoothing = moving_average_spectral(64, 8)
        query = walk_collection[9]
        index_answers = loaded_index.nearest_neighbors(query, k=5,
                                                       transformation=smoothing).answers
        scan_answers = loaded_scan.nearest_neighbors(query, k=5, transformation=smoothing)
        assert [s.object_id for s, _ in index_answers] == [s.object_id for s, _ in scan_answers]

    def test_statistics_report_pruning(self, loaded_index, walk_collection):
        result = loaded_index.nearest_neighbors(walk_collection[0], k=3)
        assert 3 <= result.statistics.candidates <= len(loaded_index)


class TestAllPairs:
    def test_all_pairs_match_scan(self, walk_collection):
        data = walk_collection[:40]
        extractor = SeriesFeatureExtractor(2)
        index, scan = KIndex(extractor), SequentialScan(extractor)
        index.extend(data)
        scan.extend(data)
        epsilon = 6.0
        index_pairs, _ = index.all_pairs(epsilon)
        scan_pairs, _ = scan.all_pairs(epsilon)
        index_set = {frozenset((a.object_id, b.object_id)) for a, b, _ in index_pairs}
        scan_set = {frozenset((a.object_id, b.object_id)) for a, b, _ in scan_pairs}
        assert index_set == scan_set
        # The index join reports ordered pairs: twice the unordered count.
        assert len(index_pairs) == 2 * len(scan_pairs)

    def test_all_pairs_under_transformation(self, walk_collection):
        data = walk_collection[:30]
        index = KIndex()
        index.extend(data)
        scan = SequentialScan()
        scan.extend(data)
        smoothing = moving_average_spectral(64, 10)
        index_pairs, stats = index.all_pairs(2.0, transformation=smoothing)
        scan_pairs, _ = scan.all_pairs(2.0, transformation=smoothing)
        assert {frozenset((a.object_id, b.object_id)) for a, b, _ in index_pairs} == \
            {frozenset((a.object_id, b.object_id)) for a, b, _ in scan_pairs}
        assert stats.node_accesses > 0
