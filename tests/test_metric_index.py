"""Tests for the pivot-based metric index (VP-tree) over arbitrary metrics."""

from __future__ import annotations

import random

import pytest

from repro.index.metric import MetricIndex
from repro.strings import StringObject, weighted_edit_distance

ALPHABET = "abcdef"


def _random_words(count: int, seed: int) -> list[StringObject]:
    rng = random.Random(seed)
    return [StringObject("".join(rng.choice(ALPHABET)
                                 for _ in range(rng.randint(3, 9))))
            for _ in range(count)]


def _brute_range(words, query, epsilon):
    return sorted(((w, weighted_edit_distance(query, w)) for w in words
                   if weighted_edit_distance(query, w) <= epsilon),
                  key=lambda pair: pair[1])


@pytest.fixture(scope="module")
def words() -> list[StringObject]:
    return _random_words(150, seed=41)


@pytest.fixture(scope="module")
def index(words) -> MetricIndex:
    built = MetricIndex(weighted_edit_distance, leaf_capacity=6)
    built.extend(words)
    return built


class TestRangeQuery:
    @pytest.mark.parametrize("epsilon", [0.0, 1.0, 2.0, 3.5])
    def test_agrees_with_brute_force(self, index, words, epsilon):
        rng = random.Random(7)
        for _ in range(10):
            query = StringObject("".join(rng.choice(ALPHABET)
                                         for _ in range(rng.randint(3, 9))))
            result = index.range_query(query, epsilon)
            expected = _brute_range(words, query, epsilon)
            assert sorted((obj.text, d) for obj, d in result.answers) == \
                sorted((obj.text, d) for obj, d in expected)
            distances = [d for _, d in result.answers]
            assert distances == sorted(distances)

    def test_prunes_exact_distance_computations(self, index, words):
        result = index.range_query(StringObject("abcdef"), 1.0)
        assert result.statistics.postprocessed < len(words)
        assert result.statistics.candidates == result.statistics.postprocessed

    def test_negative_epsilon_rejected(self, index):
        with pytest.raises(ValueError):
            index.range_query(StringObject("abc"), -0.5)

    def test_nan_epsilon_rejected(self, index):
        """A NaN threshold passed ``epsilon < 0`` and answered nothing; it is
        refused like a negative one, as ``KIndex`` and the scan refuse it."""
        with pytest.raises(ValueError, match="non-negative"):
            index.range_query(StringObject("abc"), float("nan"))
        with pytest.raises(ValueError, match="non-negative"):
            index.range_query_batch([StringObject("abc"), StringObject("ab")],
                                    [1.0, float("nan")])

    def test_empty_index(self):
        empty = MetricIndex(weighted_edit_distance)
        assert len(empty) == 0
        assert empty.range_query(StringObject("abc"), 5.0).answers == []
        assert empty.nearest_neighbors(StringObject("abc"), 2).answers == []


class TestBatch:
    def test_batch_equals_individual(self, index):
        rng = random.Random(11)
        queries = [StringObject("".join(rng.choice(ALPHABET) for _ in range(5)))
                   for _ in range(6)]
        epsilons = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        batch = index.range_query_batch(queries, epsilons)
        for query, epsilon, result in zip(queries, epsilons, batch):
            single = index.range_query(query, epsilon)
            assert [(o.text, d) for o, d in result.answers] == \
                [(o.text, d) for o, d in single.answers]
            # Identical work counters: the shared traversal does per query
            # exactly what a one-at-a-time traversal would.
            assert result.statistics.postprocessed == single.statistics.postprocessed
            assert result.statistics.node_accesses == single.statistics.node_accesses

    def test_batch_length_mismatch(self, index):
        with pytest.raises(ValueError):
            index.range_query_batch([StringObject("abc")], [1.0, 2.0])


class TestNearestNeighbors:
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_agrees_with_brute_force(self, index, words, k):
        rng = random.Random(23)
        for _ in range(8):
            query = StringObject("".join(rng.choice(ALPHABET)
                                         for _ in range(rng.randint(3, 8))))
            result = index.nearest_neighbors(query, k)
            expected = sorted(weighted_edit_distance(query, w) for w in words)[:k]
            assert [d for _, d in result.answers] == pytest.approx(expected)

    def test_k_larger_than_index(self, words):
        small = MetricIndex(weighted_edit_distance)
        small.extend(words[:5])
        result = small.nearest_neighbors(StringObject("abc"), 50)
        assert len(result.answers) == 5

    def test_k_validation(self, index):
        with pytest.raises(ValueError):
            index.nearest_neighbors(StringObject("abc"), 0)


class TestMutation:
    def test_insert_rebuilds_lazily(self, words):
        index = MetricIndex(weighted_edit_distance, leaf_capacity=4)
        index.extend(words[:50])
        before = index.range_query(StringObject("abcdef"), 1.0)
        exact = StringObject("abcdef")
        index.insert(exact)
        assert len(index) == 51
        after = index.range_query(StringObject("abcdef"), 1.0)
        assert len(after.answers) == len(before.answers) + 1
        assert any(obj.text == "abcdef" and d == 0.0 for obj, d in after.answers)
