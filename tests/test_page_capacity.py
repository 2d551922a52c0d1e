"""A node is a page: the k-index's answers do not depend on its node capacity.

``KIndex`` packs page-sized nodes by default (:func:`page_capacity`: what
one page holds of two float64 corners and a payload, 39 entries at six
dimensions); the evaluation's fixtures write 8 out.  The capacity shapes the
tree, and so the node accesses, but never an answer: range batches, k-NN at
k = 1, 5 and 10, under ``mavg10`` and ``reverse``, in both layouts, with an
open tail and after a seal, through a session at 1 and 2 workers — record
ids, order and distance bits are the same at 8 and at the page capacity.  A
directory written at 8 reopens at 8, with the same answers.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import (
    KIndex,
    SeriesFeatureExtractor,
    TimeSeries,
    moving_average_spectral,
    random_walk_collection,
)
from repro.core.errors import UnsafeTransformationError
from repro.core.query.planner import IndexNearestPlan, IndexRangePlan
from repro.index.kindex import page_capacity
from repro.storage.pages import PAGE_SIZE_BYTES, records_per_page
from repro.timeseries.transforms import reverse_spectral

LENGTH = 64
TRANSFORMATIONS = {
    None: None,
    "mavg10": moving_average_spectral(LENGTH, 10),
    "reverse": reverse_spectral(LENGTH),
}


@pytest.fixture(scope="module")
def data():
    return random_walk_collection(1200, LENGTH, seed=61)


@pytest.fixture(scope="module")
def queries(data):
    """Fresh walks, noisy copies of stored rows and stored rows themselves
    (a duplicate at distance zero ties on the k-th distance)."""
    rng = np.random.default_rng(62)
    noisy = [
        TimeSeries(data[row].values + rng.uniform(-0.3, 0.3, LENGTH))
        for row in rng.choice(len(data), 4, replace=False).tolist()
    ]
    return random_walk_collection(4, LENGTH, seed=63) + noisy + [data[5], data[700]]


def _answers(result) -> list[tuple[int, str]]:
    return [(series.object_id, float(distance).hex()) for series, distance in result.answers]


def _pair(rows, representation: str) -> tuple[KIndex, KIndex]:
    """The same rows at capacity 8 and at the page capacity."""
    extractor = SeriesFeatureExtractor(2, representation)
    return KIndex.bulk_load(rows, extractor, max_entries=8), KIndex.bulk_load(rows, extractor)


def _assert_same_answers(eight: KIndex, page: KIndex, queries, transformation) -> None:
    """Range batches (candidates too: the filter is the leaf test, whatever
    the tree) and k-NN at k = 1, 5 and 10 agree bit for bit."""
    epsilons = [3.0 + 0.5 * (position % 5) for position in range(len(queries))]
    found = [
        index.range_query_batch(queries, epsilons, transformation=transformation)
        for index in (eight, page)
    ]
    answers, candidates = (
        [[_answers(result) for result in batch] for batch in found],
        [[result.statistics.candidates for result in batch] for batch in found],
    )
    assert answers[0] == answers[1] and candidates[0] == candidates[1]
    assert any(answers[0])
    for k in (1, 5, 10):
        for query in queries:
            expected = eight.nearest_neighbors(query, k, transformation=transformation)
            got = page.nearest_neighbors(query, k, transformation=transformation)
            assert _answers(got) == _answers(expected) and len(got) == k


class TestTheCapacityIsAPage:
    def test_what_a_page_holds(self):
        for dimension, capacity in ((4, 56), (6, 39), (8, 30)):
            assert page_capacity(dimension) == capacity
            assert capacity == records_per_page(16 * dimension + 8)
            assert capacity * (16 * dimension + 8) <= PAGE_SIZE_BYTES
        for prefix, capacity in ((1, 56), (2, 39), (3, 30)):
            assert KIndex(SeriesFeatureExtractor(prefix)).max_entries == capacity
        assert KIndex(max_entries=8).max_entries == 8

    def test_the_tree_packs_page_sized_nodes(self, data):
        eight, page = _pair(data, "polar")
        assert page.tree.max_entries == 39
        assert all(level.counts.max() <= 39 for level in page.tree.levels)
        summary, reference = page.structure_summary(), eight.structure_summary()
        assert (summary["height"], reference["height"]) == (2.0, 4.0)
        assert summary["node_count"] < reference["node_count"] / 4


class TestAnswersAcrossCapacities:
    @pytest.mark.parametrize("representation", ["polar", "rectangular"])
    @pytest.mark.parametrize("name", list(TRANSFORMATIONS))
    def test_ranges_and_nearest_neighbours(self, data, queries, representation, name):
        eight, page = _pair(data, representation)
        transformation = TRANSFORMATIONS[name]
        if representation == "rectangular" and name == "mavg10":
            # A complex multiplier is not safe in the rectangular layout: both
            # capacities refuse it alike.
            for index in (eight, page):
                with pytest.raises(UnsafeTransformationError):
                    index.range_query(queries[0], 3.0, transformation=transformation)
            return
        _assert_same_answers(eight, page, queries, transformation)

    @pytest.mark.parametrize("representation", ["polar", "rectangular"])
    def test_an_open_tail_and_a_seal(self, data, queries, representation):
        eight, page = _pair(data[:800], representation)
        for index in (eight, page):
            index.extend(data[800:900])
        assert eight.tail_rows == page.tail_rows == 100
        assert page.tail_pages == 3 and eight.tail_pages == 13
        for name in (None, "reverse"):
            _assert_same_answers(eight, page, queries, TRANSFORMATIONS[name])
        for index in (eight, page):
            index.extend(data[900:])  # a tail of 400 > 256 rows: sealed
        assert eight.tail_rows == page.tail_rows == 0
        assert len(eight.tree) == len(page.tree) == len(data)
        for name in (None, "reverse"):
            _assert_same_answers(eight, page, queries, TRANSFORMATIONS[name])


class TestSessionsAcrossCapacities:
    SQL = (
        "SELECT FROM walks WHERE dist(series, $q) < 4.0",
        "SELECT FROM walks WHERE dist(series, $q) < 4.0 USING mavg10",
        "SELECT FROM walks WHERE dist(series, $q) < 4.0 USING reverse",
        "SELECT FROM walks NEAREST 5 TO $q",
        "SELECT FROM walks NEAREST 10 TO $q USING mavg10",
        "SELECT FROM walks NEAREST 1 TO $q USING reverse",
    )

    @staticmethod
    def _named(session):
        """The session, with the statements' transformations registered."""
        for name in ("mavg10", "reverse"):
            session.with_transformation(name, TRANSFORMATIONS[name])
        return session

    def _session(self, data, max_entries, **options):
        session = self._named(repro.connect(answer_cache_size=0, **options))
        index = KIndex.bulk_load(data, SeriesFeatureExtractor(2), max_entries=max_entries)
        session.relation("walks").insert_many(data).with_index(index)
        return session

    @staticmethod
    def _run(session, queries) -> list[list[tuple[int, str]]]:
        """Every statement's answers; each ran on the k-index."""
        outcomes = [
            session.sql(text, q=query)
            for text in TestSessionsAcrossCapacities.SQL
            for query in queries
        ]
        assert all(
            isinstance(outcome.plan, (IndexRangePlan, IndexNearestPlan)) for outcome in outcomes
        )
        return [_answers(outcome) for outcome in outcomes]

    def test_one_and_two_workers(self, data, queries):
        found = {}
        for max_entries in (8, None):
            for workers in (1, 2):
                with self._session(data, max_entries, workers=workers) as session:
                    found[max_entries, workers] = self._run(session, queries)
        expected = found[8, 1]
        assert any(expected)
        assert all(answers == expected for answers in found.values())

    def test_a_directory_written_at_8_reopens_at_8(self, tmp_path, data, queries):
        path = str(tmp_path / "db")
        with self._session(data, 8, path=path) as session:
            session.checkpoint()
            written = self._run(session, queries)
        with self._named(repro.connect(path=path, answer_cache_size=0)) as reopened:
            index = reopened.database.indexes_on("walks")["default"]
            assert index.max_entries == index.tree.max_entries == 8
            assert all(level.counts.max() <= 8 for level in index.tree.levels)
            assert self._run(reopened, queries) == written
        with self._session(data, None) as session:
            assert self._run(session, queries) == written
