"""Statistics collection, pinned: array code in, the same bits out, the writer keeps them fresh.

Two mechanisms are held here.

**Collection reads arrays.**  ``analyze`` on an indexed relation measures the
index's own arrays — ``KIndex.points`` rows through
``FeatureSpace.window_entry_distances`` and ``FeatureSpace.pairwise``, column
reductions for extents and spread — and the advisor's what-if histograms and
``range_query(exact=False)`` take the same road.  The loops they replaced are
kept below as the reference (one ``index.record`` or one ``space.distance`` at
a time) and every value is compared bit for bit.  A window-entry distance is
checked against the filter's own test: ``search_rectangle`` and
``rects_overlap`` admit the pair's row just above it and refuse it just below.
It is never more than the pair's feature-space distance: the rectangle holds
the ball.

**The writer keeps statistics fresh.**  Once statistics exist, the catalog
write that moves their basis (a cardinality band, the index set, a seal)
re-collects them before it returns; a read never finds them stale, and a
relation nobody has planned against is never charged a first collection.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import (
    KIndex,
    SeriesFeatureExtractor,
    moving_average_spectral,
    random_walk_collection,
)
from repro.core import stats as stats_module
from repro.core.advisor import IndexAdvisor
from repro.core.errors import IndexError_
from repro.core.objects import FeatureVector
from repro.core.spaces import FeatureSpace, PolarSpace, RectangularSpace
from repro.core.stats import EXTENT_SAMPLE_SIZE, SAMPLE_SIZE, sample_positions, statistics_basis
from repro.index.geometry import rects_overlap

LENGTH = 64
SPACES = {"polar": PolarSpace, "rectangular": RectangularSpace}


# ---------------------------------------------------------------------------
# the replaced loops, kept as the reference
# ---------------------------------------------------------------------------
def reference_pairwise(values: list, distance) -> np.ndarray:
    """``FeatureSpace.pairwise``'s loop: one scalar distance per pair."""
    out = []
    for i, left in enumerate(values):
        for right in values[i + 1 :]:
            out.append(float(distance(left, right)))
    return np.asarray(out, dtype=np.float64)


def weighted_distance(space, weight: float):
    """``FeatureSpace.distance`` with the features' squared term times
    ``weight``: a k-NN probe's lower bound between two points."""

    def distance(a, b) -> float:
        extra_a, feats_a = space.decode(a)
        extra_b, feats_b = space.decode(b)
        d2 = weight * float(np.sum(np.abs(feats_a - feats_b) ** 2))
        d2 += float(np.sum((extra_a - extra_b) ** 2))
        return math.sqrt(d2)

    return distance


#: A window-entry distance admits its row at ``(1 + SLACK)`` times itself and
#: refuses it at ``(1 - SLACK)`` times: the window's own arithmetic (an
#: ``asin`` for a phase angle) rounds, the threshold does not move by more.
SLACK = 1e-9


def enters(space, centre: np.ndarray, point: np.ndarray, epsilon: float) -> bool:
    """The filter's own test: is ``point`` in the search rectangle around
    ``centre`` at ``epsilon``?"""
    low, high = space.search_rectangle(FeatureVector(centre), epsilon)
    return bool(rects_overlap(point, point, low, high, space.periodic_dimension_mask()))


def assert_window_entry(space, points: np.ndarray, values: np.ndarray) -> None:
    """Each ordered pair's window-entry distance, against the filter's test:
    the pair's second row enters the rectangle around its first just above
    the value (at it, when it is zero) and stays out just below it."""
    assert values.dtype == np.float64 and values.shape == (len(points) * (len(points) - 1),)
    pairs = [(i, j) for i in range(len(points)) for j in range(len(points)) if i != j]
    for (i, j), value in zip(pairs, values.tolist()):
        assert enters(space, points[i], points[j], value * (1.0 + SLACK))
        if value > 0.0:
            assert not enters(space, points[i], points[j], value * (1.0 - SLACK))


def reference_filter_distances(index, sample_size: int = SAMPLE_SIZE) -> np.ndarray:
    """The filter histogram's values over ``record()``-built points, each
    checked against the filter's test."""
    positions = sample_positions(len(index), sample_size)
    points = np.vstack([index.record(int(i))[1].point.values for i in positions])
    values = index.space.window_entry_distances(points)
    assert_window_entry(index.space, points, values)
    return np.sort(values)


def reference_bound_distances(index, weight: float, sample_size: int = SAMPLE_SIZE) -> np.ndarray:
    """The bound histogram's values, a record and a ``space.distance`` at a
    time, the features' term times ``weight``."""
    positions = sample_positions(len(index), sample_size)
    points = [index.record(int(i))[1].point for i in positions]
    return np.sort(reference_pairwise(points, weighted_distance(index.space, weight)))


def reference_extents(index) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extents and spread over ``record()``-built points, stacked."""
    all_points = np.vstack(
        [
            index.record(int(i))[1].point.values
            for i in sample_positions(len(index), EXTENT_SAMPLE_SIZE)
        ]
    )
    return all_points.min(axis=0), all_points.max(axis=0), all_points.std(axis=0)


def reference_advisor_histogram(
    extractor, objects: list, weight: float
) -> tuple[np.ndarray, np.ndarray]:
    """``IndexAdvisor._filter_histogram``'s points as they stood — every
    sampled series re-extracted through ``extractor.point`` — and the window
    and bound histograms' values over them, the bound's features' term times
    ``weight``."""
    sampled = [objects[int(i)] for i in sample_positions(len(objects), SAMPLE_SIZE)]
    points = np.vstack([extractor.point(series).values for series in sampled])
    values = extractor.space.window_entry_distances(points)
    assert_window_entry(extractor.space, points, values)
    vectors = [FeatureVector(point) for point in points]
    bound = reference_pairwise(vectors, weighted_distance(extractor.space, weight))
    return np.sort(values), np.sort(bound)


def reference_filter_only(index, query, epsilon: float, transformation=None) -> list:
    """``range_query(exact=False)``'s per-candidate loop as it stood, run over
    every row: a point within ``epsilon`` is inside the search rectangle, so
    the candidates are the only rows that can pass."""
    linear, _ = index.lower_transformation(transformation)
    query_point = index._transform_point(index.extractor.extract(query).point, linear)
    answers = []
    for record_id in range(len(index)):
        point = index._transform_point(FeatureVector(index._points[record_id]), linear)
        distance = index.space.distance(point, query_point)
        if distance <= epsilon:
            answers.append((index.store.series(record_id).object_id, distance))
    answers.sort(key=lambda pair: pair[1])
    return answers


def indexed_session(index, data):
    session = repro.connect(answer_cache_size=0)
    session.relation("walks").insert_many(data).with_index(index)
    return session


def assert_statistics_match_the_reference(stats, index) -> None:
    assert np.array_equal(stats.filter_histogram.values, reference_filter_distances(index))
    assert np.array_equal(
        stats.bound_histogram.values, reference_bound_distances(index, index.bound_weight())
    )
    low, high, spread = reference_extents(index)
    assert np.array_equal(stats.extent_low, low)
    assert np.array_equal(stats.extent_high, high)
    assert np.array_equal(stats.spread, spread)
    assert stats.tree_summary == index.structure_summary()


# ---------------------------------------------------------------------------
# collection reads arrays: bit for bit the scalar loops
# ---------------------------------------------------------------------------
class TestArrayFormsEqualTheScalarLoops:
    @pytest.mark.parametrize("include_stats", [True, False])
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 9])
    @pytest.mark.parametrize("representation", ["polar", "rectangular"])
    def test_analyze_on_an_index(self, walk_collection, representation, k, include_stats):
        extractor = SeriesFeatureExtractor(k, representation, include_stats)
        index = KIndex.bulk_load(walk_collection, extractor)
        stats = indexed_session(index, walk_collection).analyze("walks")
        assert len(stats.filter_histogram) == SAMPLE_SIZE * (SAMPLE_SIZE - 1)
        assert len(stats.bound_histogram) == SAMPLE_SIZE * (SAMPLE_SIZE - 1) // 2
        assert_statistics_match_the_reference(stats, index)
        points = index.points(np.arange(len(index)))
        assert np.array_equal(
            index.space.pairwise(points[:20]),
            reference_pairwise([FeatureVector(p) for p in points[:20]], index.space.distance),
        )
        assert np.array_equal(
            index.space.distances_to(FeatureVector(points[3]), points),
            [index.space.distance(FeatureVector(p), FeatureVector(points[3])) for p in points],
        )

    @given(
        representation=st.sampled_from(sorted(SPACES)),
        k=st.integers(1, 9),
        num_extra=st.sampled_from([0, 2]),
        count=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_window_entry_on_random_points(self, representation, k, num_extra, count, seed):
        space = SPACES[representation](k, num_extra)
        rng = np.random.default_rng(seed)
        points = rng.normal(scale=4.0, size=(count, space.dimension))
        if representation == "polar":
            points[:, num_extra::2] = np.abs(points[:, num_extra::2])
            # Phases anywhere in [-pi, pi], both ends and zero included.
            points[:, num_extra + 1 :: 2] = rng.choice(
                [-np.pi, np.pi, 0.0, *rng.uniform(-np.pi, np.pi, size=5)], size=(count, k)
            )
        vectors = [FeatureVector(point) for point in points]
        window = space.window_entry_distances(points)
        assert_window_entry(space, points, window)
        pairs = space.pairwise(points)
        assert pairs.dtype == np.float64 and pairs.shape == (count * (count - 1) // 2,)
        assert np.array_equal(pairs, reference_pairwise(vectors, space.distance))
        # The rectangle holds the ball: either row of a pair enters the
        # window around the other at no more than their distance.
        ball = np.zeros((count, count))
        ball[np.triu_indices(count, 1)] = pairs
        ball += ball.T
        assert np.all(window <= ball[~np.eye(count, dtype=bool)] * (1.0 + SLACK))
        extra, feats = space.decode_rows(points)
        for row, vector in enumerate(vectors):
            assert np.array_equal(extra[row], space.decode(vector)[0])
            assert np.array_equal(feats[row], space.decode(vector)[1])

    @pytest.mark.parametrize("prefix", [1, 2, 3])
    def test_the_advisors_what_if_histogram(self, walk_collection, prefix):
        session = repro.connect()
        session.relation("walks").insert_many(walk_collection)
        candidates = IndexAdvisor()._feature_candidates(session.database, "walks")
        candidate = next(c for c in candidates if c.num_coefficients == prefix)
        window, bound = reference_advisor_histogram(
            SeriesFeatureExtractor(prefix), walk_collection, candidate.index.bound_weight()
        )
        assert np.array_equal(candidate.statistics.filter_histogram.values, window)
        assert np.array_equal(candidate.statistics.bound_histogram.values, bound)

    @pytest.mark.parametrize(
        ("representation", "transformed"),
        # A moving average is a complex multiplier: safe in the polar layout only.
        [("polar", False), ("polar", True), ("rectangular", False)],
    )
    def test_filter_only_range_query(self, walk_collection, representation, transformed):
        transformation = moving_average_spectral(LENGTH, 5) if transformed else None
        index = KIndex.bulk_load(
            walk_collection[:100], SeriesFeatureExtractor(2, representation)
        )
        index.extend(walk_collection[100:])  # an open tail takes the same path
        assert index.tail_rows == 20
        for query in walk_collection[::17]:
            loose = index.range_query(query, 4.0, transformation=transformation, exact=False)
            got = [(series.object_id, distance) for series, distance in loose.answers]
            assert got == reference_filter_only(index, query, 4.0, transformation)
            assert got and loose.statistics.postprocessed == 0


class TestTheOddRelations:
    """What the three deleted ``except Exception`` used to absorb, explicit."""

    def test_an_empty_indexed_relation(self):
        index = KIndex(SeriesFeatureExtractor(2))
        stats = indexed_session(index, []).analyze("walks")
        assert (stats.kind, stats.cardinality, stats.record_bytes) == ("feature-indexed", 0, 64)
        assert stats.extent_low is stats.extent_high is stats.spread is None
        assert stats.answer_histogram is stats.filter_histogram is None
        assert stats.tree_summary == index.structure_summary()
        assert stats.tree_summary["node_count"] == 1.0

    def test_a_one_row_relation(self, walk_collection):
        index = KIndex(SeriesFeatureExtractor(2))
        stats = indexed_session(index, walk_collection[:1]).analyze("walks")
        assert stats.answer_histogram is stats.filter_histogram is None
        point = index.record(0)[1].point.values
        assert np.array_equal(stats.extent_low, point)
        assert np.array_equal(stats.extent_high, point)
        assert np.array_equal(stats.spread, np.zeros_like(point))
        assert stats.tree_summary == index.structure_summary()

    def test_an_index_with_an_open_tail(self, walk_collection):
        index = KIndex(SeriesFeatureExtractor(2))
        session = indexed_session(index, walk_collection[:100])
        session.relation("walks").insert_many(walk_collection[100:])
        stats = session.analyze("walks")
        assert (len(index.tree), index.tail_rows) == (100, 20)
        assert_statistics_match_the_reference(stats, index)
        assert stats.basis[-1] == 100  # the packed rows: the next seal moves it

    def test_a_rectangular_three_coefficient_index(self, walk_collection):
        index = KIndex(SeriesFeatureExtractor(3, "rectangular"))
        stats = indexed_session(index, walk_collection).analyze("walks")
        assert_statistics_match_the_reference(stats, index)

    def test_an_index_that_cannot_describe_itself_is_loud(self, walk_collection, monkeypatch):
        index = KIndex(SeriesFeatureExtractor(2))
        session = indexed_session(index, walk_collection)

        def broken():
            raise RuntimeError("no summary")

        monkeypatch.setattr(index, "structure_summary", broken)
        with pytest.raises(RuntimeError, match="no summary"):
            session.analyze("walks")

    def test_unknown_positions_are_refused(self, loaded_index):
        with pytest.raises(IndexError_):
            loaded_index.points(np.array([0, len(loaded_index)]))
        assert loaded_index.points(np.array([], dtype=np.intp)).shape == (0, 6)


# ---------------------------------------------------------------------------
# the mechanism: no per-record object, no relation-sized temporary
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def benchmark_sized():
    """The benchmark's indexed relation: 5000 series of 128 points."""
    data = random_walk_collection(5000, 128, seed=11)
    session = indexed_session(KIndex.bulk_load(data, SeriesFeatureExtractor(2)), data)
    yield session
    session.close()


class TestTheMechanism:
    def test_analyze_builds_no_record_and_calls_no_scalar_distance(
        self, benchmark_sized, monkeypatch
    ):
        calls = {"record": 0, "distance": 0}
        record, distance = KIndex.record, FeatureSpace.distance

        def counted_record(self, record_id):
            calls["record"] += 1
            return record(self, record_id)

        def counted_distance(self, a, b):
            calls["distance"] += 1
            return distance(self, a, b)

        monkeypatch.setattr(KIndex, "record", counted_record)
        monkeypatch.setattr(FeatureSpace, "distance", counted_distance)
        stats = benchmark_sized.analyze("walks")
        assert calls == {"record": 0, "distance": 0}
        assert len(stats.filter_histogram) == 2256 and stats.spread.shape == (6,)

    def test_analyze_holds_no_relation_sized_temporary(self, benchmark_sized):
        benchmark_sized.analyze("walks")  # imports and caches settle outside the trace
        tracemalloc.start()
        try:
            benchmark_sized.analyze("walks")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The relation's spectra are 10 MB; the sample gathers are 48 rows.
        assert peak < 1_000_000


# ---------------------------------------------------------------------------
# the writer keeps them fresh
# ---------------------------------------------------------------------------
class TestTheWriterRefreshes:
    def test_every_front_door_insert_leaves_the_basis_current(self):
        """1 100 rows grow by 40 batches of 12: two cardinality bands (1 262,
        1 577) and one seal (the tail passes 256 rows) — three refreshes."""
        data = random_walk_collection(1100 + 40 * 12, LENGTH, seed=5)
        index = KIndex.bulk_load(data[:1100], SeriesFeatureExtractor(2))
        session = indexed_session(index, data[:1100])
        database, handle = session.database, session.relation("walks")
        analyzed = session.analyze("walks")
        for radius in (2.0, 6.0):  # something learned, to be carried
            session.sql(f"SELECT FROM walks WHERE dist(object, $q) < {radius}", q=data[3])
        learned = (
            analyzed.epoch,
            analyzed.candidate_correction,
            analyzed.answer_correction,
            analyzed.observations,
        )
        assert learned[0] == 1 and learned[3] == 2 and learned[1] != 1.0
        installed, moved_by = [analyzed], []
        for batch in range(40):
            rows = data[1100 + batch * 12 : 1112 + batch * 12]
            before = database.state_token("walks")
            packed = len(index.tree)
            if batch % 2:
                handle.insert_many(rows)
            else:
                for row in rows:
                    handle.insert(row)
            current = database.statistics_for("walks", collect=False)
            assert current.basis == statistics_basis(database, "walks")
            assert current is database.statistics_for("walks")  # a plan collects nothing
            if current is not installed[-1]:
                installed.append(current)
                moved_by.append("seal" if len(index.tree) != packed else "band")
                assert current.tree_summary == index.structure_summary()
                assert current.cardinality == len(handle)
            assert learned == (
                current.epoch,
                current.candidate_correction,
                current.answer_correction,
                current.observations,
            )
            # The token moved by the insert's own components and no other.
            after = database.state_token("walks")
            assert (after[0], after[3]) == (before[0], before[3])
            assert after[1] == before[1] + (1 if batch % 2 else 12)
            assert after[2] == (("default", len(handle)),)
        assert moved_by == ["band", "seal", "band"]
        assert len(index.tree) == 1100 + 22 * 12 and index.tail_rows == 18 * 12

    def test_loading_never_pays_a_first_collection(self, walk_collection, monkeypatch):
        collections = []
        collect = stats_module.collect_statistics

        def counted(database, relation_name, **options):
            collections.append(relation_name)
            return collect(database, relation_name, **options)

        monkeypatch.setattr(stats_module, "collect_statistics", counted)
        session = repro.connect()
        handle = session.relation("walks").insert_many(walk_collection[:60])
        handle.insert(walk_collection[60])
        handle.with_index(KIndex.bulk_load(walk_collection[:61], SeriesFeatureExtractor(2)))
        handle.insert_many(walk_collection[61:])  # 61 -> 120 rows: three bands, unwatched
        assert collections == []
        assert session.database.statistics_for("walks", collect=False) is None
        session.analyze("walks")
        assert collections == ["walks"]  # load, index, analyze: collected once

    def test_registrations_refresh_what_exists(self, walk_collection):
        session = repro.connect()
        handle = session.relation("walks").insert_many(walk_collection)
        scanned = session.database.statistics_for("walks")  # a plan's lazy collection
        assert scanned.kind == "feature" and scanned.epoch == 0
        handle.with_index(KIndex(SeriesFeatureExtractor(2)))
        indexed = session.database.statistics_for("walks", collect=False)
        assert indexed is not scanned and indexed.kind == "feature-indexed"
        assert indexed.basis == statistics_basis(session.database, "walks")
        handle.with_distance(lambda a, b: float(abs(a.values[0] - b.values[0])))
        provided = session.database.statistics_for("walks", collect=False)
        assert provided.kind == "provider" and provided.epoch == 0
        assert provided.basis == statistics_basis(session.database, "walks")

    def test_a_mutation_below_the_handle_falls_back_to_the_plan(self, walk_collection):
        index = KIndex(SeriesFeatureExtractor(2))
        session = indexed_session(index, walk_collection[:100])
        analyzed = session.analyze("walks")
        for series in walk_collection[100:]:  # 100 -> 120 rows: one band, no handle
            index.insert(series)
            session.database.relation("walks").insert(series)
        assert session.database.statistics_for("walks", collect=False) is analyzed
        refreshed = session.database.statistics_for("walks")
        assert refreshed is not analyzed and refreshed.cardinality == 120
        assert refreshed.epoch == analyzed.epoch

    def test_a_checkpoint_refreshes_nothing(self, tmp_path, walk_collection):
        with repro.connect(path=str(tmp_path / "db")) as session:
            session.relation("walks").insert_many(walk_collection).with_index(KIndex())
            analyzed = session.analyze("walks")
            session.checkpoint()
            assert session.database.statistics_for("walks", collect=False) is analyzed
