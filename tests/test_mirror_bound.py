"""The k-NN bound counts each indexed coefficient's conjugate mirror.

A real series of length ``n`` has ``X[n - f] == conj(X[f])``, so for ``f <=
k < n / 2`` each indexed coefficient is in the exact distance twice, and the
k-index's k-NN probe weights the coefficient term of its lower bound by 2
(``KIndex.bound_weight``).  That holds only where the mirror is provably in
the exact distance: a full-record query, every stored record of the query's
length, ``2 k < n``, and no transformation or a spectral one that keeps the
spectrum conjugate-symmetric.  Everywhere else the weight is 1.

Here: by generated evidence, the weighted bound is at most the exact
distance (within ``BOUND_SLACK``) and the answers are the scan's bit for
bit; and one test per fallback, each showing the probe bounded at weight 1.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import (
    KIndex,
    SequentialScan,
    SeriesFeatureExtractor,
    TimeSeries,
    moving_average_spectral,
    random_walk,
    random_walk_collection,
)
from repro.core.spaces import PolarSpace
from repro.core.stats import SAMPLE_SIZE, sample_positions
from repro.index import kindex as kindex_module
from repro.storage import codec
from repro.storage.columnar import exact_distances, query_record, query_records
from repro.timeseries.transforms import (
    SpectralTransformation,
    reverse_spectral,
    scale_spectral,
    shift_spectral,
)

LENGTH = 64


@pytest.fixture()
def weights(monkeypatch):
    """The weight every k-NN bound a probe builds is given."""
    seen = []
    sector, box = PolarSpace.sector_bound, kindex_module.box_bound

    def sector_spy(space, query, weight=1.0):
        seen.append(weight)
        return sector(space, query, weight)

    def box_spy(point, *, extras=0, weight=1.0):
        seen.append(weight)
        return box(point, extras=extras, weight=weight)

    monkeypatch.setattr(PolarSpace, "sector_bound", sector_spy)
    monkeypatch.setattr(kindex_module, "box_bound", box_spy)
    return seen


def _pairs(answers):
    return [(series.object_id, np.float64(distance).tobytes()) for series, distance in answers]


def _transformation(name, length=LENGTH):
    return {
        None: None,
        "mavg": moving_average_spectral(length, 10),
        "reverse": reverse_spectral(length),
        "scale": scale_spectral(length, -1.5),
        "shift": shift_spectral(length, 3.0),
    }[name]


def check_against_the_scan(index, data, query, k, transformation=None, transform_query=True):
    scan = SequentialScan(index.extractor)
    scan.extend(data)
    found = index.nearest_neighbors(
        query, k, transformation=transformation, transform_query=transform_query
    )
    want = scan.nearest_neighbors(
        query, k, transformation=transformation, transform_query=transform_query
    )
    assert _pairs(found.answers) == _pairs(want.answers)


class TestTheWeightedBoundIsALowerBound:
    @given(
        seed=st.integers(0, 10_000),
        count=st.integers(1, 60),
        representation=st.sampled_from(["polar", "rectangular"]),
        coefficients=st.sampled_from([1, 2, 3]),
        name=st.sampled_from([None, "mavg", "reverse", "scale", "shift"]),
        transform_query=st.booleans(),
        k=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_below_the_exact_distance_and_the_scans_answers(
        self, seed, count, representation, coefficients, name, transform_query, k
    ):
        if representation == "rectangular" and name == "mavg":
            return  # a complex multiplier is not safe in Srect
        data = random_walk_collection(count, LENGTH, seed=seed)
        index = KIndex.bulk_load(data, SeriesFeatureExtractor(coefficients, representation))
        transformation = _transformation(name)
        query = random_walk(LENGTH, seed=seed + 1)
        weight = index.bound_weight(transformation, length=len(query))
        assert weight == 2.0
        # Every stored point's weighted bound against its exact distance.
        linear, real_map = index.lower_transformation(transformation)
        features = index.extractor.extract(query)
        point = features.point
        if transform_query:
            point = index._transform_point(point, linear)
        points = index.points(np.arange(count))
        if real_map is not None:
            points = real_map.apply(points)
        bound = (
            index.space.sector_bound(point, weight)
            if representation == "polar"
            else kindex_module.box_bound(point.values, extras=2, weight=weight)
        )
        slack = kindex_module.BOUND_SLACK
        lower = bound(points, points) * (1.0 - slack) - slack * np.abs(point.values).max()
        full = query_record(features, transformation if transform_query else None)
        exact = exact_distances(index.store.records(transformation), query_records([full]), True)
        assert np.all(lower <= exact)
        # And in a tight spot: the query's own record at distance zero.
        check_against_the_scan(index, data, query, k, transformation, transform_query)
        check_against_the_scan(index, data, data[0], k, transformation, transform_query)


class TestTheWeightFallsBackToOne:
    """One test per fallback: each probe bounds at weight 1, and still
    answers as the scan (or, for a bare point, the brute force) does."""

    def test_the_default_weighs_the_mirror(self, weights):
        data = random_walk_collection(80, LENGTH, seed=1)
        index = KIndex.bulk_load(data)
        check_against_the_scan(index, data, data[5], 3)
        assert weights == [2.0]

    def test_the_papers_bound(self, weights):
        data = random_walk_collection(80, LENGTH, seed=1)
        index = KIndex.bulk_load(data, nearest_bound="paper")
        check_against_the_scan(index, data, data[5], 3)
        assert weights == [1.0] and index.bound_weight() == 1.0

    def test_a_feature_vector_query(self, weights):
        """A bare point has no full record: its exact distance is over the
        indexed coefficients alone, which is its filter distance, so a weight
        of 2 would dismiss true answers.  Here it would: the walks are
        normalized and then shifted by up to 3, so a record nearer in its
        mean may be farther in its coefficients than one nearer overall (at
        weight 2, 2 of these 30 probes answer wrongly)."""
        rng = np.random.default_rng(7)

        def shifted(walks):
            return [
                TimeSeries((w.values - w.values.mean()) / w.values.std() + rng.uniform(-3, 3))
                for w in walks
            ]

        data = shifted(random_walk_collection(300, LENGTH, seed=2))
        index = KIndex.bulk_load(data)
        for query in shifted(random_walk_collection(30, LENGTH, seed=3)):
            point = index.extractor.point(query)
            del weights[:]
            found = index.nearest_neighbors(point, 5)
            assert weights == [1.0]
            features = index._query_features(point)
            distances = exact_distances(
                index.store.records(), query_records([query_record(features, None)]), True
            )
            order = np.lexsort((np.arange(len(data)), distances))[:5]
            assert _pairs(found.answers) == [
                (data[row].object_id, distances[row].tobytes()) for row in order
            ]

    def test_a_ragged_relation(self, weights):
        data = random_walk_collection(60, LENGTH, seed=4) + random_walk_collection(60, 48, seed=5)
        index = KIndex.bulk_load(data)
        assert index.bound_weight() == 1.0
        for query in (data[3], data[70]):
            del weights[:]
            check_against_the_scan(index, data, query, 4)
            assert weights == [1.0]

    def test_a_query_of_another_length(self, weights):
        data = random_walk_collection(80, LENGTH, seed=6)
        index = KIndex.bulk_load(data)
        query = random_walk(48, seed=7)
        assert index.bound_weight() == 2.0
        assert index.bound_weight(length=len(query)) == 1.0
        check_against_the_scan(index, data, query, 4)
        assert weights == [1.0]

    def test_a_tail_row_of_another_length(self, weights):
        data = random_walk_collection(80, LENGTH, seed=8)
        index = KIndex.bulk_load(data)
        assert index.bound_weight() == 2.0
        short = TimeSeries(data[9].values[:48], name="short")
        index.extend([short])
        assert index.tail_rows == 1 and index.bound_weight() == 1.0
        check_against_the_scan(index, data + [short], data[9], 4)
        assert weights == [1.0]

    def test_too_many_coefficients_for_the_length(self):
        """``2 k < n`` fails: the mirrors of the last indexed coefficients
        are indexed coefficients themselves."""
        data = random_walk_collection(40, 8, seed=10)
        assert KIndex.bulk_load(data, SeriesFeatureExtractor(3)).bound_weight() == 2.0
        index = KIndex.bulk_load(data, SeriesFeatureExtractor(4))
        assert index.bound_weight() == 1.0
        check_against_the_scan(index, data, data[1], 3)

    def test_a_linear_transformation(self):
        """A prefix-only map proves nothing of the coefficients past ``k``,
        even when it is a symmetric spectral one's prefix."""
        index = KIndex.bulk_load(random_walk_collection(40, LENGTH, seed=11))
        mavg = moving_average_spectral(LENGTH, 10)
        assert index.bound_weight(mavg) == 2.0
        linear = mavg.to_linear(2, skip_first=True, include_extra=True)
        assert index.bound_weight(linear) == 1.0

    def test_a_spectral_transformation_that_is_not_mirror_symmetric(self, weights):
        data = random_walk_collection(80, LENGTH, seed=12)
        index = KIndex.bulk_load(data)
        multiplier = np.ones(LENGTH, dtype=np.complex128)
        multiplier[LENGTH - 1] = 0.25  # the mirror of coefficient 1 shrinks
        lopsided = SpectralTransformation(multiplier, name="lopsided")
        assert index.bound_weight(lopsided) == 1.0
        check_against_the_scan(index, data, data[4], 5, lopsided)
        assert weights == [1.0]

    def test_a_map_symmetric_only_over_the_indexed_coefficients(self, weights):
        """Symmetric over ``f <= k`` but not beyond: the exact kernel reads
        the records whole under it, so the bound is not weighted."""
        data = random_walk_collection(80, LENGTH, seed=18)
        index = KIndex.bulk_load(data)
        multiplier = np.ones(LENGTH, dtype=np.complex128)
        multiplier[LENGTH - 5] = 0.25  # the mirror of coefficient 5, past k = 2
        beyond = SpectralTransformation(multiplier, name="beyond")
        assert not beyond.keeps_mirror and index.bound_weight(beyond) == 1.0
        check_against_the_scan(index, data, data[4], 5, beyond)
        assert weights == [1.0]

    def test_a_transformation_of_another_length(self):
        index = KIndex.bulk_load(random_walk_collection(40, LENGTH, seed=13))
        assert index.bound_weight(moving_average_spectral(2 * LENGTH, 10)) == 1.0

    def test_symmetry_is_judged_within_the_slack(self):
        """A moving average's multiplier is mirror-symmetric only to rounding
        (here not bit for bit); ``keeps_mirror``'s tolerance admits it, and a
        mismatch well above it is refused."""
        mavg = moving_average_spectral(128, 10)
        f = np.arange(1, 3)
        gap = np.abs(mavg.multiplier[f] - np.conj(mavg.multiplier[128 - f])).max()
        assert gap < 1e-15
        assert mavg.keeps_mirror
        skewed = SpectralTransformation(mavg.multiplier * (1 + 1e-6 * (np.arange(128) == 127)))
        assert not skewed.keeps_mirror


class TestADirectoryRecordsTheBound:
    def test_a_checkpointed_index_reopens_at_its_bound(self, tmp_path):
        data = random_walk_collection(50, 32, seed=14)
        for bound in ("paper", "mirror"):
            path = str(tmp_path / bound)
            with repro.connect(path=path) as session:
                session.relation("walks").insert_many(data).with_index(KIndex(nearest_bound=bound))
            reopened = repro.connect(path=path)
            assert reopened.database.deserialized_indexes == 1
            assert reopened.database.index("walks").nearest_bound == bound
            reopened.close()

    def test_a_page_written_before_the_bound_reopens_at_the_default(self, tmp_path):
        data = random_walk_collection(50, 32, seed=15)
        path = str(tmp_path / "db")
        with repro.connect(path=path) as session:
            session.relation("walks").insert_many(data).with_index(KIndex(nearest_bound="paper"))
        page = os.path.join(path, "indexes", "walks", "default.bin")
        with open(page, "rb") as handle:
            document = codec.unframe(handle.read())[0]
        assert document.pop("nearest_bound") == "paper"
        with open(page, "wb") as handle:
            handle.write(codec.frame(document))
        reopened = repro.connect(path=path)
        assert reopened.database.deserialized_indexes == 1
        index = reopened.database.index("walks")
        assert index.nearest_bound == "mirror" and index.bound_weight() == 2.0
        reopened.close()


class TestExplainNamesTheBound:
    def test_the_estimate_names_the_weight_the_probe_uses(self):
        data = random_walk_collection(300, LENGTH, seed=16)
        session = repro.connect()
        session.relation("walks").insert_many(data).with_index(KIndex())
        session.relation("paper").insert_many(data).with_index(KIndex(nearest_bound="paper"))
        lopsided = np.ones(LENGTH, dtype=np.complex128)
        lopsided[LENGTH - 1] = 0.25
        session.engine.register_transformation("lopsided", SpectralTransformation(lopsided))
        session.engine.register_transformation("mavg", moving_average_spectral(LENGTH, 10))
        for text, bound in [
            ("SELECT FROM walks NEAREST 3 TO $q", "mirror ×2"),
            ("SELECT FROM walks NEAREST 3 TO $q USING mavg", "mirror ×2"),
            ("SELECT FROM walks NEAREST 3 TO $q USING lopsided", "paper bound"),
            ("SELECT FROM paper NEAREST 3 TO $q", "paper bound"),
        ]:
            explained = session.explain(session.sql(text, q=data[0]))
            assert "lower-bound ball at the k-th neighbour radius" in explained
            assert explained.count(bound) == 1, text


class TestTheStatisticsFollowTheWeight:
    def test_a_row_of_another_length_refreshes_the_bound_histogram(self):
        """The bound histogram is collected at the index's weight; a write
        that falls the weight back to 1 moves the statistics' basis, so they
        are collected again at once, at 1."""
        data = random_walk_collection(400, LENGTH, seed=17)
        session = repro.connect()
        session.relation("walks").insert_many(data).with_index(KIndex())
        index = session.database.index("walks")

        def bound_values(weight):
            points = index.points(sample_positions(len(index), SAMPLE_SIZE))
            return np.sort(index.space.pairwise(points, weight))

        before = session.analyze("walks")
        assert np.array_equal(before.bound_histogram.values, bound_values(2.0))
        session.relation("walks").insert_many([TimeSeries(data[0].values[:48])])
        after = session.database.statistics_for("walks", collect=False)
        assert after is not before and index.bound_weight() == 1.0
        assert np.array_equal(after.bound_histogram.values, bound_values(1.0))
