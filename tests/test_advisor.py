"""Index advisor: candidate pricing, recommendation, catalog installation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.advisor import (
    ADVISOR_PROVIDER_NAME,
    CandidateConfiguration,
    IndexAdvisor,
    ProfiledQuery,
    WorkloadProfile,
)
from repro.core.database import DistanceProvider
from repro.core.errors import CatalogError
from repro.core.query.costmodel import QueryCostModel
from repro.core.session import connect
from repro.strings import StringObject, edit_distance_provider
from repro.core.stats import DistanceHistogram, RelationStatistics
from repro.bench.workloads import WorkloadSpec, generate_workload
from repro.timeseries.generators import random_walk_collection


def _provider_stats(cardinality: int, distances) -> RelationStatistics:
    return RelationStatistics(
        relation="r",
        cardinality=cardinality,
        kind="provider",
        record_bytes=256,
        answer_histogram=DistanceHistogram(np.asarray(distances, dtype=np.float64)),
    )


def _profile(*entries: ProfiledQuery) -> WorkloadProfile:
    return WorkloadProfile(relation="r", entries=entries, total_queries=len(entries))


def reference_estimate(model, candidate, entry, cardinality):
    """The advisor's pricing as it was: its own ladder over the families."""
    stats = candidate.statistics
    epsilon = 0.0 if entry.epsilon is None else float(entry.epsilon)
    k = 1 if entry.k is None else int(entry.k)
    if candidate.kind == "kindex":
        if entry.family == "range":
            options = [
                model.index_range(stats, cardinality, epsilon),
                model.scan_range(stats, cardinality, epsilon),
            ]
        elif entry.family == "nearest":
            options = [
                model.index_nearest(stats, cardinality, k),
                model.scan_nearest(stats, cardinality, k),
            ]
        else:
            options = [
                model.index_join(stats, cardinality, epsilon),
                model.scan_join(stats, cardinality, epsilon),
            ]
    elif candidate.kind == "metric":
        if entry.family == "range":
            options = [
                model.metric_range(stats, cardinality, epsilon),
                model.provider_scan_range(stats, cardinality, epsilon),
            ]
        elif entry.family == "nearest":
            options = [
                model.metric_nearest(stats, cardinality, k),
                model.provider_scan_nearest(stats, cardinality, k),
            ]
        else:
            options = [model.provider_join(stats, cardinality, epsilon)]
    elif stats.kind == "provider":
        if entry.family == "range":
            options = [model.provider_scan_range(stats, cardinality, epsilon)]
        elif entry.family == "nearest":
            options = [model.provider_scan_nearest(stats, cardinality, k)]
        else:
            options = [model.provider_join(stats, cardinality, epsilon)]
    elif entry.family == "range":
        options = [model.scan_range(stats, cardinality, epsilon)]
    elif entry.family == "nearest":
        options = [model.scan_nearest(stats, cardinality, k)]
    else:
        options = [model.scan_join(stats, cardinality, epsilon)]
    return min(options, key=lambda estimate: estimate.total)


class TestSyntheticStatistics:
    """Pure pricing tests: no catalog, hand-built RelationStatistics."""

    def test_selective_range_mix_prefers_metric_index(self):
        # Pair distances cluster far above the query radius: the metric
        # tree prunes almost everything while the provider scan pays one
        # exact distance per record, every query.
        stats = _provider_stats(1000, np.linspace(5.0, 50.0, 200))
        candidates = [
            CandidateConfiguration(kind="none", num_coefficients=None, statistics=stats),
            CandidateConfiguration(kind="metric", num_coefficients=None, statistics=stats),
        ]
        advisor = IndexAdvisor()
        profile = _profile(ProfiledQuery(family="range", epsilon=0.5, weight=10.0))
        for candidate in candidates:
            candidate.estimated_cost = advisor.price(candidate, profile, 1000)
        recommendation = advisor.recommend_from("r", profile, candidates)
        assert recommendation.kind == "metric"
        assert candidates[1].estimated_cost < candidates[0].estimated_cost

    def test_join_mix_ties_to_the_simpler_configuration(self):
        # Both configurations run the same quadratic provider join, so the
        # estimates tie — and within the tie band the simpler design wins.
        stats = _provider_stats(200, np.linspace(1.0, 10.0, 100))
        candidates = [
            CandidateConfiguration(kind="none", num_coefficients=None, statistics=stats),
            CandidateConfiguration(kind="metric", num_coefficients=None, statistics=stats),
        ]
        advisor = IndexAdvisor()
        profile = _profile(ProfiledQuery(family="join", epsilon=2.0))
        for candidate in candidates:
            candidate.estimated_cost = advisor.price(candidate, profile, 200)
        recommendation = advisor.recommend_from("r", profile, candidates)
        assert recommendation.kind == "none"
        assert candidates[0].estimated_cost == candidates[1].estimated_cost

    def test_empty_candidate_list_rejected(self):
        with pytest.raises(CatalogError):
            IndexAdvisor().recommend_from("r", _profile(), [])

    def test_profile_weights_scale_costs(self):
        stats = _provider_stats(100, np.linspace(1.0, 10.0, 50))
        candidate = CandidateConfiguration(
            kind="none", num_coefficients=None, statistics=stats)
        advisor = IndexAdvisor()
        single = advisor.price(
            candidate, _profile(ProfiledQuery(family="range", epsilon=1.0)), 100)
        tripled = advisor.price(
            candidate,
            _profile(ProfiledQuery(family="range", epsilon=1.0, weight=3.0)), 100)
        assert tripled == pytest.approx(3.0 * single)


class TestLiveRecommendation:
    """End-to-end: advise/autotune against a real catalog."""

    SELECTIVE = WorkloadSpec(
        name="selective", num_series=150, length=32, data_seed=3, seed=5,
        num_queries=12, mix={"range": 1.0}, selectivity=(0.005, 0.02))
    SCAN_CHEAP = WorkloadSpec(
        name="scan-cheap", num_series=150, length=32, data_seed=3, seed=5,
        num_queries=12, mix={"range": 1.0}, selectivity=(0.6, 0.9))

    def _session(self, spec):
        workload = generate_workload(spec)
        session = connect()
        session.relation(spec.relation, workload.data())
        return session, workload

    def test_selective_mix_recommends_an_index(self):
        session, workload = self._session(self.SELECTIVE)
        recommendation = session.advise("series", workload)
        assert recommendation.kind in ("kindex", "metric")
        kinds = [candidate.kind for candidate in recommendation.candidates]
        assert kinds[0] == "none" and "metric" in kinds and "kindex" in kinds

    def test_scan_cheap_mix_recommends_no_index(self):
        session, workload = self._session(self.SCAN_CHEAP)
        recommendation = session.advise("series", workload)
        assert recommendation.kind == "none"

    def test_autotune_installs_through_the_catalog(self):
        session, workload = self._session(self.SELECTIVE)
        database = session.database
        assert not database.has_index("series")
        recommendation = session.autotune("series", workload)
        assert database.has_index("series")
        if recommendation.kind == "metric":
            provider = database.distance_provider("series")
            assert provider.name == ADVISOR_PROVIDER_NAME

    def test_autotune_preserves_answers(self):
        session, workload = self._session(self.SELECTIVE)
        query = workload.queries[0]
        before = session.sql(query.text, query.bindings()).answers
        session.autotune("series", workload)
        after = session.sql(query.text, query.bindings()).answers
        names = lambda answers: sorted(obj.name for obj, _ in answers)  # noqa: E731
        assert names(after) == names(before)

    def test_reautotune_resets_the_previous_choice(self):
        session, workload = self._session(self.SELECTIVE)
        session.autotune("series", workload)
        scan_workload = generate_workload(self.SCAN_CHEAP)
        recommendation = session.autotune("series", scan_workload)
        database = session.database
        assert recommendation.kind == "none"
        assert not database.has_index("series")
        assert not database.has_distance_provider("series")

    def test_user_provider_is_never_dropped(self):
        session, workload = self._session(self.SELECTIVE)
        from repro.core.advisor import series_exact_distance
        session.database.register_distance(
            "series",
            DistanceProvider(distance=series_exact_distance(), name="user-metric"))
        session.autotune("series", workload)
        provider = session.database.distance_provider("series")
        assert provider.name == "user-metric"

    def test_advise_rejects_non_profile_workloads(self):
        session, _ = self._session(self.SELECTIVE)
        with pytest.raises(CatalogError):
            session.advise("series", object())

    def test_empty_relation_rejected(self):
        session = connect()
        session.relation("series", [])
        workload = generate_workload(self.SELECTIVE)
        with pytest.raises(CatalogError):
            session.advise("series", workload)

    def test_stale_whatif_index_is_rebuilt(self):
        session, workload = self._session(self.SELECTIVE)
        recommendation = session.advise("series", workload)
        # The relation grows between advising and installing: the stale
        # what-if index must be rebuilt to cover the new rows.
        extra = random_walk_collection(10, 32, seed=99)
        session.relation("series").insert_many(extra)
        from repro.core.advisor import apply_recommendation
        apply_recommendation(session.database, recommendation)
        if recommendation.kind in ("kindex", "metric"):
            index = session.database.index("series")
            assert len(index) == len(session.database.relation("series"))


WORDS = ["pattern", "lantern", "eastern", "western", "matter", "butter", "letter",
         "better", "query", "quart", "quarry", "carry", "berry", "tern", "turn"]


def _entries():
    for epsilon in (None, 0.0, 0.5, 2.0, 6.0, 15.0, 40.0):
        yield ProfiledQuery(family="range", epsilon=epsilon)
        yield ProfiledQuery(family="join", epsilon=epsilon)
    for k in (None, 1, 3, 10, 60):
        yield ProfiledQuery(family="nearest", k=k)


class TestPricingEqualsTheReference:
    """Every candidate kind x query shape x radius or k prices bit for bit
    as the advisor's own ladder did, under a serial and a parallel model."""

    def _candidates(self):
        workload = generate_workload(TestLiveRecommendation.SELECTIVE)
        session = connect()
        session.relation("series", workload.data())
        session.analyze("series")
        provider = edit_distance_provider()
        session.relation("words").insert_many(StringObject(w) for w in WORDS).with_distance(
            provider)
        advisor = IndexAdvisor()
        feature = advisor.candidates(session.database, "series")
        strings = advisor.candidates(session.database, "words")
        stats = _provider_stats(1000, np.linspace(5.0, 50.0, 200))
        synthetic = [
            CandidateConfiguration(kind=kind, num_coefficients=None, statistics=stats)
            for kind in ("none", "metric")
        ]
        assert [c.kind for c in feature] == ["none", "kindex", "kindex", "kindex", "metric"]
        assert [c.kind for c in strings] == ["none", "metric"]
        return [(c, 150) for c in feature] + [(c, len(WORDS)) for c in strings] + [
            (c, 1000) for c in synthetic]

    @pytest.mark.parametrize("workers", [None, 2])
    def test_every_kind_shape_and_argument(self, workers):
        model = QueryCostModel(workers=workers)
        advisor = IndexAdvisor(model)
        for candidate, cardinality in self._candidates():
            for entry in _entries():
                expected = reference_estimate(model, candidate, entry, cardinality)
                actual = advisor._estimate(candidate, entry, cardinality)
                assert actual == expected, (candidate.describe(), entry)
                assert actual.total == expected.total


class TestTheAdvisorPricesWithThePlannersModel:
    """``Session.advise`` prices with ``engine.planner.cost_model``: a
    parallel session's scans at the critical path, a session's observed
    buffer-pool behaviour, exactly as its planner prices them."""

    def _advise(self, session):
        spec = TestLiveRecommendation.SELECTIVE
        workload = generate_workload(spec)
        session.relation(spec.relation, workload.data())
        recommendation = session.advise(spec.relation, workload)
        planner_advisor = IndexAdvisor(session.engine.planner.cost_model)
        fresh_advisor = IndexAdvisor()
        moved = 0
        for candidate in recommendation.candidates:
            priced = planner_advisor.price(candidate, recommendation.profile, spec.num_series)
            assert candidate.estimated_cost == priced, candidate.describe()
            fresh = fresh_advisor.price(candidate, recommendation.profile, spec.num_series)
            moved += fresh != priced
        return moved

    def test_a_parallel_session(self):
        session = connect(workers=2)
        assert session.engine.planner.cost_model.workers == 2
        assert self._advise(session) > 0

    def test_after_buffer_pool_observations(self):
        session = connect()
        session.engine.planner.cost_model.observe_buffer(hits=9, misses=1)
        assert self._advise(session) > 0
