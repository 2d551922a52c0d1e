"""Golden-ish coverage of ``planner.explain`` across every plan family.

Each rendered plan must name (a) its plan family, (b) the target relation,
(c) the predicate in canonical surface syntax and (d) the chosen access path
(index name, scan, provider or engine).
"""

from __future__ import annotations

import pytest

from repro import (
    KIndex,
    MetricIndex,
    SeriesFeatureExtractor,
    StringObject,
    connect,
    explain,
    moving_average_spectral,
    random_walk_collection,
)
from repro.strings import edit_distance_provider

LENGTH = 32


@pytest.fixture(scope="module")
def indexed_session():
    data = random_walk_collection(30, LENGTH, seed=13)
    session = connect()
    session.relation("walks").insert_many(data) \
        .with_index(KIndex(SeriesFeatureExtractor(2)))
    session.with_transformation("mavg5", moving_average_spectral(LENGTH, 5))
    return session


@pytest.fixture(scope="module")
def scan_session():
    data = random_walk_collection(10, LENGTH, seed=14)
    session = connect()
    session.relation("raw").insert_many(data)
    return session


@pytest.fixture(scope="module")
def string_session():
    session = connect()
    provider = edit_distance_provider()
    (session.relation("words")
        .insert_many(StringObject(w) for w in ["abc", "abd", "xyz", "abcd"])
        .with_distance(provider)
        .with_index(MetricIndex(provider.distance, leaf_capacity=2)))
    return session


class TestIndexFamily:
    def test_index_range(self, indexed_session):
        text = indexed_session.explain(
            "SELECT FROM walks WHERE dist(object, $q) < 2.0 USING mavg5")
        assert text.startswith("IndexRangePlan on 'walks'")
        assert "DIST(OBJECT, $q) < 2.0" in text
        assert "USING mavg5" in text
        assert "via index 'default'" in text

    def test_index_nearest(self, indexed_session):
        text = indexed_session.explain("SELECT FROM walks NEAREST 3 TO $q")
        assert text.startswith("IndexNearestPlan on 'walks'")
        assert "NEAREST 3 TO $q" in text
        assert "via index 'default'" in text

    def test_index_join(self):
        # The cost model prefers the materialised nested-scan join at small
        # cardinalities, so pin the renderer on a directly built plan.
        from repro.core.query.ast import AllPairsQuery
        from repro.core.query.planner import IndexJoinPlan

        plan = IndexJoinPlan(query=AllPairsQuery(relation="walks", epsilon=0.5),
                             reason="index probes per stored series")
        text = explain(plan)
        assert text.startswith("IndexJoinPlan on 'walks'")
        assert "DIST < 0.5" in text
        assert "via index 'default'" in text

    def test_join_crossover_to_scan_at_small_scale(self, indexed_session):
        text = indexed_session.explain("SELECT PAIRS FROM walks WHERE dist < 0.5")
        assert text.startswith("ScanJoinPlan on 'walks'")
        assert "rejected IndexJoinPlan" in text


class TestScanFamily:
    def test_scan_range(self, scan_session):
        text = scan_session.explain("SELECT FROM raw WHERE dist(object, $q) < 2.0")
        assert text.startswith("ScanRangePlan on 'raw'")
        assert "DIST(OBJECT, $q) < 2.0" in text
        assert "via sequential scan" in text

    def test_scan_nearest(self, scan_session):
        text = scan_session.explain("SELECT FROM raw NEAREST 2 TO $q")
        assert text.startswith("ScanNearestPlan on 'raw'")
        assert "NEAREST 2 TO $q" in text
        assert "via sequential scan" in text

    def test_scan_join(self, scan_session):
        text = scan_session.explain("SELECT PAIRS FROM raw WHERE dist < 1.0")
        assert text.startswith("ScanJoinPlan on 'raw'")
        assert "DIST < 1.0" in text
        assert "via sequential scan" in text


class TestEngineFamily:
    def test_engine_range_with_metric_index(self, string_session):
        text = string_session.explain(
            "SELECT FROM words WHERE dist(object, $q) < 1.0")
        assert text.startswith("EngineRangePlan on 'words'")
        assert "DIST(OBJECT, $q) < 1.0" in text
        assert "via metric index 'default'" in text

    def test_engine_range_provider_scan(self):
        session = connect()
        session.relation("words").insert(StringObject("abc"))
        session.relation("words").with_distance(edit_distance_provider())
        text = session.explain("SELECT FROM words WHERE dist(object, $q) < 1.0")
        assert text.startswith("EngineRangePlan on 'words'")
        assert "via provider scan" in text

    def test_engine_nearest(self, string_session):
        text = string_session.explain("SELECT FROM words NEAREST 2 TO $q")
        assert text.startswith("EngineNearestPlan on 'words'")
        assert "NEAREST 2 TO $q" in text
        assert "via metric index 'default'" in text

    def test_engine_join(self, string_session):
        text = string_session.explain("SELECT PAIRS FROM words WHERE dist < 1.0")
        assert text.startswith("EngineJoinPlan on 'words'")
        assert "DIST < 1.0" in text
        assert "via provider nested loop" in text

    def test_sim_through_engine_with_screening(self, string_session):
        text = string_session.explain(
            "SELECT FROM words WHERE sim(object, $q) < 0.5 COST 2")
        assert text.startswith("EngineRangePlan on 'words'")
        assert "SIM(OBJECT, $q) < 0.5 COST 2.0" in text
        assert "via similarity engine, screened by metric index 'default'" in text


class TestCostAnnotatedExplain:
    """PR 4: explain renders the estimate, the actual cost and the why-nots."""

    def test_estimated_cost_line(self, indexed_session):
        text = indexed_session.explain(
            "SELECT FROM walks WHERE dist(object, $q) < 2.0")
        assert "estimated:" in text
        assert "distance computations" in text

    def test_rejected_alternative_with_higher_estimate(self, indexed_session):
        text = indexed_session.explain(
            "SELECT FROM walks WHERE dist(object, $q) < 2.0")
        assert "rejected ScanRangePlan (via sequential scan)" in text
        plan = indexed_session.engine.plan(
            "SELECT FROM walks WHERE dist(object, $q) < 2.0")
        assert len(plan.rejected) == 1
        assert plan.rejected[0].estimate.total > plan.estimated_cost.total

    def test_outcome_explain_shows_actual_cost(self, indexed_session):
        query = next(iter(indexed_session.relation("walks")))
        outcome = indexed_session.sql(
            "SELECT FROM walks WHERE dist(object, $q) < 2.0", q=query)
        text = indexed_session.explain(outcome)
        assert "actual:" in text
        assert f"{outcome.statistics.io_total} I/O accesses" in text

    def test_sim_explain_shows_unscreened_alternative(self, string_session):
        text = string_session.explain(
            "SELECT FROM words WHERE sim(object, $q) < 0.5 COST 2")
        assert "rejected EngineRangePlan (via similarity engine)" in text


class TestExplainMatchesExecution:
    """session.explain on a prepared query describes the plan that runs."""

    @pytest.mark.parametrize("text,param_needed", [
        ("SELECT FROM walks WHERE dist(object, $q) < 2.0 USING mavg5", True),
        ("SELECT FROM walks NEAREST 3 TO $q", True),
        ("SELECT PAIRS FROM walks WHERE dist < 0.5", False),
    ])
    def test_prepared_explain_is_executed_plan(self, indexed_session,
                                               text, param_needed):
        prepared = indexed_session.prepare(text)
        explained = indexed_session.explain(prepared)
        binding = {"q": next(iter(indexed_session.relation("walks")))} \
            if param_needed else {}
        outcome = prepared.run(binding)
        assert outcome.plan is prepared.plan()
        assert explained == explain(outcome.plan)
