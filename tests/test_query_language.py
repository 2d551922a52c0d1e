"""Tests for the query language: parser, planner and end-to-end execution."""

from __future__ import annotations

import pytest

from repro.core.database import Database
from repro.core.errors import QueryPlanningError, QuerySyntaxError
from repro.core.query.ast import AllPairsQuery, NearestNeighborQuery, RangeQuery
from repro.core.query.executor import QueryEngine
from repro.core.query.parser import parse, tokenize
from repro.core.query.planner import (
    IndexNearestPlan,
    IndexRangePlan,
    Planner,
    ScanJoinPlan,
    ScanNearestPlan,
    ScanRangePlan,
    explain,
)
from repro.index.kindex import KIndex
from repro.timeseries.features import SeriesFeatureExtractor
from repro.timeseries.generators import random_walk_collection
from repro.timeseries.transforms import moving_average_spectral


class TestParser:
    def test_tokenize(self):
        tokens = tokenize("SELECT FROM r WHERE dist(object, $q) < 2.5")
        kinds = [token.kind for token in tokens]
        assert "param" in kinds and "number" in kinds and "symbol" in kinds

    def test_tokenize_rejects_garbage(self):
        with pytest.raises(QuerySyntaxError):
            tokenize("SELECT ~ FROM r")

    def test_parse_range_query(self):
        query = parse("SELECT FROM prices WHERE dist(object, $q) < 2.5 USING mavg20")
        assert query == RangeQuery(relation="prices", transformation="mavg20",
                                   parameter="q", epsilon=2.5, transform_query=True)

    def test_parse_range_query_raw(self):
        query = parse("select from prices where dist(object, $q) < 1 using rev raw query")
        assert isinstance(query, RangeQuery)
        assert query.transform_query is False
        assert query.epsilon == 1.0

    def test_parse_nearest(self):
        query = parse("SELECT FROM prices NEAREST 5 TO $target")
        assert query == NearestNeighborQuery(relation="prices", transformation=None,
                                             parameter="target", k=5, transform_query=True)

    def test_parse_pairs(self):
        query = parse("SELECT PAIRS FROM prices WHERE dist < 3.0 USING mavg20")
        assert query == AllPairsQuery(relation="prices", transformation="mavg20",
                                      epsilon=3.0)

    def test_parse_object_keyword_is_domain_neutral(self):
        neutral = parse("SELECT FROM words WHERE dist(object, $q) < 2.5")
        assert neutral == parse("SELECT FROM words WHERE DIST(OBJECT, $q) < 2.5")

    @pytest.mark.parametrize("head", ["DIST", "SIM"])
    def test_the_series_keyword_is_gone(self, head):
        with pytest.raises(QuerySyntaxError, match="expected OBJECT, found 'SERIES'"):
            parse(f"SELECT FROM walks WHERE {head}(SERIES, $q) < 1")

    @pytest.mark.parametrize("literal,expected", [
        (".5", 0.5), ("1e-3", 0.001), ("2.5E+4", 25000.0), ("3.", 3.0), ("7", 7.0),
    ])
    def test_number_literal_forms(self, literal, expected):
        query = parse(f"SELECT FROM r WHERE dist(object, $q) < {literal}")
        assert query.epsilon == expected

    def test_parse_sim_query(self):
        from repro.core.query.ast import SimilarityQuery
        query = parse("SELECT FROM words WHERE sim(object, $q) < 0.5 COST 2")
        assert query == SimilarityQuery(relation="words", parameter="q",
                                        epsilon=0.5, cost_bound=2.0)
        unbounded = parse("SELECT FROM words WHERE sim(object, $q) < 0.5")
        assert unbounded.cost_bound == float("inf")

    def test_nearest_rejects_fractional_k(self):
        # Regression: `NEAREST 2.5` used to silently truncate k to 2.
        with pytest.raises(QuerySyntaxError):
            parse("SELECT FROM r NEAREST 2.5 TO $q")

    def test_nearest_rejects_non_positive_k(self):
        with pytest.raises(QuerySyntaxError):
            parse("SELECT FROM r NEAREST 0 TO $q")

    def test_nearest_accepts_exponent_integer(self):
        assert parse("SELECT FROM r NEAREST 1e2 TO $q").k == 100

    @pytest.mark.parametrize("text", [
        "",
        "SELECT prices",
        "SELECT FROM prices",
        "SELECT FROM prices WHERE dist(series q) < 1",
        "SELECT FROM prices WHERE dist(object, $q) < abc",
        "SELECT FROM prices WHERE dist(thing, $q) < 1",
        "SELECT FROM prices NEAREST x TO $q",
        "SELECT FROM prices WHERE dist(object, $q) < 1 trailing",
        "SELECT PAIRS FROM prices WHERE dist < 1 USING",
        "SELECT FROM words WHERE sim(object, $q) < 1 COST",
        "SELECT FROM words WHERE sim(object) < 1",
    ])
    def test_syntax_errors(self, text):
        with pytest.raises(QuerySyntaxError):
            parse(text)


@pytest.fixture(scope="module")
def engine_setup():
    data = random_walk_collection(80, 64, seed=55)
    database = Database("market")
    database.create_relation("prices", data)
    index = KIndex(SeriesFeatureExtractor(2))
    index.extend(data)
    database.register_index("prices", index)
    engine = QueryEngine(database)
    engine.register_transformation("mavg10", moving_average_spectral(64, 10))
    return data, database, engine


class TestPlanner:
    def test_index_plan_when_index_exists(self, engine_setup):
        _, database, _ = engine_setup
        planner = Planner(database)
        plan = planner.plan(RangeQuery(relation="prices", epsilon=1.0))
        assert isinstance(plan, IndexRangePlan)
        assert "prices" in explain(plan)

    def test_scan_plan_without_index(self, engine_setup):
        data, _, _ = engine_setup
        database = Database()
        database.create_relation("raw", data[:10])
        planner = Planner(database)
        assert isinstance(planner.plan(RangeQuery(relation="raw", epsilon=1.0)),
                          ScanRangePlan)
        assert isinstance(planner.plan(NearestNeighborQuery(relation="raw", k=2)),
                          ScanNearestPlan)

    def test_unknown_relation(self, engine_setup):
        _, database, _ = engine_setup
        with pytest.raises(QueryPlanningError):
            Planner(database).plan(RangeQuery(relation="nope", epsilon=1.0))

    def test_huge_threshold_prefers_scan(self, engine_setup):
        _, database, _ = engine_setup
        planner = Planner(database)
        plan = planner.plan(RangeQuery(relation="prices", epsilon=1e6))
        assert isinstance(plan, ScanRangePlan)
        assert "crossover" in plan.reason

    def test_unsafe_transformation_forces_scan(self, engine_setup):
        data, _, _ = engine_setup
        database = Database()
        database.create_relation("prices", data)
        rect_index = KIndex(SeriesFeatureExtractor(2, "rectangular"))
        rect_index.extend(data)
        database.register_index("prices", rect_index)
        planner = Planner(database)
        plan = planner.plan(RangeQuery(relation="prices", epsilon=1.0),
                            transformation=moving_average_spectral(64, 10))
        assert isinstance(plan, ScanRangePlan)

    def test_nearest_prefers_index(self, engine_setup):
        _, database, _ = engine_setup
        planner = Planner(database)
        assert isinstance(planner.plan(NearestNeighborQuery(relation="prices", k=3)),
                          IndexNearestPlan)

    def test_join_prefers_scan_at_this_scale(self, engine_setup):
        # The in-memory nested scan join pays its pages once and
        # early-abandons pair distances, so at 80 records it undercuts 80
        # per-record index probes; the index probes stay enumerated (and
        # win in the cost model once the quadratic term dominates).
        _, database, _ = engine_setup
        planner = Planner(database)
        plan = planner.plan(AllPairsQuery(relation="prices", epsilon=1.0))
        assert isinstance(plan, ScanJoinPlan)
        assert any(entry.family == "IndexJoinPlan" for entry in plan.rejected)


class TestQueryEngine:
    def test_range_query_end_to_end(self, engine_setup):
        data, _, engine = engine_setup
        outcome = engine.execute(
            "SELECT FROM prices WHERE dist(object, $q) < 3.0 USING mavg10",
            parameters={"q": data[0]})
        assert isinstance(outcome.plan, IndexRangePlan)
        assert any(series.object_id == data[0].object_id for series, _ in outcome.answers)
        assert outcome.elapsed_seconds >= 0.0

    def test_index_and_scan_plans_agree(self, engine_setup):
        data, database, engine = engine_setup
        query_text = "SELECT FROM prices WHERE dist(object, $q) < 4.0 USING mavg10"
        with_index = engine.execute(query_text, parameters={"q": data[3]})
        # A second engine over a catalog without the index must produce the
        # same answers through the scan plan.
        bare = Database()
        bare.create_relation("prices", data)
        scan_engine = QueryEngine(bare, {"mavg10": moving_average_spectral(64, 10)})
        with_scan = scan_engine.execute(query_text, parameters={"q": data[3]})
        assert isinstance(with_scan.plan, ScanRangePlan)
        assert sorted(s.object_id for s, _ in with_index.answers) == \
            sorted(s.object_id for s, _ in with_scan.answers)

    def test_nearest_neighbor_query(self, engine_setup):
        data, _, engine = engine_setup
        outcome = engine.execute("SELECT FROM prices NEAREST 3 TO $q",
                                 parameters={"q": data[5]})
        assert len(outcome) == 3
        assert outcome.answers[0][0].object_id == data[5].object_id

    def test_all_pairs_query(self, engine_setup):
        data, _, engine = engine_setup
        outcome = engine.execute("SELECT PAIRS FROM prices WHERE dist < 1.0 USING mavg10")
        for a, b, distance in outcome.answers:
            assert a.object_id != b.object_id
            assert distance <= 1.0

    def test_missing_parameter(self, engine_setup):
        _, _, engine = engine_setup
        with pytest.raises(QueryPlanningError):
            engine.execute("SELECT FROM prices WHERE dist(object, $q) < 1.0")

    def test_unknown_transformation(self, engine_setup):
        data, _, engine = engine_setup
        with pytest.raises(QueryPlanningError):
            engine.execute("SELECT FROM prices WHERE dist(object, $q) < 1.0 USING nope",
                           parameters={"q": data[0]})

    def test_ast_input_accepted(self, engine_setup):
        data, _, engine = engine_setup
        outcome = engine.execute(RangeQuery(relation="prices", epsilon=2.0, parameter="q"),
                                 parameters={"q": data[1]})
        assert len(outcome) >= 1

    def test_register_transformation_later(self, engine_setup):
        data, _, engine = engine_setup
        engine.register_transformation("mavg5", moving_average_spectral(64, 5))
        outcome = engine.execute(
            "SELECT FROM prices WHERE dist(object, $q) < 2.0 USING mavg5",
            parameters={"q": data[2]})
        assert len(outcome) >= 1


class TestScanCacheLifecycle:
    """Regressions: materialised scans must not outlive their relations."""

    def _scan_engine(self, data):
        database = Database()
        database.create_relation("walks", data[:20])
        return database, QueryEngine(database)

    def test_drop_relation_hook_evicts_scan(self, engine_setup):
        data, _, _ = engine_setup
        database, engine = self._scan_engine(data)
        engine.execute("SELECT FROM walks WHERE dist(object, $q) < 2.0",
                       parameters={"q": data[0]})
        assert "walks" in engine._scans
        engine.drop_relation("walks")
        assert "walks" not in engine._scans
        assert "walks" not in database

    def test_drop_recreate_churn_does_not_leak_scans(self, engine_setup):
        data, _, _ = engine_setup
        database, engine = self._scan_engine(data)
        query = "SELECT FROM walks WHERE dist(object, $q) < 2.0"
        reference = engine.execute(query, parameters={"q": data[0]})
        for round_number in range(5):
            database.drop_relation("walks")
            database.create_relation("walks", data[:20])
            outcome = engine.execute(query, parameters={"q": data[0]})
            assert sorted(s.object_id for s, _ in outcome.answers) == \
                sorted(s.object_id for s, _ in reference.answers)
            assert len(engine._scans) == 1

    def test_dropped_relation_scan_evicted_on_other_relation_miss(self, engine_setup):
        data, _, _ = engine_setup
        database, engine = self._scan_engine(data)
        database.create_relation("other", data[20:40])
        engine.execute("SELECT FROM walks WHERE dist(object, $q) < 2.0",
                       parameters={"q": data[0]})
        database.drop_relation("walks")
        # Building the scan for a different relation purges the stale entry.
        engine.execute("SELECT FROM other WHERE dist(object, $q) < 2.0",
                       parameters={"q": data[21]})
        assert set(engine._scans) == {"other"}
