"""End-to-end tests: the string domain through the query language.

Covers the full path — parse, plan, run (metric index / generic similarity
engine / provider scan), answer-cache hit, invalidation on relation mutation
— plus the planner's choices for provider-backed relations.
"""

from __future__ import annotations

import pytest

from repro import parse_query
from repro.core.database import Database, DistanceProvider
from repro.core.errors import CatalogError, QueryPlanningError
from repro.core.query import executor as executor_module
from repro.core.query.ast import SimilarityQuery
from repro.core.query.costmodel import QueryCostModel
from repro.core.query.executor import QueryEngine
from repro.core.query.planner import (
    EngineJoinPlan,
    EngineNearestPlan,
    EngineRangePlan,
    Planner,
)
from repro.core.rules import TransformationRuleSet
from repro.core.similarity import SimilarityEngine
from repro.index.metric import MetricIndex
from repro.strings import StringObject, edit_distance_provider, weighted_edit_distance
from repro.strings.edit_transforms import DeleteCharacter

WORDS = [
    "pattern", "lantern", "eastern", "western", "battern", "matter", "butter",
    "letter", "better", "litter", "query", "quart", "quarry", "carry", "berry",
    "cherry", "tern", "turn", "torn", "term", "stern", "patter", "platter",
    # Distinct clusters (word length lower-bounds the edit distance, so the
    # metric tree prunes them wholesale for short queries):
    "transformation", "transformations", "conformation", "information",
    "informations", "deformation", "reformation", "malformation",
    "similarity", "similarities", "dissimilarity", "singularity",
    "regularity", "popularity", "peculiarity", "particularity",
    "internationalization", "internationalisation", "institutionalization",
    "a", "ab", "abc", "ox", "axe", "oxen",
]


def _fresh_setup(*, with_index: bool):
    database = Database("text")
    database.create_relation("words", [StringObject(word) for word in WORDS])
    provider = edit_distance_provider()
    database.register_distance("words", provider)
    if with_index:
        index = MetricIndex(provider.distance, leaf_capacity=4)
        index.extend(database.relation("words"))
        database.register_index("words", index)
    return database, QueryEngine(database)


@pytest.fixture()
def indexed():
    return _fresh_setup(with_index=True)


class TestProviderPlanning:
    def test_range_uses_metric_index(self, indexed):
        database, _ = indexed
        plan = Planner(database).plan(
            parse_query("SELECT FROM words WHERE dist(object, $q) < 2"))
        assert isinstance(plan, EngineRangePlan)
        assert plan.index_name == "default"
        assert not plan.via_engine

    def test_range_without_index_scans_through_provider(self):
        database, _ = _fresh_setup(with_index=False)
        plan = Planner(database).plan(
            parse_query("SELECT FROM words WHERE dist(object, $q) < 2"))
        assert isinstance(plan, EngineRangePlan)
        assert plan.index_name is None

    def test_sim_query_goes_through_engine_with_index_screening(self, indexed):
        database, _ = indexed
        plan = Planner(database).plan(
            parse_query("SELECT FROM words WHERE sim(object, $q) < 0.5 COST 2"))
        assert isinstance(plan, EngineRangePlan)
        assert plan.via_engine
        # The edit provider declares cost_bounds_distance, so the metric
        # index screens candidates at radius cost_bound + epsilon.
        assert plan.index_name == "default"

    def test_sim_query_skips_index_without_cost_bound_guarantee(self, indexed):
        database, _ = indexed
        provider = edit_distance_provider()
        database.register_distance(
            "words", DistanceProvider(distance=provider.distance, rules=provider.rules,
                                      cost_bounds_distance=False, name="unscreened"))
        plan = Planner(database).plan(
            parse_query("SELECT FROM words WHERE sim(object, $q) < 0.5 COST 2"))
        assert isinstance(plan, EngineRangePlan)
        assert plan.via_engine
        # Without the guarantee, base-distance pruning could dismiss true
        # answers (the transformation distance lies below the base distance).
        assert plan.index_name is None

    def test_sim_query_skips_index_with_unbounded_cost(self, indexed):
        database, _ = indexed
        plan = Planner(database).plan(
            parse_query("SELECT FROM words WHERE sim(object, $q) < 0.5"))
        assert isinstance(plan, EngineRangePlan)
        assert plan.via_engine and plan.index_name is None

    def test_nearest_and_pairs_plans(self, indexed):
        database, _ = indexed
        assert isinstance(Planner(database).plan(
            parse_query("SELECT FROM words NEAREST 3 TO $q")), EngineNearestPlan)
        assert isinstance(Planner(database).plan(
            parse_query("SELECT PAIRS FROM words WHERE dist < 1")), EngineJoinPlan)

    def test_sim_without_provider_rejected(self):
        database = Database()
        database.create_relation("bare", [StringObject("abc")])
        with pytest.raises(QueryPlanningError):
            Planner(database).plan(SimilarityQuery(relation="bare", epsilon=1.0))

    def test_sim_without_rules_rejected(self):
        database = Database()
        database.create_relation("words", [StringObject("abc")])
        database.register_distance("words", weighted_edit_distance)
        with pytest.raises(QueryPlanningError):
            Planner(database).plan(SimilarityQuery(relation="words", epsilon=1.0))

    def test_using_transformation_rejected_for_provider_relation(self, indexed):
        _, engine = indexed
        from repro.timeseries.transforms import moving_average_spectral
        engine.register_transformation("mavg", moving_average_spectral(64, 10))
        with pytest.raises(QueryPlanningError):
            engine.execute("SELECT FROM words WHERE dist(object, $q) < 2 USING mavg",
                           parameters={"q": StringObject("pattern")})


class TestStringExecution:
    def test_range_matches_brute_force_with_fewer_distances(self, indexed):
        _, engine = indexed
        queries = ["SELECT FROM words WHERE dist(object, $q) < 1.5",
                   "SELECT FROM words WHERE dist(object, $q) < 2.0",
                   "SELECT FROM words WHERE dist(object, $q) < .5"]
        bindings = [{"q": StringObject("pattern")}, {"q": StringObject("betters")},
                    {"q": StringObject("tern")}]
        outcomes = engine.execute_many(queries, parameters=bindings)
        for outcome, text, binding in zip(outcomes, queries, bindings):
            epsilon = float(text.rsplit("<", 1)[1])
            brute = sorted(((w, weighted_edit_distance(binding["q"], w))
                            for w in WORDS
                            if weighted_edit_distance(binding["q"], w) <= epsilon),
                           key=lambda pair: pair[1])
            assert sorted((obj.text, d) for obj, d in outcome.answers) == \
                sorted((word, d) for word, d in brute)
            # The tentpole claim: triangle-inequality pruning computes
            # measurably fewer exact distances than the brute-force scan.
            assert outcome.statistics.postprocessed < len(WORDS)

    def test_batched_metric_queries_share_one_traversal(self, indexed):
        _, engine = indexed
        text = "SELECT FROM words WHERE dist(object, $q) < 1.5"
        bindings = [{"q": StringObject(w)} for w in ("pattern", "turn", "butter")]
        batched = engine.execute_many([text] * 3, parameters=bindings)
        singles = [engine.execute(text, parameters=b) for b in bindings]
        for group_outcome, single in zip(batched, singles):
            assert [(o.text, d) for o, d in group_outcome.answers] == \
                [(o.text, d) for o, d in single.answers]

    def test_nearest_neighbors(self, indexed):
        _, engine = indexed
        query = StringObject("petter")
        outcome = engine.execute("SELECT FROM words NEAREST 4 TO $q",
                                 parameters={"q": query})
        expected = sorted(weighted_edit_distance(query, w) for w in WORDS)[:4]
        assert [d for _, d in outcome.answers] == pytest.approx(expected)

    def test_sim_query_answers_within_cost_bound(self, indexed):
        _, engine = indexed
        query = StringObject("pattern")
        outcome = engine.execute(
            "SELECT FROM words WHERE sim(object, $q) < 0.5 COST 2",
            parameters={"q": query})
        expected = sorted(w for w in WORDS if weighted_edit_distance(query, w) <= 2)
        assert sorted(obj.text for obj, _ in outcome.answers) == expected
        # Each reported distance is a valid witness: cost + residual <= bound.
        assert all(d <= 2.0 for _, d in outcome.answers)

    def test_sim_screening_matches_unscreened_evaluation(self):
        # A small dictionary keeps the deliberately-unscreened evaluation
        # (full bounded-cost search against every word) affordable.
        small = WORDS[:16]
        text = "SELECT FROM words WHERE sim(object, $q) < 0.5 COST 2"
        binding = {"q": StringObject("quarts")}
        provider = edit_distance_provider()

        def build(screened: bool):
            database = Database()
            database.create_relation("words", [StringObject(w) for w in small])
            if screened:
                database.register_distance("words", provider)
                index = MetricIndex(provider.distance, leaf_capacity=4)
                index.extend(database.relation("words"))
                database.register_index("words", index)
            else:
                database.register_distance(
                    "words", DistanceProvider(distance=provider.distance,
                                              rules=provider.rules,
                                              cost_bounds_distance=False,
                                              name="unscreened"))
            return QueryEngine(database)

        screened = build(screened=True).execute(text, parameters=binding)
        unscreened = build(screened=False).execute(text, parameters=binding)
        assert screened.plan.index_name == "default"
        assert unscreened.plan.index_name is None
        assert sorted((o.text, d) for o, d in screened.answers) == \
            sorted((o.text, d) for o, d in unscreened.answers)
        # Screening is the point: far fewer engine evaluations.
        assert screened.statistics.postprocessed < unscreened.statistics.postprocessed

    def test_all_pairs(self, indexed):
        _, engine = indexed
        outcome = engine.execute("SELECT PAIRS FROM words WHERE dist < 1.5")
        expected = {tuple(sorted((a, b)))
                    for i, a in enumerate(WORDS) for b in WORDS[i + 1:]
                    if weighted_edit_distance(a, b) <= 1.5}
        assert {tuple(sorted((a.text, b.text))) for a, b, _ in outcome.answers} == expected

    def test_answer_cache_hit_and_invalidation(self, indexed):
        database, engine = indexed
        text = "SELECT FROM words WHERE dist(object, $q) < 1.5"
        binding = {"q": StringObject("pattern")}
        first = engine.execute(text, parameters=binding)
        assert not first.from_cache
        # Same query text, a *different* StringObject with equal content:
        # the fingerprint is the text, so this hits.
        again = engine.execute(text, parameters={"q": StringObject("pattern")})
        assert again.from_cache
        assert [(o.text, d) for o, d in again.answers] == \
            [(o.text, d) for o, d in first.answers]
        # Mutating the relation (and index) invalidates by construction.
        newcomer = StringObject("pattern")
        database.relation("words").insert(newcomer)
        database.index("words").insert(newcomer)
        after = engine.execute(text, parameters=binding)
        assert not after.from_cache
        assert len(after.answers) == len(first.answers) + 1

    def test_sim_answers_are_cached(self, indexed):
        _, engine = indexed
        text = "SELECT FROM words WHERE sim(object, $q) < 0.5 COST 1"
        outcome = engine.execute(text, parameters={"q": StringObject("tern")})
        assert not outcome.from_cache
        assert engine.execute(text, parameters={"q": StringObject("tern")}).from_cache


class TestDistanceProviderCatalog:
    def test_register_requires_existing_relation(self):
        database = Database()
        with pytest.raises(CatalogError):
            database.register_distance("nope", weighted_edit_distance)

    def test_bare_callable_is_wrapped(self):
        database = Database()
        database.create_relation("words", [StringObject("a")])
        provider = database.register_distance("words", weighted_edit_distance)
        assert isinstance(provider, DistanceProvider)
        assert provider.name == "weighted_edit_distance"
        assert database.has_distance_provider("words")

    def test_provider_with_keyword_overrides_rejected(self):
        database = Database()
        database.create_relation("words", [StringObject("a")])
        with pytest.raises(CatalogError):
            database.register_distance("words", edit_distance_provider(),
                                       cost_bounds_distance=True)

    def test_rules_for_without_rules_raises(self):
        provider = DistanceProvider(distance=weighted_edit_distance)
        with pytest.raises(CatalogError):
            provider.rules_for("a", "b")

    def test_drop_relation_removes_provider(self):
        database = Database()
        database.create_relation("words", [StringObject("a")])
        database.register_distance("words", weighted_edit_distance)
        database.drop_relation("words")
        assert not database.has_distance_provider("words")

    def test_registration_invalidates_cached_answers(self, indexed):
        database, engine = indexed
        text = "SELECT FROM words WHERE dist(object, $q) < 1.5"
        binding = {"q": StringObject("pattern")}
        assert not engine.execute(text, parameters=binding).from_cache
        assert engine.execute(text, parameters=binding).from_cache
        database.register_distance("words", edit_distance_provider(substitute_cost=2.0))
        assert not engine.execute(text, parameters=binding).from_cache


class TestTheEstimateSearchesAsDeepAsTheEngine:
    """A bounded-cost SIM candidate is priced at the depth the executor
    searches it to: the cost model's frontier is the rule count to the power
    of the engine's own ``max_steps_per_side`` (both read
    :func:`repro.core.similarity.engine_steps`)."""

    @pytest.mark.parametrize("costs,cost_bound,steps", [
        ((1.0,), 1.0, 1),
        ((1.0,), 2.5, 2),
        ((1.0,), 6.0, 6),
        # 0.6 / 0.1 is 5.999...: the tolerant floor still gives six steps.
        ((0.1, 0.25), 0.6, 6),
        ((0.1, 0.25), 0.35, 3),
        ((0.5, 0.75, 2.0), 1.5, 3),
        # A free rule: the engine's default depth (max_states bounds it).
        ((0.0, 1.0), 2.0, 4),
    ])
    def test_steps(self, monkeypatch, costs, cost_bound, steps):
        rules = TransformationRuleSet(
            DeleteCharacter(position, cost=cost) for position, cost in enumerate(costs))
        provider = DistanceProvider(distance=weighted_edit_distance, rules=rules,
                                    name="costed-deletes")
        database = Database()
        database.create_relation("words", [StringObject(w) for w in ("pattern", "tern", "ox")])
        database.register_distance("words", provider)
        searched = []

        class RecordingEngine(SimilarityEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                searched.append(self.max_steps_per_side)

        monkeypatch.setattr(executor_module, "SimilarityEngine", RecordingEngine)
        QueryEngine(database).execute(
            f"SELECT FROM words WHERE sim(object, $q) < 0.5 COST {cost_bound}",
            parameters={"q": StringObject("patter")})
        assert searched == [steps] * 3
        frontier = QueryCostModel()._engine_frontier(provider, cost_bound)
        assert frontier == len(rules) ** steps
