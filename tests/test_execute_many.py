"""Tests for batched query execution and the plan/answer caches."""

from __future__ import annotations

import pytest

from repro.core.database import Database
from repro.core.errors import QueryPlanningError
from repro.core.query.cache import LRUCache
from repro.core.query.executor import QueryEngine
from repro.core.query.planner import IndexRangePlan
from repro.index.kindex import KIndex
from repro.timeseries.features import SeriesFeatureExtractor
from repro.timeseries.generators import random_walk_collection
from repro.timeseries.transforms import moving_average_spectral

RANGE_TEXT = "SELECT FROM walks WHERE dist(series, $q) < 3.0"
NN_TEXT = "SELECT FROM walks NEAREST 3 TO $q"


@pytest.fixture()
def data():
    return random_walk_collection(150, 64, seed=77)


@pytest.fixture()
def engine(data):
    database = Database()
    database.create_relation("walks", data)
    index = KIndex.bulk_load(
        data, SeriesFeatureExtractor(num_coefficients=2, representation="polar"))
    database.register_index("walks", index)
    engine = QueryEngine(database)
    engine.register_transformation("mavg8", moving_average_spectral(64, 8))
    return engine


def _normalized(outcome):
    return sorted((series.object_id, round(distance, 9))
                  for series, distance in outcome.answers)


class TestExecuteMany:
    def test_batch_equals_looped_execute(self, engine, data):
        queries = [RANGE_TEXT] * 12
        bindings = [{"q": series} for series in data[:12]]
        looped = [engine.execute(RANGE_TEXT, binding) for binding in bindings]
        engine.clear_caches()
        batched = engine.execute_many(queries, bindings)
        assert len(batched) == 12
        for single, member in zip(looped, batched):
            assert _normalized(single) == _normalized(member)
            assert isinstance(member.plan, IndexRangePlan)

    def test_mixed_query_types(self, engine, data):
        queries = [RANGE_TEXT, NN_TEXT,
                   "SELECT FROM walks WHERE dist(series, $q) < 2.0 USING mavg8"]
        bindings = [{"q": data[0]}, {"q": data[1]}, {"q": data[2]}]
        outcomes = engine.execute_many(queries, bindings)
        for query, binding, outcome in zip(queries, bindings, outcomes):
            engine.clear_caches()
            single = engine.execute(query, binding)
            assert _normalized(single) == _normalized(outcome)

    def test_shared_parameter_mapping(self, engine, data):
        outcomes = engine.execute_many([RANGE_TEXT, NN_TEXT], {"q": data[0]})
        assert len(outcomes) == 2
        assert all(outcome.answers for outcome in outcomes)

    def test_binding_count_mismatch_raises(self, engine, data):
        with pytest.raises(QueryPlanningError):
            engine.execute_many([RANGE_TEXT] * 3, [{"q": data[0]}] * 2)

    @pytest.mark.parametrize("text", [RANGE_TEXT, RANGE_TEXT + " USING mavg8"])
    def test_batched_traversal_is_shared(self, engine, data, text):
        bindings = [{"q": series} for series in data[:10]]
        engine.clear_caches()
        looped = [engine.execute(text, binding) for binding in bindings]
        engine.clear_caches()
        outcomes = engine.execute_many([text] * 10, bindings)
        shared = outcomes[0].statistics.node_accesses
        assert all(o.statistics.node_accesses == shared for o in outcomes)
        assert shared < sum(o.statistics.node_accesses for o in looped)
        assert [[(s.object_id, d) for s, d in o.answers] for o in outcomes] == \
            [[(s.object_id, d) for s, d in o.answers] for o in looped]

    def test_elapsed_uses_monotonic_clock(self, engine, data):
        outcome = engine.execute(RANGE_TEXT, {"q": data[0]})
        assert outcome.elapsed_seconds >= 0.0


class TestAnswerCache:
    def test_repeat_query_hits_cache(self, engine, data):
        binding = {"q": data[0]}
        first = engine.execute(RANGE_TEXT, binding)
        second = engine.execute(RANGE_TEXT, binding)
        assert not first.from_cache
        assert second.from_cache
        assert _normalized(first) == _normalized(second)
        assert engine.answer_cache.stats.hits == 1

    def test_different_parameter_misses(self, engine, data):
        engine.execute(RANGE_TEXT, {"q": data[0]})
        other = engine.execute(RANGE_TEXT, {"q": data[1]})
        assert not other.from_cache

    def test_relation_mutation_invalidates(self, engine, data):
        binding = {"q": data[0]}
        engine.execute(RANGE_TEXT, binding)
        newcomer = random_walk_collection(1, 64, seed=123)[0]
        engine.database.relation("walks").insert(newcomer)
        after = engine.execute(RANGE_TEXT, binding)
        assert not after.from_cache

    def test_index_registration_invalidates(self, engine, data):
        binding = {"q": data[0]}
        engine.execute(RANGE_TEXT, binding)
        replacement = KIndex.bulk_load(
            data, SeriesFeatureExtractor(num_coefficients=2,
                                         representation="polar"))
        engine.database.register_index("walks", replacement)
        after = engine.execute(RANGE_TEXT, binding)
        assert not after.from_cache

    def test_cached_answers_are_isolated_copies(self, engine, data):
        binding = {"q": data[0]}
        first = engine.execute(RANGE_TEXT, binding)
        first.answers.clear()
        second = engine.execute(RANGE_TEXT, binding)
        assert second.from_cache
        assert second.answers

    def test_zero_capacity_disables_caching(self, data):
        database = Database()
        database.create_relation("walks", data)
        engine = QueryEngine(database, answer_cache_size=0)
        binding = {"q": data[0]}
        engine.execute(RANGE_TEXT, binding)
        again = engine.execute(RANGE_TEXT, binding)
        assert not again.from_cache

    def test_reregistered_transformation_invalidates(self, engine, data):
        from repro.timeseries.transforms import identity_spectral
        text = "SELECT FROM walks WHERE dist(series, $q) < 2.0 USING mavg8"
        binding = {"q": data[0]}
        first = engine.execute(text, binding)
        engine.register_transformation("mavg8", identity_spectral(64))
        after = engine.execute(text, binding)
        assert not after.from_cache
        engine.register_transformation("mavg8", moving_average_spectral(64, 8))
        refreshed = engine.execute(text, binding)
        assert not refreshed.from_cache
        assert _normalized(refreshed) == _normalized(first)

    def test_recreated_relation_refreshes_scan(self, data):
        database = Database()
        database.create_relation("walks", data[:5])
        engine = QueryEngine(database)  # no index -> scan plans
        before = engine.execute(RANGE_TEXT, {"q": data[0]})
        database.drop_relation("walks")
        database.create_relation("walks", data[5:10])
        after = engine.execute(RANGE_TEXT, {"q": data[0]})
        before_ids = {s.object_id for s, _ in before.answers}
        after_ids = {s.object_id for s, _ in after.answers}
        assert after_ids <= {s.object_id for s in data[5:10]}
        assert not (after_ids & before_ids)

    def test_nearest_neighbor_queries_are_cached(self, engine, data):
        binding = {"q": data[0]}
        first = engine.execute(NN_TEXT, binding)
        second = engine.execute(NN_TEXT, binding)
        assert not first.from_cache
        assert second.from_cache
        assert _normalized(first) == _normalized(second)


class TestPlanCache:
    def test_plans_are_reused(self, engine, data):
        bindings = [{"q": series} for series in data[:5]]
        engine.execute_many([RANGE_TEXT] * 5, bindings)
        assert engine.plan_cache.stats.hits >= 4
        assert engine.plan_cache.stats.misses >= 1

    def test_plan_cache_invalidated_by_mutation(self, engine, data):
        engine.execute(RANGE_TEXT, {"q": data[0]})
        misses = engine.plan_cache.stats.misses
        newcomer = random_walk_collection(1, 64, seed=321)[0]
        engine.database.relation("walks").insert(newcomer)
        engine.execute(RANGE_TEXT, {"q": data[0]})
        assert engine.plan_cache.stats.misses > misses


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_zero_capacity(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_clear_keeps_statistics(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1
