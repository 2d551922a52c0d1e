"""Differential test of every plan the executor runs.

Each plan dataclass is built here directly — not chosen by the planner —
and run through the executor's own runners: ``_run_range_group`` for the
range plans it batches over an index, ``_run`` for every other plan.

* Answers equal a brute-force loop, bit for bit: the per-record reference of
  ``test_vectorized_identity`` for time series (range, nearest and join;
  index and scan; both feature spaces; no transformation, ``mavg`` and
  ``reverse``), and the provider's distance over every string for the
  metric-index and provider-scan plans.
* An index plan's work counters equal a direct call of its ``KIndex`` /
  ``MetricIndex``; a scan plan's equal a direct call of the executor's scan.
* A batched range group equals its queries run one at a time.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    Database,
    KIndex,
    MetricIndex,
    QueryEngine,
    SeriesFeatureExtractor,
    StringObject,
    edit_distance_provider,
    moving_average_spectral,
    random_walk,
    random_walk_collection,
    reverse_spectral,
)
from repro.core.errors import UnsafeTransformationError
from repro.core.query.ast import AllPairsQuery, NearestNeighborQuery, RangeQuery
from repro.core.query.planner import (
    EngineNearestPlan,
    EngineRangePlan,
    IndexJoinPlan,
    IndexNearestPlan,
    IndexRangePlan,
    ScanJoinPlan,
    ScanNearestPlan,
    ScanRangePlan,
)
from test_vectorized_identity import reference_join, reference_nearest, reference_scan_range

LENGTH = 64
TRANSFORMATIONS = {
    "mavg": moving_average_spectral(LENGTH, 8),
    "reverse": reverse_spectral(LENGTH),
}
EPSILON = 13.0
K = 5


@pytest.fixture(scope="module")
def walks():
    return random_walk_collection(50, LENGTH, seed=61)


@pytest.fixture(scope="module")
def queries(walks):
    return [walks[3], random_walk(LENGTH, seed=62)]


def _engine(walks, representation):
    database = Database()
    database.create_relation("walks", walks)
    index = KIndex(SeriesFeatureExtractor(2, representation=representation))
    index.extend(walks)
    database.register_index("walks", index)
    return QueryEngine(database, TRANSFORMATIONS), index


def _run(engine, plan, node, binding):
    """One plan through the runner ``execute_many`` would hand it to."""
    if engine._group_key(node, plan) is not None:
        outcomes = [None]
        engine._run_range_group([0], [node], [binding], [plan], outcomes)
        return outcomes[0]
    return engine._run(plan, node, engine.transformation(node.transformation), binding)


def _safe(index, transformation):
    try:
        index.lower_transformation(transformation)
    except UnsafeTransformationError:
        return False
    return True


def _same(actual, expected):
    found = [(obj.object_id, distance) for obj, distance in actual]
    assert found == [(obj.object_id, distance) for obj, distance in expected]


def _same_pairs(actual, expected):
    found = [(a.object_id, b.object_id, distance) for a, b, distance in actual]
    assert found == [(a.object_id, b.object_id, distance) for a, b, distance in expected]


def _index_join_reference(extractor, walks, transformation):
    """Methods (c)/(d): every series probes the rest, pairs in both orders."""
    return [
        (anchor, other, distance)
        for anchor in walks
        for other, distance in reference_scan_range(
            extractor, walks, anchor, EPSILON, transformation
        )
        if other.object_id != anchor.object_id
    ]


@pytest.mark.parametrize("name", [None, "mavg", "reverse"])
@pytest.mark.parametrize("representation", ["polar", "rectangular"])
class TestFeaturePlans:
    def test_range(self, walks, queries, representation, name):
        engine, index = _engine(walks, representation)
        transformation = TRANSFORMATIONS.get(name)
        scan = engine._scan_for("walks")
        for query in queries:
            binding = {"q": query}
            node = RangeQuery(relation="walks", transformation=name, parameter="q", epsilon=EPSILON)
            expected = reference_scan_range(index.extractor, walks, query, EPSILON, transformation)
            scanned = _run(engine, ScanRangePlan(query=node, reason=""), node, binding)
            _same(scanned.answers, expected)
            direct = scan.range_query(query, EPSILON, transformation=transformation)
            assert scanned.statistics.as_dict() == direct.statistics.as_dict()
            plan = IndexRangePlan(query=node, reason="")
            if not _safe(index, transformation):
                with pytest.raises(UnsafeTransformationError):
                    _run(engine, plan, node, binding)
                continue
            probed = _run(engine, plan, node, binding)
            _same(probed.answers, expected)
            direct = index.range_query(query, EPSILON, transformation=transformation)
            assert probed.statistics.as_dict() == direct.statistics.as_dict()

    def test_nearest(self, walks, queries, representation, name):
        engine, index = _engine(walks, representation)
        transformation = TRANSFORMATIONS.get(name)
        scan = engine._scan_for("walks")
        for query in queries:
            binding = {"q": query}
            node = NearestNeighborQuery(relation="walks", transformation=name, parameter="q", k=K)
            expected = reference_nearest(index.extractor, walks, query, K, transformation)
            scanned = _run(engine, ScanNearestPlan(query=node, reason=""), node, binding)
            _same(scanned.answers, expected)
            direct = scan.nearest_neighbors(query, K, transformation=transformation)
            assert scanned.statistics.as_dict() == direct.statistics.as_dict()
            assert scanned.statistics.node_accesses == scan.data_pages
            plan = IndexNearestPlan(query=node, reason="")
            if not _safe(index, transformation):
                with pytest.raises(UnsafeTransformationError):
                    _run(engine, plan, node, binding)
                continue
            probed = _run(engine, plan, node, binding)
            _same(probed.answers, expected)
            direct = index.nearest_neighbors(query, K, transformation=transformation)
            assert probed.statistics.as_dict() == direct.statistics.as_dict()

    def test_join(self, walks, representation, name):
        engine, index = _engine(walks, representation)
        transformation = TRANSFORMATIONS.get(name)
        node = AllPairsQuery(relation="walks", transformation=name, epsilon=EPSILON)
        scanned = _run(engine, ScanJoinPlan(query=node, reason=""), node, {})
        expected = reference_join(index.extractor, walks, EPSILON, transformation)
        _same_pairs(scanned.answers, expected)
        _, direct = engine._scan_for("walks").all_pairs(EPSILON, transformation=transformation)
        assert scanned.statistics.as_dict() == direct.as_dict()
        plan = IndexJoinPlan(query=node, reason="")
        if not _safe(index, transformation):
            with pytest.raises(UnsafeTransformationError):
                _run(engine, plan, node, {})
            return
        probed = _run(engine, plan, node, {})
        _same_pairs(probed.answers, _index_join_reference(index.extractor, walks, transformation))
        _, direct = index.all_pairs(EPSILON, transformation=transformation)
        assert probed.statistics.as_dict() == direct.as_dict()

    def test_a_batched_group_is_its_queries_one_at_a_time(self, walks, representation, name):
        engine, index = _engine(walks, representation)
        if not _safe(index, TRANSFORMATIONS.get(name)):
            return
        nodes = [
            RangeQuery(relation="walks", transformation=name, parameter="q", epsilon=epsilon)
            for epsilon in (6.0, 9.0, 12.0, 15.0)
        ]
        plans = [IndexRangePlan(query=node, reason="") for node in nodes]
        bindings = [{"q": walks[i]} for i in (0, 9, 17, 33)]
        assert len({engine._group_key(node, plan) for node, plan in zip(nodes, plans)}) == 1
        batched = [None] * len(nodes)
        engine._run_range_group(list(range(len(nodes))), nodes, bindings, plans, batched)
        for node, plan, binding, outcome in zip(nodes, plans, bindings, batched):
            alone = _run(engine, plan, node, binding)
            _same(outcome.answers, alone.answers)
            for counter in ("candidates", "postprocessed", "record_fetches"):
                batch_count = getattr(outcome.statistics, counter)
                assert batch_count == getattr(alone.statistics, counter)


@pytest.fixture(scope="module")
def words():
    rng = random.Random(63)
    return [
        StringObject("".join(rng.choice("abcd") for _ in range(rng.randint(3, 7))))
        for _ in range(40)
    ]


@pytest.fixture(scope="module")
def string_engine(words):
    provider = edit_distance_provider()
    database = Database()
    database.create_relation("words", words)
    database.register_distance("words", provider)
    metric = MetricIndex(provider.distance, leaf_capacity=4)
    metric.extend(words)
    database.register_index("words", metric, "metric")
    return QueryEngine(database), provider, metric


def _brute_force(words, provider, query):
    """Every word with its provider distance, nearest first (ties in
    relation order)."""
    scored = [(word, float(provider.distance(word, query))) for word in words]
    return sorted(scored, key=lambda pair: pair[1])


def _by_distance(answers):
    return sorted((distance, obj.object_id) for obj, distance in answers)


class TestProviderPlans:
    @pytest.mark.parametrize("epsilon", [0.0, 3.0, 4.0])
    def test_range(self, words, string_engine, epsilon):
        engine, provider, metric = string_engine
        for query in (words[5], StringObject("abcab")):
            binding = {"q": query}
            node = RangeQuery(relation="words", parameter="q", epsilon=epsilon)
            expected = [pair for pair in _brute_force(words, provider, query) if pair[1] <= epsilon]
            scanned = _run(engine, EngineRangePlan(query=node, reason=""), node, binding)
            _same(scanned.answers, expected)
            assert scanned.statistics.postprocessed == len(words)
            plan = EngineRangePlan(query=node, reason="", index_name="metric")
            probed = _run(engine, plan, node, binding)
            # The tree visits in its own order: ties may come back reordered.
            assert _by_distance(probed.answers) == _by_distance(expected)
            direct = metric.range_query(query, epsilon)
            assert probed.statistics.as_dict() == direct.statistics.as_dict()

    @pytest.mark.parametrize("k", [1, 4, 40])
    def test_nearest(self, words, string_engine, k):
        engine, provider, metric = string_engine
        for query in (words[5], StringObject("abcab")):
            binding = {"q": query}
            node = NearestNeighborQuery(relation="words", parameter="q", k=k)
            expected = _brute_force(words, provider, query)[:k]
            scanned = _run(engine, EngineNearestPlan(query=node, reason=""), node, binding)
            _same(scanned.answers, expected)
            plan = EngineNearestPlan(query=node, reason="", index_name="metric")
            probed = _run(engine, plan, node, binding)
            # Which of several words tied at the k-th distance is kept is the
            # tree's choice; the distances are not.
            distances = [distance for _, distance in probed.answers]
            assert distances == [distance for _, distance in expected]
            for obj, distance in probed.answers:
                assert float(provider.distance(obj, query)) == distance
            direct = metric.nearest_neighbors(query, k)
            assert probed.statistics.as_dict() == direct.statistics.as_dict()

    def test_a_batched_group_is_its_queries_one_at_a_time(self, words, string_engine):
        engine, _, _ = string_engine
        nodes = [
            RangeQuery(relation="words", parameter="q", epsilon=epsilon)
            for epsilon in (1.0, 2.0, 3.0, 4.0)
        ]
        plans = [EngineRangePlan(query=node, reason="", index_name="metric") for node in nodes]
        bindings = [{"q": words[i]} for i in (0, 7, 21, 39)]
        batched = [None] * len(nodes)
        engine._run_range_group(list(range(len(nodes))), nodes, bindings, plans, batched)
        for node, plan, binding, outcome in zip(nodes, plans, bindings, batched):
            alone = _run(engine, plan, node, binding)
            _same(outcome.answers, alone.answers)
            assert outcome.statistics.as_dict() == alone.statistics.as_dict()
