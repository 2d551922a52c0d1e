"""Plans under one state token, and what moves the token.

The planner reads a relation's facts (statistics with their basis checked,
cardinality, provider, index and its transformation verdict, the k-index's
tail) once per state token, looks the histograms up by bisection, and builds
its reason and rejected texts in fewer steps.  The replaced planner is kept
below as the reference (its choice machinery, its per-plan lookups and the
``np.searchsorted`` histogram lookup); every plan over a sweep of radii,
``k`` and transformations — over an indexed, a scan-only, a provider
relation with a metric index and one without — must equal it: class,
estimate, reason, rejected alternatives and ``explain`` text.  The
invalidation matrix checks that every event that can change a plan
re-plans, with answers equal to a cache-off twin, and that every change of
the statistics basis moves the state token.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import KIndex, SeriesFeatureExtractor, random_walk_collection
from repro.core.errors import (
    DimensionMismatchError,
    IndexError_,
    QueryPlanningError,
    UnsafeTransformationError,
)
from repro.core.query.ast import NearestNeighborQuery, RangeQuery, SimilarityQuery
from repro.core.query.parser import parse
from repro.core.query.planner import (
    EngineJoinPlan,
    EngineNearestPlan,
    EngineRangePlan,
    IndexJoinPlan,
    IndexNearestPlan,
    IndexRangePlan,
    RejectedPlan,
    ScanJoinPlan,
    ScanNearestPlan,
    ScanRangePlan,
    TIE_TOLERANCE,
    _access_path,
    explain,
)
from repro.core.stats import DistanceHistogram, statistics_basis
from repro.index import kindex as kindex_module
from repro.index.metric import MetricIndex
from repro.strings import StringObject, edit_distance_provider
from repro.timeseries.transforms import moving_average_spectral, reverse_spectral

LENGTH = 64


# ---------------------------------------------------------------------------
# the replaced planner (the reference)
# ---------------------------------------------------------------------------
def reference_fraction_within(histogram, epsilon):
    if len(histogram) == 0:
        return 0.0
    return float(np.searchsorted(histogram.values, epsilon, side="right")) / len(histogram)


def _beats(challenger, incumbent):
    if challenger.can_estimate and not incumbent.can_estimate:
        return challenger.total <= incumbent.total
    return challenger.total < incumbent.total * (1.0 - TIE_TOLERANCE)


class ReferencePlanner:
    """The planner as it was: every lookup per plan, ``dataclasses.replace``
    on the chosen plan, the reason and why-not texts step by step."""

    def __init__(self, database, cost_model):
        self.database = database
        self.cost_model = cost_model

    def plan(self, query, transformation):
        if query.relation not in self.database:
            raise QueryPlanningError(f"unknown relation {query.relation!r}")
        if self.database.has_distance_provider(query.relation):
            return self._plan_provider(query, transformation)
        if isinstance(query, SimilarityQuery):
            raise QueryPlanningError("no provider")
        model = self.cost_model
        if isinstance(query, RangeQuery):
            return self._plan_feature(
                query, transformation, IndexRangePlan, ScanRangePlan,
                lambda s, n, index: model.index_range(
                    s, n, query.epsilon, tail_pages=index.tail_pages),
                lambda s, n: model.scan_range(s, n, query.epsilon),
            )  # fmt: skip
        if isinstance(query, NearestNeighborQuery):
            return self._plan_feature(
                query, transformation, IndexNearestPlan, ScanNearestPlan,
                lambda s, n, index: model.index_nearest(
                    s, n, query.k, tail_pages=index.tail_pages,
                    bound_weight=index.bound_weight(transformation)),
                lambda s, n: model.scan_nearest(s, n, query.k),
            )  # fmt: skip
        return self._plan_feature(
            query, transformation, IndexJoinPlan, ScanJoinPlan,
            lambda s, n, index: model.index_join(
                s, n, query.epsilon, tail_pages=index.tail_pages),
            lambda s, n: model.scan_join(s, n, query.epsilon),
        )  # fmt: skip

    def _relation_facts(self, relation_name):
        stats = self.database.statistics_for(relation_name)
        return stats, len(self.database.relation(relation_name))

    def _choose(self, alternatives):
        best = alternatives[0]
        for challenger in alternatives[1:]:
            if _beats(challenger.estimated_cost, best.estimated_cost):
                best = challenger
        rejected = tuple(
            RejectedPlan(
                family=type(plan).__name__,
                access_path=_access_path(plan),
                estimate=plan.estimated_cost,
                reason=self._why_not(plan, best),
            )
            for plan in alternatives
            if plan is not best
        )
        return replace(best, reason=self._decorate(best, alternatives), rejected=rejected)

    @staticmethod
    def _why_not(plan, chosen):
        estimate, winner = plan.estimated_cost, chosen.estimated_cost
        if not estimate.can_estimate:
            return (
                f"{plan.reason}; cost could not be estimated, so it loses "
                f"the tie to the chosen plan's {winner.total:.1f}"
            )
        if estimate.total >= winner.total:
            return (
                f"estimated cost {estimate.total:.1f} exceeds the chosen "
                f"plan's {winner.total:.1f}"
            )
        return (
            f"estimated cost {estimate.total:.1f} is within the tie band "
            f"of the chosen plan's {winner.total:.1f}; the preferred "
            "access path is kept"
        )

    @staticmethod
    def _decorate(best, alternatives):
        others = [plan for plan in alternatives if plan is not best]
        if not others:
            return best.reason
        runner_up = min(others, key=lambda plan: plan.estimated_cost.total)
        text = (
            f"{best.reason}; estimated cost {best.estimated_cost.total:.1f} "
            f"vs {type(runner_up).__name__} "
            f"{runner_up.estimated_cost.total:.1f}"
        )
        scan_families = (ScanRangePlan, ScanNearestPlan, ScanJoinPlan)
        index_families = (IndexRangePlan, IndexNearestPlan, IndexJoinPlan)
        if isinstance(best, scan_families) and any(
            isinstance(plan, index_families) for plan in others
        ):
            text += " — past the index/scan crossover"
        return text

    def _plan_provider(self, query, transformation):
        provider = self.database.distance_provider(query.relation)
        assert transformation is None
        stats, cardinality = self._relation_facts(query.relation)
        index_name = next(
            (
                name
                for name, index in self.database.indexes_on(query.relation).items()
                if isinstance(index, MetricIndex)
            ),
            None,
        )
        model = self.cost_model
        if isinstance(query, SimilarityQuery):
            admissible = provider.cost_bounds_distance and math.isfinite(query.cost_bound)
            shape = (stats, cardinality, query.epsilon, query.cost_bound, provider)
            alternatives = []
            if admissible and index_name is not None:
                alternatives.append(
                    EngineRangePlan(
                        query=query,
                        via_engine=True,
                        index_name=index_name,
                        reason=(
                            f"metric index {index_name!r} screens candidates at "
                            "radius cost_bound + epsilon, then the similarity "
                            "engine verifies each"
                        ),
                        estimated_cost=model.sim_engine(
                            *shape, screened_by_index=True, direct_screen=False
                        ),
                    )
                )
            alternatives.append(
                EngineRangePlan(
                    query=query,
                    via_engine=True,
                    reason=(
                        f"bounded-cost search through the similarity engine over "
                        f"{provider.name!r} rules"
                    ),
                    estimated_cost=model.sim_engine(
                        *shape, screened_by_index=False, direct_screen=admissible
                    ),
                )
            )
            return self._choose(alternatives)
        scan_reason = f"comparing every object through {provider.name!r}"
        index_reason = f"metric index {index_name!r} prunes by triangle inequality"
        if isinstance(query, RangeQuery):
            alternatives = []
            if index_name is not None:
                estimate = model.metric_range(stats, cardinality, query.epsilon)
                alternatives.append(
                    EngineRangePlan(
                        query=query,
                        index_name=index_name,
                        reason=index_reason,
                        estimated_cost=estimate,
                    )
                )
            estimate = model.provider_scan_range(stats, cardinality, query.epsilon)
            alternatives.append(
                EngineRangePlan(query=query, reason=scan_reason, estimated_cost=estimate)
            )
            return self._choose(alternatives)
        if isinstance(query, NearestNeighborQuery):
            alternatives = []
            if index_name is not None:
                estimate = model.metric_nearest(stats, cardinality, query.k)
                alternatives.append(
                    EngineNearestPlan(
                        query=query,
                        index_name=index_name,
                        reason=index_reason,
                        estimated_cost=estimate,
                    )
                )
            estimate = model.provider_scan_nearest(stats, cardinality, query.k)
            alternatives.append(
                EngineNearestPlan(query=query, reason=scan_reason, estimated_cost=estimate)
            )
            return self._choose(alternatives)
        return self._choose(
            [
                EngineJoinPlan(
                    query=query,
                    reason=f"nested comparison of all pairs through {provider.name!r}",
                    estimated_cost=model.provider_join(stats, cardinality, query.epsilon),
                )
            ]
        )

    def _feature_index(self, query, transformation):
        if not self.database.has_index(query.relation):
            return None, "no index registered for the relation"
        index = self.database.index(query.relation)
        if not isinstance(index, KIndex):
            return None, "the relation's index is not a k-index"
        if transformation is None:
            return index, "index available"
        try:
            index.lower_transformation(transformation)
        except UnsafeTransformationError:
            return None, "transformation is not safe for the index's feature space"
        except (IndexError_, DimensionMismatchError, ValueError) as error:
            return None, f"transformation cannot be applied to the index ({error})"
        return index, "index available and transformation is safe"

    def _plan_feature(
        self, query, transformation, index_type, scan_type, index_estimator, scan_estimator
    ):
        index, reason = self._feature_index(query, transformation)
        stats, cardinality = self._relation_facts(query.relation)
        scan_estimate = scan_estimator(stats, cardinality)
        alternatives = []
        if index is not None:
            estimate = index_estimator(stats, cardinality, index)
            alternatives.append(index_type(query=query, reason=reason, estimated_cost=estimate))
        scan_reason = f"sequential scan over {cardinality} records" if index is not None else reason
        alternatives.append(
            scan_type(query=query, reason=scan_reason, estimated_cost=scan_estimate)
        )
        return self._choose(alternatives)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------
WORDS = [
    "pattern", "lantern", "eastern", "western", "matter", "butter", "letter",
    "better", "query", "quart", "quarry", "carry", "berry", "tern", "turn",
    "transformation", "conformation", "information", "similarity", "regularity",
]  # fmt: skip


def _session():
    walks = random_walk_collection(400, LENGTH, seed=17)
    session = repro.connect()
    session.with_transformation("mavg10", moving_average_spectral(LENGTH, 10))
    session.with_transformation("reverse", reverse_spectral(LENGTH))
    session.relation("walks").insert_many(walks).with_index(
        KIndex(SeriesFeatureExtractor(3, representation="polar"))
    )
    session.relation("rect").insert_many(walks[:250]).with_index(
        KIndex(SeriesFeatureExtractor(2, representation="rectangular"))
    )  # under which a moving average is not safe
    session.relation("scan").insert_many(random_walk_collection(300, LENGTH, seed=18))
    provider = edit_distance_provider()
    words = session.relation("words").insert_many(StringObject(w) for w in WORDS)
    words.with_distance(provider).with_index(MetricIndex(provider.distance, leaf_capacity=4))
    bare = session.relation("bare").insert_many(StringObject(w) for w in WORDS)
    bare.with_distance(provider)  # a provider and no metric index
    return session, walks


def _texts():
    for relation in ("walks", "rect", "scan"):
        for using in ("", " USING mavg10", " USING reverse"):
            if relation == "scan" and using:
                continue
            for epsilon in (0.25, 1.0, 2.5, 4.0, 7.5, 12.0, 20.0, 40.0):
                yield f"SELECT FROM {relation} WHERE DIST(OBJECT, $q) < {epsilon}{using}"
                yield f"SELECT PAIRS FROM {relation} WHERE DIST < {epsilon}{using}"
            for k in (1, 3, 10, 40, 150):
                yield f"SELECT FROM {relation} NEAREST {k} TO $q{using}"
    for relation in ("words", "bare"):
        for epsilon in (0.5, 1.0, 2.0, 4.0, 9.0):
            yield f"SELECT FROM {relation} WHERE DIST(OBJECT, $q) < {epsilon}"
            yield f"SELECT PAIRS FROM {relation} WHERE DIST < {epsilon}"
            yield f"SELECT FROM {relation} WHERE SIM(OBJECT, $q) < {epsilon / 4} COST {epsilon}"
            yield f"SELECT FROM {relation} WHERE SIM(OBJECT, $q) < {epsilon / 4}"
        for k in (1, 4, 12):
            yield f"SELECT FROM {relation} NEAREST {k} TO $q"


class TestPlansEqualTheReference:
    def test_sweep(self, monkeypatch):
        session, walks = _session()
        engine = session.engine
        reference = ReferencePlanner(session.database, engine.planner.cost_model)
        # Fold some observations first, so corrections are not all 1.0.
        for epsilon in (2.0, 6.0, 11.0):
            for relation in ("walks", "scan"):
                text = f"SELECT FROM {relation} WHERE DIST(OBJECT, $q) < {epsilon}"
                session.sql(text, q=walks[3])
        session.sql("SELECT FROM words WHERE DIST(OBJECT, $q) < 2.0", q=StringObject("tern"))
        seen = set()
        for text in _texts():
            node = parse(text)
            transformation = engine.transformation(node.transformation)
            plan = engine.planner.plan(node, transformation=transformation)
            with monkeypatch.context() as patch:
                patch.setattr(DistanceHistogram, "fraction_within", reference_fraction_within)
                expected = reference.plan(node, transformation)
            assert type(plan) is type(expected), text
            assert plan == expected, text
            assert explain(plan) == explain(expected), text
            seen.add(type(plan).__name__)
            seen.update(rejected.family for rejected in plan.rejected)
            seen.add(plan.reason.split(";")[0])
        assert {"IndexRangePlan", "ScanRangePlan", "IndexNearestPlan", "ScanJoinPlan"} <= seen
        assert {"EngineRangePlan", "EngineNearestPlan", "EngineJoinPlan"} <= seen
        assert "transformation is not safe for the index's feature space" in seen

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from([0.0, -0.0, 1.0, 2.5, math.nan, math.inf]),
            ),
            max_size=40,
        ),
        st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=8),
    )
    def test_histogram_lookup_is_searchsorted(self, values, epsilons):
        histogram = DistanceHistogram(np.asarray(values, dtype=np.float64))
        for epsilon in epsilons + [float(v) for v in histogram.values[:4]]:
            expected = reference_fraction_within(histogram, epsilon)
            assert histogram.fraction_within(epsilon) == expected
            assert histogram.fraction_within(np.float64(epsilon)) == expected


# ---------------------------------------------------------------------------
# invalidation
# ---------------------------------------------------------------------------
def _twin_answers(session, text, series):
    """The same query through a cache-off engine over the same catalog."""
    twin = repro.core.query.executor.QueryEngine(
        session.database,
        dict(session.engine._transformations),
        plan_cache_size=0,
        answer_cache_size=0,
    )
    return _answers(twin.execute(text, {"q": series}))


def _answers(outcome):
    return [(obj.object_id, distance) for obj, distance in outcome.answers]


class TestInvalidation:
    RANGE = "SELECT FROM walks WHERE DIST(OBJECT, $q) < 6.0 USING mavg10"

    def _replans(self, session, series, text=RANGE):
        """The next call re-plans — the plan a planner reading every fact
        afresh makes — and answers as a cache-off twin; the call after it
        is served from the caches."""
        engine = session.engine
        node = parse(text)
        reference = ReferencePlanner(session.database, engine.planner.cost_model)
        expected = reference.plan(node, engine.transformation(node.transformation))
        invocations = engine.planner.invocations
        outcome = session.sql(text, q=series)
        assert engine.planner.invocations == invocations + 1
        assert outcome.plan == expected
        assert not outcome.from_cache
        assert _answers(outcome) == _twin_answers(session, text, series)
        again = session.sql(text, q=series)
        assert again.from_cache and session.engine.planner.invocations == invocations + 1

    def test_every_event_replans(self, monkeypatch):
        session, walks = _session()
        series = walks[5]
        session.sql(self.RANGE, q=series)
        # Re-registering a transformation under a used name.
        session.with_transformation("mavg10", moving_average_spectral(LENGTH, 4))
        self._replans(session, series)
        # An explicit analyze.
        session.analyze("walks")
        self._replans(session, series)
        # An insert through the handle.
        fresh = random_walk_collection(3, LENGTH, seed=90)
        session.relation("walks").insert(fresh[0])
        self._replans(session, series)
        # An insert below the handle (relation and index kept in step by hand).
        session.database.index("walks").insert(fresh[1])
        session.database.relation("walks").insert(fresh[1])
        self._replans(session, series)
        # Drop and recreate under the same name.
        session.drop_relation("walks")
        session.relation("walks").insert_many(walks[:200]).with_index(KIndex())
        self._replans(session, series)

    def test_a_prepared_statement_replans_after_a_transformation_is_rebound(self):
        session, walks = _session()
        prepared = session.prepare(self.RANGE)
        before = _answers(prepared.run(q=walks[0]))
        session.with_transformation("mavg10", moving_average_spectral(LENGTH, 2))
        after = prepared.run(q=walks[0])
        assert not after.from_cache
        assert _answers(after) == _twin_answers(session, self.RANGE, walks[0]) != before

    def test_every_basis_change_moves_the_token(self, monkeypatch):
        monkeypatch.setattr(kindex_module, "SEAL_MIN_ROWS", 4)
        session = repro.connect()
        database = session.database
        rows = random_walk_collection(160, LENGTH, seed=23)
        handle = session.relation("walks").insert_many(rows[:20])
        state = (statistics_basis(database, "walks"), database.state_token("walks"))
        moved = []

        def check(event):
            nonlocal state
            now = (statistics_basis(database, "walks"), database.state_token("walks"))
            if now[0] != state[0]:
                assert now[1] != state[1], event
                moved.append(event)
            state = now

        for count in range(21, 60):
            handle.insert(rows[count])
            check("band")
        handle.with_index(KIndex())
        check("index set")
        index = database.index("walks")
        for count in range(60, 120, 7):
            batch = rows[count : count + 7]
            index.extend(batch)
            database.relation("walks").extend(batch)
            check("below the handle")
        database.drop_index("walks")
        check("index dropped")
        handle.with_distance(lambda a, b: float(abs(a.values[0] - b.values[0])))
        check("provider")
        database.drop_distance("walks")
        check("provider dropped")
        expected = {"band", "index set", "below the handle", "index dropped", "provider"}
        assert expected <= set(moved)


# ---------------------------------------------------------------------------
# the similarity engine's own currency
# ---------------------------------------------------------------------------
class TestStatesExploredApart:
    def test_sim_reports_node_accesses_and_states_apart(self):
        session, _ = _session()
        query = StringObject("pattern")
        outcome = session.sql("SELECT FROM words WHERE SIM(OBJECT, $q) < 0.5 COST 2", q=query)
        statistics = outcome.statistics
        assert isinstance(outcome.plan, EngineRangePlan) and outcome.plan.index_name
        screen = session.database.index("words").range_query(query, 2.5).statistics
        assert statistics.node_accesses == screen.node_accesses
        assert statistics.states_explored > 0
        assert statistics.as_dict()["states_explored"] == statistics.states_explored
        actual = explain(outcome.plan, statistics=statistics).splitlines()[2]
        states = f", {statistics.states_explored} similarity-engine states explored"
        assert actual.endswith(states)

    def test_other_plans_explain_as_before(self):
        session, walks = _session()
        outcome = session.sql("SELECT FROM walks WHERE DIST(OBJECT, $q) < 4.0", q=walks[0])
        assert outcome.statistics.states_explored == 0
        assert explain(outcome.plan, statistics=outcome.statistics).splitlines()[2].endswith(
            f"{outcome.statistics.postprocessed} postprocessed"
        )
