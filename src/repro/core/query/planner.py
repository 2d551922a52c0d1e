"""Physical planning: choose how a similarity query will be executed.

The planner is **statistics-driven**: instead of hard-coding the index/scan
crossover the evaluation measured, it enumerates every applicable physical
plan, prices each with the :class:`~repro.core.query.costmodel.QueryCostModel`
over the relation's :class:`~repro.core.stats.RelationStatistics` (collected
by ``analyze`` or lazily on first plan), and picks the cheapest.  Every
produced plan carries its :class:`CostEstimate` and the rejected
alternatives with theirs, so ``explain()`` can show not just *what* will run
but *why the others will not* — and the executor's measured counters close
the loop by feeding observed selectivities back into the statistics.

Plan families:

* relations of time series choose between an **index plan** (the registered
  k-index, traversed under the query's transformation when it is safe for
  the index's feature space) and a **scan plan** (sequential scan with early
  abandoning) — the choice *is* the relation-size / selectivity /
  answer-set-size tradeoff of the evaluation's figures, decided per query
  from the estimates rather than assumed;
* relations with a **distance provider** (strings and any other non-spatial
  domain) are served by the **engine plans**: exact range/nearest-neighbour
  evaluation through the provider's metric, accelerated by a registered
  :class:`~repro.index.metric.MetricIndex` when its estimated
  triangle-inequality pruning beats the brute provider scan, and
  bounded-cost ``SIM`` predicates through the generic
  :class:`~repro.core.similarity.SimilarityEngine` search.  A ``SIM`` query
  must not prune with the metric index at radius ``epsilon`` — the
  transformation distance lies *below* the base distance — but when the
  provider declares that rule costs bound distance movement
  (``cost_bounds_distance``), screening candidates at the expanded radius
  ``cost_bound + epsilon`` is admissible by the triangle inequality.

The planner produces small plan dataclasses; the executor interprets them.
The ``explain`` helper renders a plan (optionally with the measured
statistics of an execution) as a short multi-line report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ...index.kindex import KIndex
from ...index.metric import MetricIndex
from ..database import Database
from ..errors import (
    DimensionMismatchError,
    IndexError_,
    QueryPlanningError,
    UnsafeTransformationError,
)
from ..parallel import resolve_workers
from .ast import AllPairsQuery, NearestNeighborQuery, Query, RangeQuery, SimilarityQuery
from .costmodel import CostEstimate, QueryCostModel

__all__ = [
    "Plan",
    "RejectedPlan",
    "CostEstimate",
    "IndexRangePlan",
    "ScanRangePlan",
    "IndexNearestPlan",
    "ScanNearestPlan",
    "IndexJoinPlan",
    "ScanJoinPlan",
    "EngineRangePlan",
    "EngineNearestPlan",
    "EngineJoinPlan",
    "Planner",
    "explain",
]

#: Estimates within this relative band count as a tie; ties go to the plan
#: enumerated first (the index family — it scales with selectivity, the scan
#: does not), except that plans without a real estimate always lose.
TIE_TOLERANCE = 0.08


@dataclass(frozen=True)
class RejectedPlan:
    """A plan alternative the planner considered and priced but did not pick."""

    family: str
    access_path: str
    estimate: CostEstimate
    reason: str


@dataclass(frozen=True)
class Plan:
    """Base class for physical plans."""

    query: Query
    reason: str
    #: The cost model's prediction for this plan (``None`` for plans built
    #: outside the planner, e.g. directly in tests).
    estimated_cost: CostEstimate | None = None
    #: The alternatives enumerated alongside this plan, with their estimates
    #: and the "why not" the explain output renders.
    rejected: tuple[RejectedPlan, ...] = ()


@dataclass(frozen=True)
class IndexRangePlan(Plan):
    """Answer a range query with the registered k-index."""

    index_name: str = "default"


@dataclass(frozen=True)
class ScanRangePlan(Plan):
    """Answer a range query with a sequential scan."""


@dataclass(frozen=True)
class IndexNearestPlan(Plan):
    """Answer a nearest-neighbour query with the registered k-index."""

    index_name: str = "default"


@dataclass(frozen=True)
class ScanNearestPlan(Plan):
    """Answer a nearest-neighbour query with a sequential scan."""


@dataclass(frozen=True)
class IndexJoinPlan(Plan):
    """Answer an all-pairs query with index probes."""

    index_name: str = "default"


@dataclass(frozen=True)
class ScanJoinPlan(Plan):
    """Answer an all-pairs query with a nested scan."""


@dataclass(frozen=True)
class EngineRangePlan(Plan):
    """Answer a range (or ``SIM``) query through the relation's distance provider.

    ``index_name`` names the metric index supplying sublinear candidate sets
    (``None`` → compare against every object).  ``via_engine`` marks a
    bounded-cost ``SIM`` evaluation through the generic similarity engine
    rather than the exact base distance.
    """

    index_name: str | None = None
    via_engine: bool = False


@dataclass(frozen=True)
class EngineNearestPlan(Plan):
    """Answer a nearest-neighbour query through the relation's distance provider."""

    index_name: str | None = None


@dataclass(frozen=True)
class EngineJoinPlan(Plan):
    """Answer an all-pairs query by comparing objects through the provider."""


def _beats(challenger: CostEstimate, incumbent: CostEstimate) -> bool:
    """Whether a later-enumerated plan displaces the current best."""
    if challenger.can_estimate and not incumbent.can_estimate:
        # A real estimate wins any tie against an assumed one.
        return challenger.total <= incumbent.total
    return challenger.total < incumbent.total * (1.0 - TIE_TOLERANCE)


class _RelationFacts:
    """What planning over one relation reads that only a move of its state
    token can change: the statistics (basis checked once), the cardinality,
    the distance provider, the index and its verdict per transformation,
    the k-index's tail.  A plan under the same token pays only its own
    radius: histogram positions and the cost arithmetic."""

    __slots__ = ("token", "statistics", "cardinality", "provider", "index_name",
                 "index", "reason", "tail_pages", "verdicts")

    def __init__(self, database: Database, relation: str, token: tuple) -> None:
        self.token = token
        self.statistics = database.statistics_for(relation)
        self.cardinality = len(database.relation(relation))
        indexes = database.indexes_on(relation)
        if database.has_distance_provider(relation):
            self.provider = database.distance_provider(relation)
            self.index_name = next((name for name, index in indexes.items()
                                    if isinstance(index, MetricIndex)), None)
            return
        self.provider = None
        index = indexes.get("default")
        if index is None:
            self.index, self.reason = None, "no index registered for the relation"
        elif not isinstance(index, KIndex):
            self.index, self.reason = None, "the relation's index is not a k-index"
        else:
            self.index, self.reason = index, "index available"
            self.tail_pages = index.tail_pages
        #: id(transformation) -> (transformation, index or None, reason).
        self.verdicts: dict[int, tuple] = {}

    def feature_index(self, transformation) -> tuple[KIndex | None, str]:
        """The k-index and why it can answer under ``transformation``, or
        ``None`` and why not — the index itself judges the transformation
        (:meth:`KIndex.lower_transformation`), so plan and probe cannot
        disagree about safety."""
        if transformation is None or self.index is None:
            return self.index, self.reason
        verdict = self.verdicts.get(id(transformation))
        if verdict is None or verdict[0] is not transformation:
            try:
                self.index.lower_transformation(transformation)
                verdict = (transformation, self.index,
                           "index available and transformation is safe")
            except UnsafeTransformationError:
                verdict = (transformation, None,
                           "transformation is not safe for the index's feature space")
            except (IndexError_, DimensionMismatchError, ValueError) as error:
                verdict = (transformation, None,
                           f"transformation cannot be applied to the index ({error})")
            self.verdicts[id(transformation)] = verdict
        return verdict[1], verdict[2]


class Planner:
    """Chooses a physical plan given the database catalog.

    Parameters
    ----------
    database:
        The catalog (relations, registered indexes, distance providers and
        the per-relation statistics the cost model reads).
    workers:
        Worker threads the executor will fan sequential scans across
        (``None``/``1`` serial, ``0`` one per CPU core).  The cost model
        prices scan plans at the parallel critical path accordingly, so the
        index/scan crossover shifts with the available parallelism.
    """

    def __init__(self, database: Database, *,
                 workers: int | None = None) -> None:
        self.database = database
        self.workers = resolve_workers(workers)
        self.cost_model = QueryCostModel(workers=self.workers)
        #: How many times :meth:`plan` ran.  Prepared statements promise
        #: "re-plan at most once per (AST, catalog state)"; tests and
        #: benchmarks read this counter to hold them to it.
        self.invocations = 0
        self._facts: dict[str, _RelationFacts] = {}

    def plan(self, query: Query, *, transformation=None) -> Plan:
        """Produce the physical plan for a parsed query.

        ``transformation`` is the resolved transformation object (or ``None``)
        — the planner needs it to check index safety; name resolution happens
        in the executor, which passes the object down.
        """
        return self._plan(query, transformation, None)

    def facts(self, relation: str, token: tuple | None = None) -> _RelationFacts:
        """The relation's facts under ``token`` (its current state token when
        ``None``), read once per token: every change to what they hold —
        rows, indexes, provider, statistics epoch — moves the token."""
        if token is None:
            token = self.database.state_token(relation)
        facts = self._facts.get(relation)
        if facts is None or facts.token != token:
            for name in list(self._facts):  # a dropped relation's facts pin its index
                if name not in self.database:
                    self._facts.pop(name, None)
            facts = self._facts[relation] = _RelationFacts(self.database, relation, token)
        return facts

    def _plan(self, query: Query, transformation, token: tuple | None) -> Plan:
        self.invocations += 1
        relation = query.relation
        if relation not in self.database:
            raise QueryPlanningError(f"unknown relation {relation!r}")
        if self.database.has_distance_provider(relation):
            if transformation is not None:
                raise QueryPlanningError(
                    f"relation {relation!r} is compared through the distance "
                    f"provider {self.database.distance_provider(relation).name!r}; USING "
                    "transformations only apply to feature-space (time-series) relations")
            return self._plan_provider(query, self.facts(relation, token))
        if isinstance(query, SimilarityQuery):
            raise QueryPlanningError(
                f"relation {relation!r} has no distance provider; SIM queries "
                "need one registered with Database.register_distance")
        model = self.cost_model
        if isinstance(query, RangeQuery):
            return self._plan_feature(
                query, transformation, token, IndexRangePlan, ScanRangePlan,
                model.index_range, model.scan_range, query.epsilon)
        if isinstance(query, NearestNeighborQuery):
            return self._plan_feature(
                query, transformation, token, IndexNearestPlan, ScanNearestPlan,
                model.index_nearest, model.scan_nearest, query.k)
        if isinstance(query, AllPairsQuery):
            return self._plan_feature(
                query, transformation, token, IndexJoinPlan, ScanJoinPlan,
                model.index_join, model.scan_join, query.epsilon)
        raise QueryPlanningError(f"cannot plan query of type {type(query).__name__}")

    # ------------------------------------------------------------------
    # choice machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _choose(alternatives: list[Plan]) -> Plan:
        """Pick the argmin-estimated plan; record the others as rejected."""
        best = alternatives[0]
        for challenger in alternatives[1:]:
            if _beats(challenger.estimated_cost, best.estimated_cost):
                best = challenger
        others = [plan for plan in alternatives if plan is not best]
        if not others:
            return best
        winner = best.estimated_cost.total
        rejected = tuple(
            RejectedPlan(family=type(plan).__name__, access_path=_access_path(plan),
                         estimate=plan.estimated_cost, reason=_why_not(plan, winner))
            for plan in others)
        runner_up = min(others, key=lambda plan: plan.estimated_cost.total)
        reason = (f"{best.reason}; estimated cost {winner:.1f} vs "
                  f"{type(runner_up).__name__} {runner_up.estimated_cost.total:.1f}")
        if isinstance(best, _SCAN_FAMILIES) and \
                any(isinstance(plan, _INDEX_FAMILIES) for plan in others):
            reason += " — past the index/scan crossover"
        return type(best)(**{**vars(best), "reason": reason, "rejected": rejected})

    # ------------------------------------------------------------------
    # provider-backed (domain-generic) planning
    # ------------------------------------------------------------------
    def _plan_provider(self, query: Query, facts: _RelationFacts) -> Plan:
        provider, index_name = facts.provider, facts.index_name
        stats, cardinality = facts.statistics, facts.cardinality
        if isinstance(query, SimilarityQuery):
            return self._plan_sim(query, provider, stats, cardinality, index_name)
        if isinstance(query, RangeQuery):
            alternatives = []
            if index_name is not None:
                alternatives.append(EngineRangePlan(
                    query=query, index_name=index_name,
                    reason=f"metric index {index_name!r} prunes by triangle inequality",
                    estimated_cost=self.cost_model.metric_range(
                        stats, cardinality, query.epsilon)))
            alternatives.append(EngineRangePlan(
                query=query,
                reason=f"comparing every object through {provider.name!r}",
                estimated_cost=self.cost_model.provider_scan_range(
                    stats, cardinality, query.epsilon)))
            return self._choose(alternatives)
        if isinstance(query, NearestNeighborQuery):
            alternatives = []
            if index_name is not None:
                alternatives.append(EngineNearestPlan(
                    query=query, index_name=index_name,
                    reason=f"metric index {index_name!r} prunes by triangle inequality",
                    estimated_cost=self.cost_model.metric_nearest(
                        stats, cardinality, query.k)))
            alternatives.append(EngineNearestPlan(
                query=query,
                reason=f"comparing every object through {provider.name!r}",
                estimated_cost=self.cost_model.provider_scan_nearest(
                    stats, cardinality, query.k)))
            return self._choose(alternatives)
        if isinstance(query, AllPairsQuery):
            return self._choose([EngineJoinPlan(
                query=query,
                reason=f"nested comparison of all pairs through {provider.name!r}",
                estimated_cost=self.cost_model.provider_join(
                    stats, cardinality, query.epsilon))])
        raise QueryPlanningError(f"cannot plan query of type {type(query).__name__}")

    def _plan_sim(self, query: SimilarityQuery, provider, stats, cardinality: int,
                  index_name: str | None) -> Plan:
        if provider.rules is None:
            raise QueryPlanningError(
                f"distance provider {provider.name!r} has no transformation "
                "rules; SIM queries need a rule set or rule factory")
        screening_admissible = (provider.cost_bounds_distance
                                and math.isfinite(query.cost_bound))
        alternatives = []
        if screening_admissible and index_name is not None:
            # sim(x, q) requires distance(x, q) <= cost_bound + epsilon when
            # rules move objects by at most their cost, so the metric index
            # can screen candidates at the expanded radius.
            alternatives.append(EngineRangePlan(
                query=query, via_engine=True, index_name=index_name,
                reason=(f"metric index {index_name!r} screens candidates at "
                        "radius cost_bound + epsilon, then the similarity "
                        "engine verifies each"),
                estimated_cost=self.cost_model.sim_engine(
                    stats, cardinality, query.epsilon, query.cost_bound,
                    provider, screened_by_index=True, direct_screen=False)))
        alternatives.append(EngineRangePlan(
            query=query, via_engine=True,
            reason=(f"bounded-cost search through the similarity engine over "
                    f"{provider.name!r} rules"),
            estimated_cost=self.cost_model.sim_engine(
                stats, cardinality, query.epsilon, query.cost_bound, provider,
                screened_by_index=False, direct_screen=screening_admissible)))
        return self._choose(alternatives)

    # ------------------------------------------------------------------
    # feature-space (time-series) planning
    # ------------------------------------------------------------------
    def _plan_feature(self, query: Query, transformation, token: tuple | None,
                      index_plan_type, scan_plan_type, index_estimator,
                      scan_estimator, argument) -> Plan:
        """Index plan (when the k-index can answer) against the scan, each
        priced at the query's radius or ``k`` (``argument``)."""
        facts = self.facts(query.relation, token)
        index, reason = facts.feature_index(transformation)
        stats, cardinality = facts.statistics, facts.cardinality
        scan_estimate = scan_estimator(stats, cardinality, argument)
        if index is None:
            return self._choose([scan_plan_type(query=query, reason=reason,
                                                estimated_cost=scan_estimate)])
        # The tail is read off the index, not off the statistics: it moves
        # with every append, and every append moves the token.
        return self._choose([
            index_plan_type(query=query, reason=reason, estimated_cost=index_estimator(
                stats, cardinality, argument, tail_pages=facts.tail_pages)),
            scan_plan_type(query=query, reason=f"sequential scan over {cardinality} records",
                           estimated_cost=scan_estimate)])


_SCAN_FAMILIES = (ScanRangePlan, ScanNearestPlan, ScanJoinPlan)
_INDEX_FAMILIES = (IndexRangePlan, IndexNearestPlan, IndexJoinPlan)


def _why_not(plan: Plan, winner: float) -> str:
    """Why a priced alternative lost to the chosen plan's ``winner`` total."""
    estimate = plan.estimated_cost
    if not estimate.can_estimate:
        return (f"{plan.reason}; cost could not be estimated, so it loses "
                f"the tie to the chosen plan's {winner:.1f}")
    if estimate.total >= winner:
        return f"estimated cost {estimate.total:.1f} exceeds the chosen plan's {winner:.1f}"
    return (f"estimated cost {estimate.total:.1f} is within the tie band "
            f"of the chosen plan's {winner:.1f}; the preferred access path is kept")


def _access_path(plan: Plan) -> str:
    """How the plan touches the data: index, scan, provider or engine."""
    if isinstance(plan, (IndexRangePlan, IndexNearestPlan, IndexJoinPlan)):
        return f"via index {plan.index_name!r}"
    if isinstance(plan, (ScanRangePlan, ScanNearestPlan, ScanJoinPlan)):
        return "via sequential scan"
    if isinstance(plan, EngineRangePlan):
        if plan.via_engine:
            if plan.index_name is not None:
                return ("via similarity engine, screened by metric index "
                        f"{plan.index_name!r}")
            return "via similarity engine"
        if plan.index_name is not None:
            return f"via metric index {plan.index_name!r}"
        return "via provider scan"
    if isinstance(plan, EngineNearestPlan):
        if plan.index_name is not None:
            return f"via metric index {plan.index_name!r}"
        return "via provider scan"
    if isinstance(plan, EngineJoinPlan):
        return "via provider nested loop"
    return "via unknown access path"


def explain(plan: Plan, statistics=None) -> str:
    """Human-readable description of a plan (and, optionally, its execution).

    The first line renders the plan family, the target relation, the
    predicate (the query's canonical surface syntax) and the chosen access
    path, followed by the planner's reason for the choice::

        IndexRangePlan on 'walks': SELECT FROM walks WHERE DIST(OBJECT, $q)
        < 4.0 USING mavg10 | via index 'default' — index available and
        transformation is safe; estimated cost 12.3 vs ScanRangePlan 48.0

    Plans produced by the cost-based planner add indented lines: the
    estimated cost, the measured cost when ``statistics`` (a
    :class:`~repro.index.kindex.QueryStatistics`, e.g. from an executed
    :class:`QueryOutcome`) is supplied (a ``SIM`` search's explored states
    in their own currency), and one "why not" line per rejected alternative
    with its estimate.
    """
    lines = [f"{type(plan).__name__} on {plan.query.relation!r}: "
             f"{plan.query.describe()} | {_access_path(plan)} — {plan.reason}"]
    if plan.estimated_cost is not None:
        lines.append(f"  estimated: {plan.estimated_cost.render()}")
    if statistics is not None:
        lines.append(
            f"  actual: {statistics.io_total} I/O accesses "
            f"({statistics.node_accesses} node/page reads + "
            f"{statistics.record_fetches} record fetches), "
            f"{statistics.candidates} candidates, "
            f"{statistics.postprocessed} postprocessed"
            + (f", {statistics.states_explored} similarity-engine states explored"
               if statistics.states_explored else ""))
        probes = statistics.buffer_hits + statistics.buffer_misses
        if probes:
            lines.append(
                f"  buffer: {statistics.buffer_hits}/{probes} hits "
                f"({100.0 * statistics.buffer_hits / probes:.1f}% hit rate, "
                f"{statistics.buffer_misses} device reads)")
    for rejected in plan.rejected:
        estimate = (f"estimated {rejected.estimate.total:.1f}"
                    if rejected.estimate is not None else "no estimate")
        lines.append(f"  rejected {rejected.family} ({rejected.access_path}): "
                     f"{estimate} — {rejected.reason}")
    return "\n".join(lines)
