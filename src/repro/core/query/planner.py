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

An index of **unknown kind** (no feature space, no extractor, not metric) is
still enumerated — it may well work — but its cost cannot be estimated, so
it is priced equal to the scan with ``can_estimate=False`` and *loses the
tie*: the planner never silently assumes an unknown index is good, and the
assumption is stated in the ``explain()`` output instead of hidden.

The planner produces small plan dataclasses; the executor interprets them.
The ``explain`` helper renders a plan (optionally with the measured
statistics of an execution) as a short multi-line report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..database import Database
from ..errors import QueryPlanningError
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

    early_abandon: bool = True


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

    early_abandon: bool = True


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

    def plan(self, query: Query, *, transformation=None) -> Plan:
        """Produce the physical plan for a parsed query.

        ``transformation`` is the resolved transformation object (or ``None``)
        — the planner needs it to check index safety; name resolution happens
        in the executor, which passes the object down.
        """
        self.invocations += 1
        if query.relation not in self.database:
            raise QueryPlanningError(f"unknown relation {query.relation!r}")
        if self.database.has_distance_provider(query.relation):
            return self._plan_provider(query, transformation)
        if isinstance(query, SimilarityQuery):
            raise QueryPlanningError(
                f"relation {query.relation!r} has no distance provider; SIM queries "
                "need one registered with Database.register_distance")
        if isinstance(query, RangeQuery):
            return self._plan_range(query, transformation)
        if isinstance(query, NearestNeighborQuery):
            return self._plan_nearest(query, transformation)
        if isinstance(query, AllPairsQuery):
            return self._plan_join(query, transformation)
        raise QueryPlanningError(f"cannot plan query of type {type(query).__name__}")

    # ------------------------------------------------------------------
    # choice machinery
    # ------------------------------------------------------------------
    def _relation_facts(self, relation_name: str):
        stats = self.database.statistics_for(relation_name)
        cardinality = len(self.database.relation(relation_name))
        return stats, cardinality

    def _choose(self, alternatives: list[Plan]) -> Plan:
        """Pick the argmin-estimated plan; record the others as rejected."""
        best = alternatives[0]
        for challenger in alternatives[1:]:
            if _beats(challenger.estimated_cost, best.estimated_cost):
                best = challenger
        rejected = tuple(
            RejectedPlan(family=type(plan).__name__,
                         access_path=_access_path(plan),
                         estimate=plan.estimated_cost,
                         reason=self._why_not(plan, best))
            for plan in alternatives if plan is not best)
        return replace(best, reason=self._decorate(best, alternatives),
                       rejected=rejected)

    @staticmethod
    def _why_not(plan: Plan, chosen: Plan) -> str:
        estimate, winner = plan.estimated_cost, chosen.estimated_cost
        if not estimate.can_estimate:
            return (f"{plan.reason}; cost could not be estimated, so it loses "
                    f"the tie to the chosen plan's {winner.total:.1f}")
        if estimate.total >= winner.total:
            return (f"estimated cost {estimate.total:.1f} exceeds the chosen "
                    f"plan's {winner.total:.1f}")
        return (f"estimated cost {estimate.total:.1f} is within the tie band "
                f"of the chosen plan's {winner.total:.1f}; the preferred "
                "access path is kept")

    @staticmethod
    def _decorate(best: Plan, alternatives: list[Plan]) -> str:
        others = [plan for plan in alternatives if plan is not best]
        if not others:
            return best.reason
        runner_up = min(others, key=lambda plan: plan.estimated_cost.total)
        text = (f"{best.reason}; estimated cost {best.estimated_cost.total:.1f} "
                f"vs {type(runner_up).__name__} "
                f"{runner_up.estimated_cost.total:.1f}")
        scan_families = (ScanRangePlan, ScanNearestPlan, ScanJoinPlan)
        index_families = (IndexRangePlan, IndexNearestPlan, IndexJoinPlan)
        if isinstance(best, scan_families) and \
                any(isinstance(plan, index_families) for plan in others):
            text += " — past the index/scan crossover"
        return text

    # ------------------------------------------------------------------
    # provider-backed (domain-generic) planning
    # ------------------------------------------------------------------
    def _metric_index_name(self, relation: str) -> str | None:
        """Name of a registered metric index usable for the relation, if any."""
        for index_name, index in self.database.indexes_on(relation).items():
            if getattr(index, "is_metric", False):
                return index_name
        return None

    def _plan_provider(self, query: Query, transformation) -> Plan:
        provider = self.database.distance_provider(query.relation)
        if transformation is not None:
            raise QueryPlanningError(
                f"relation {query.relation!r} is compared through the distance "
                f"provider {provider.name!r}; USING transformations only apply to "
                "feature-space (time-series) relations")
        stats, cardinality = self._relation_facts(query.relation)
        index_name = self._metric_index_name(query.relation)
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
    def _index_usable(self, query: Query, transformation
                      ) -> tuple[bool, str, bool]:
        """``(usable, reason, kind known)`` for the relation's default index.

        An index of unknown kind (no feature space / extractor) remains
        *usable* — it may answer the query — but ``kind known`` is ``False``:
        its cost cannot be estimated, so the planner makes it lose cost ties
        to the scan instead of assuming compatibility silently.
        """
        if not self.database.has_index(query.relation):
            return False, "no index registered for the relation", False
        index = self.database.index(query.relation)
        space = getattr(index, "space", None)
        extractor = getattr(index, "extractor", None)
        if space is None or extractor is None:
            return True, ("index of unknown kind — compatibility assumed, "
                          "not verified"), False
        if transformation is None:
            return True, "index available", True
        try:
            linear = transformation.to_linear(extractor.num_coefficients,
                                              include_extra=extractor.include_stats)
        except Exception as error:  # noqa: BLE001 - any failure means "cannot push down"
            return False, f"transformation cannot be applied to the index ({error})", True
        if not linear.is_safe_for(space):
            return False, "transformation is not safe for the index's feature space", True
        return True, "index available and transformation is safe", True

    def _unknown_kind_estimate(self, scan_estimate: CostEstimate) -> CostEstimate:
        """Price an unknown-kind index exactly at the scan's cost, flagged
        unestimable — so it is chosen only when nothing else is and its tie
        against the scan is always lost."""
        return replace(scan_estimate, can_estimate=False,
                       detail="unknown index kind: assumed no better than the scan")

    def _plan_feature(self, query: Query, transformation, index_plan_type,
                      scan_plan_type, index_estimator, scan_estimator) -> Plan:
        usable, reason, known = self._index_usable(query, transformation)
        stats, cardinality = self._relation_facts(query.relation)
        scan_estimate = scan_estimator(stats, cardinality)
        alternatives = []
        if usable:
            # The tail is read off the index now, not off the statistics:
            # it moves with every append, and every append re-plans.
            estimate = (index_estimator(
                stats, cardinality, self.database.index(query.relation).tail_pages)
                if known else self._unknown_kind_estimate(scan_estimate))
            alternatives.append(index_plan_type(
                query=query, reason=reason, estimated_cost=estimate))
        scan_reason = (f"sequential scan over {cardinality} records"
                       if usable else reason)
        alternatives.append(scan_plan_type(
            query=query, reason=scan_reason, estimated_cost=scan_estimate))
        return self._choose(alternatives)

    def _plan_range(self, query: RangeQuery, transformation) -> Plan:
        return self._plan_feature(
            query, transformation, IndexRangePlan, ScanRangePlan,
            lambda stats, n, tail: self.cost_model.index_range(
                stats, n, query.epsilon, tail_pages=tail),
            lambda stats, n: self.cost_model.scan_range(stats, n, query.epsilon))

    def _plan_nearest(self, query: NearestNeighborQuery, transformation) -> Plan:
        return self._plan_feature(
            query, transformation, IndexNearestPlan, ScanNearestPlan,
            lambda stats, n, tail: self.cost_model.index_nearest(
                stats, n, query.k, tail_pages=tail),
            lambda stats, n: self.cost_model.scan_nearest(stats, n, query.k))

    def _plan_join(self, query: AllPairsQuery, transformation) -> Plan:
        return self._plan_feature(
            query, transformation, IndexJoinPlan, ScanJoinPlan,
            lambda stats, n, tail: self.cost_model.index_join(
                stats, n, query.epsilon, tail_pages=tail),
            lambda stats, n: self.cost_model.scan_join(stats, n, query.epsilon))


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
    :class:`QueryOutcome`) is supplied, and one "why not" line per rejected
    alternative with its estimate.
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
            f"{statistics.postprocessed} postprocessed")
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
