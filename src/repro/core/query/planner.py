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

Which access paths answer which query shape is written once, in
:data:`PLAN_FAMILIES`: per domain and shape, rows in enumeration order (a
tie goes to the first) naming plan class, estimator, reason and access-path
text.  The planner builds every alternative from it, the
:class:`~repro.core.advisor.IndexAdvisor` prices a configuration as the
cheapest row it makes available, and ``explain`` reads access paths off it;
the executor dispatches on each plan class's ``shape`` and ``access``.

* relations of time series (``"feature"``) choose between an **index plan**
  (the registered k-index, traversed under the query's transformation when
  it is safe for the index's feature space) and a **scan plan** (sequential
  scan with early abandoning) — the choice *is* the relation-size /
  selectivity / answer-set-size tradeoff of the evaluation's figures,
  decided per query from the estimates rather than assumed;
* relations with a **distance provider** (``"provider"``: strings and any
  other non-spatial domain) are served by the **engine plans**: exact
  range/nearest-neighbour evaluation through the provider's metric,
  accelerated by a registered :class:`~repro.index.metric.MetricIndex` when
  its estimated triangle-inequality pruning beats the brute provider scan,
  and bounded-cost ``SIM`` predicates through the generic
  :class:`~repro.core.similarity.SimilarityEngine` search.  A ``SIM`` query
  must not prune with the metric index at radius ``epsilon`` — the
  transformation distance lies *below* the base distance — but when the
  provider declares that rule costs bound distance movement
  (``cost_bounds_distance``), screening candidates at the expanded radius
  ``cost_bound + epsilon`` is admissible by the triangle inequality.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import ClassVar, NamedTuple

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
    "AccessPath",
    "PLAN_FAMILIES",
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

    #: Class data: the query shape (``"range"``, ``"nearest"``, ``"join"``)
    #: and the access family (``"index"``, ``"scan"``, ``"provider"``);
    #: families that can probe an index or run the similarity engine
    #: declare ``index_name`` / ``via_engine`` as fields.
    shape: ClassVar[str] = ""
    access: ClassVar[str] = ""
    index_name: ClassVar[str | None] = None
    via_engine: ClassVar[bool] = False


@dataclass(frozen=True)
class IndexRangePlan(Plan):
    """Answer a range query with the registered k-index."""

    shape, access = "range", "index"
    index_name: str = "default"


@dataclass(frozen=True)
class ScanRangePlan(Plan):
    """Answer a range query with a sequential scan."""

    shape, access = "range", "scan"


@dataclass(frozen=True)
class IndexNearestPlan(Plan):
    """Answer a nearest-neighbour query with the registered k-index."""

    shape, access = "nearest", "index"
    index_name: str = "default"


@dataclass(frozen=True)
class ScanNearestPlan(Plan):
    """Answer a nearest-neighbour query with a sequential scan."""

    shape, access = "nearest", "scan"


@dataclass(frozen=True)
class IndexJoinPlan(Plan):
    """Answer an all-pairs query with index probes."""

    shape, access = "join", "index"
    index_name: str = "default"


@dataclass(frozen=True)
class ScanJoinPlan(Plan):
    """Answer an all-pairs query with a nested scan."""

    shape, access = "join", "scan"


@dataclass(frozen=True)
class EngineRangePlan(Plan):
    """Answer a range (or ``SIM``) query through the relation's distance provider.

    ``index_name`` names the metric index supplying sublinear candidate sets
    (``None`` → compare against every object).  ``via_engine`` marks a
    bounded-cost ``SIM`` evaluation through the generic similarity engine
    rather than the exact base distance.
    """

    shape, access = "range", "provider"
    index_name: str | None = None
    via_engine: bool = False


@dataclass(frozen=True)
class EngineNearestPlan(Plan):
    """Answer a nearest-neighbour query through the relation's distance provider."""

    shape, access = "nearest", "provider"
    index_name: str | None = None


@dataclass(frozen=True)
class EngineJoinPlan(Plan):
    """Answer an all-pairs query by comparing objects through the provider."""

    shape, access = "join", "provider"


# ----------------------------------------------------------------------
# the plan-family table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AccessPath:
    """One row of :data:`PLAN_FAMILIES`: one way to answer one query shape.

    ``index`` is the index the path probes (``"kindex"`` or ``"metric"``,
    the advisor's candidate kinds; ``None``: every record), ``estimator``
    the :class:`QueryCostModel` method that prices it.  ``reason`` and
    ``text`` (``explain``'s access path) are templates over ``{index}``,
    ``{provider}``, ``{cardinality}`` and ``{verdict}`` (the k-index's own
    verdict on the transformation).
    """

    plan: type[Plan]
    index: str | None
    estimator: Callable[..., CostEstimate]
    reason: str
    text: str


_M = QueryCostModel
_TRIANGLE = "metric index {index!r} prunes by triangle inequality"
_EVERY = "comparing every object through {provider!r}"
_SCAN = "sequential scan over {cardinality} records"
_BY_INDEX, _BY_SCAN = "via index {index!r}", "via sequential scan"
_BY_METRIC, _BY_PROVIDER = "via metric index {index!r}", "via provider scan"

#: Per relation domain and query shape, the access paths that can answer it,
#: in enumeration order: a cost tie goes to the first.  ``"sim"`` rows run
#: the similarity engine, pricing a ``SIM`` predicate's screen at
#: ``cost_bound + epsilon`` (``Planner._plan_sim`` says when it is admissible).
PLAN_FAMILIES: dict[str, dict[str, tuple[AccessPath, ...]]] = {
    "feature": {
        "range": (AccessPath(IndexRangePlan, "kindex", _M.index_range, "{verdict}", _BY_INDEX),
                  AccessPath(ScanRangePlan, None, _M.scan_range, _SCAN, _BY_SCAN)),
        "nearest": (AccessPath(IndexNearestPlan, "kindex", _M.index_nearest, "{verdict}",
                               _BY_INDEX),
                    AccessPath(ScanNearestPlan, None, _M.scan_nearest, _SCAN, _BY_SCAN)),
        "join": (AccessPath(IndexJoinPlan, "kindex", _M.index_join, "{verdict}", _BY_INDEX),
                 AccessPath(ScanJoinPlan, None, _M.scan_join, _SCAN, _BY_SCAN)),
    },
    "provider": {
        "range": (AccessPath(EngineRangePlan, "metric", _M.metric_range, _TRIANGLE, _BY_METRIC),
                  AccessPath(EngineRangePlan, None, _M.provider_scan_range, _EVERY,
                             _BY_PROVIDER)),
        "nearest": (AccessPath(EngineNearestPlan, "metric", _M.metric_nearest, _TRIANGLE,
                               _BY_METRIC),
                    AccessPath(EngineNearestPlan, None, _M.provider_scan_nearest, _EVERY,
                               _BY_PROVIDER)),
        "join": (AccessPath(EngineJoinPlan, None, _M.provider_join,
                            "nested comparison of all pairs through {provider!r}",
                            "via provider nested loop"),),
        "sim": (AccessPath(EngineRangePlan, "metric",
                           partial(_M.sim_engine, screened_by_index=True),
                           "metric index {index!r} screens candidates at radius cost_bound + "
                           "epsilon, then the similarity engine verifies each",
                           "via similarity engine, screened by metric index {index!r}"),
                AccessPath(EngineRangePlan, None, partial(_M.sim_engine, screened_by_index=False),
                           "bounded-cost search through the similarity engine over "
                           "{provider!r} rules", "via similarity engine")),
    },
}

_SHAPES = {RangeQuery: "range", NearestNeighborQuery: "nearest",
           AllPairsQuery: "join", SimilarityQuery: "sim"}

#: ``(plan class, probes an index, via the engine)`` -> access-path template.
_TEXTS = {(row.plan, row.index is not None, shape == "sim"): row.text
          for shapes in PLAN_FAMILIES.values() for shape, rows in shapes.items() for row in rows}


class _Bound(NamedTuple):
    """A table row as one relation offers it."""

    path: AccessPath
    estimate: Callable[..., CostEstimate]
    reason: str
    access_path: str
    fields: dict


def _beats(challenger: CostEstimate, incumbent: CostEstimate) -> bool:
    """Whether a later-enumerated plan displaces the current best."""
    if challenger.can_estimate and not incumbent.can_estimate:
        # A real estimate wins any tie against an assumed one.
        return challenger.total <= incumbent.total
    return challenger.total < incumbent.total * (1.0 - TIE_TOLERANCE)


class _RelationFacts:
    """What planning over one relation reads that only a move of its state
    token can change: the statistics (basis checked once), the cardinality,
    the distance provider, the index and, per transformation, its verdict
    and the table rows the relation offers with their texts filled in.  A
    plan under the same token pays only its own radius: histogram
    positions and the cost arithmetic."""

    __slots__ = ("token", "statistics", "cardinality", "provider", "domain", "index",
                 "index_name", "reason", "tail_pages", "paths")

    def __init__(self, database: Database, relation: str, token: tuple) -> None:
        self.token = token
        self.statistics = database.statistics_for(relation)
        self.cardinality = len(database.relation(relation))
        self.tail_pages, self.reason = 0.0, None
        #: id(transformation) -> (transformation, shape -> offered rows).
        self.paths: dict[int, tuple] = {}
        indexes = database.indexes_on(relation)
        if database.has_distance_provider(relation):
            self.provider, self.domain = database.distance_provider(relation), "provider"
            self.index_name = next((name for name, index in indexes.items()
                                    if isinstance(index, MetricIndex)), None)
            return
        self.provider, self.domain, self.index_name = None, "feature", None
        self.index = indexes.get("default")
        if self.index is None:
            self.reason = "no index registered for the relation"
        elif not isinstance(self.index, KIndex):
            self.reason = "the relation's index is not a k-index"
        else:
            self.index_name, self.reason = "default", "index available"
            self.tail_pages = self.index.tail_pages

    def offered(self, shape: str, transformation=None) -> list[_Bound]:
        """The rows of ``shape`` this relation can run under
        ``transformation``, in table order (bound once per transformation)."""
        entry = self.paths.get(id(transformation))
        if entry is not None and entry[0] is transformation:
            return entry[1][shape]
        index_name, verdict = self.index_name, self.reason
        if index_name is not None and transformation is not None:
            # The k-index itself judges the transformation
            # (:meth:`KIndex.lower_transformation`), so plan and probe
            # cannot disagree about safety.
            try:
                self.index.lower_transformation(transformation)
                verdict = "index available and transformation is safe"
            except UnsafeTransformationError:
                index_name = None
                verdict = "transformation is not safe for the index's feature space"
            except (IndexError_, DimensionMismatchError, ValueError) as error:
                index_name = None
                verdict = f"transformation cannot be applied to the index ({error})"
        values = {"index": index_name, "cardinality": self.cardinality, "verdict": verdict,
                  "provider": getattr(self.provider, "name", None)}
        bound: dict[str, list[_Bound]] = {}
        for row_shape, rows in PLAN_FAMILIES[self.domain].items():
            bound[row_shape] = offered = []
            for row in rows:
                if row.index is not None and index_name is None:
                    continue
                fields = {"index_name": index_name} if row.index else {}
                if row_shape == "sim":
                    fields["via_engine"] = True
                # A k-index probe filters the index's unindexed tail whole,
                # as it is now: every append moves the token.  A k-NN probe's
                # bound weighs the coefficients as the index decides.
                estimate = row.estimator
                if row.index == "kindex":
                    options = {"tail_pages": self.tail_pages}
                    if row_shape == "nearest":
                        options["bound_weight"] = self.index.bound_weight(transformation)
                    estimate = partial(estimate, **options)
                # When no k-index can answer, the scan gives the index's verdict.
                reason = verdict if verdict and index_name is None else row.reason.format(**values)
                offered.append(_Bound(row, estimate, reason, row.text.format(**values), fields))
        self.paths[id(transformation)] = (transformation, bound)
        return bound[shape]


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
        facts = self.facts(relation, token)
        shape = _SHAPES.get(type(query))
        if facts.provider is not None:
            if transformation is not None:
                raise QueryPlanningError(
                    f"relation {relation!r} is compared through the distance "
                    f"provider {facts.provider.name!r}; USING transformations "
                    "only apply to feature-space (time-series) relations")
        elif shape == "sim":
            raise QueryPlanningError(
                f"relation {relation!r} has no distance provider; SIM queries "
                "need one registered with Database.register_distance")
        if shape is None:
            raise QueryPlanningError(f"cannot plan query of type {type(query).__name__}")
        if shape == "sim":
            return self._plan_sim(query, facts)
        model, stats, cardinality = self.cost_model, facts.statistics, facts.cardinality
        argument = query.k if shape == "nearest" else query.epsilon
        return self._choose(query, [(bound, bound.estimate(model, stats, cardinality, argument))
                                    for bound in facts.offered(shape, transformation)])

    def _plan_sim(self, query: SimilarityQuery, facts: _RelationFacts) -> Plan:
        provider = facts.provider
        if provider.rules is None:
            raise QueryPlanningError(
                f"distance provider {provider.name!r} has no transformation "
                "rules; SIM queries need a rule set or rule factory")
        # sim(x, q) requires distance(x, q) <= cost_bound + epsilon when rules
        # move objects by at most their cost: the metric index, or without
        # one a direct base-distance check, can screen at that radius.
        admissible = provider.cost_bounds_distance and math.isfinite(query.cost_bound)
        return self._choose(query, [
            (bound, bound.estimate(
                self.cost_model, facts.statistics, facts.cardinality, query.epsilon,
                query.cost_bound, provider, direct_screen=admissible))
            for bound in facts.offered("sim") if admissible or bound.path.index is None])

    @staticmethod
    def _choose(query: Query, priced: list[tuple[_Bound, CostEstimate]]) -> Plan:
        """Build the argmin-estimated alternative; record the others as
        rejected."""
        best = priced[0]
        for challenger in priced[1:]:
            if _beats(challenger[1], best[1]):
                best = challenger
        bound, estimate = best
        others = [pair for pair in priced if pair is not best]
        reason, rejected = bound.reason, ()
        if others:
            winner = estimate.total
            rejected = tuple(
                RejectedPlan(family=other.path.plan.__name__, access_path=other.access_path,
                             estimate=cost, reason=_why_not(other.reason, cost, winner))
                for other, cost in others)
            runner_up, runner_cost = min(others, key=lambda pair: pair[1].total)
            reason = (f"{reason}; estimated cost {winner:.1f} vs "
                      f"{runner_up.path.plan.__name__} {runner_cost.total:.1f}")
            if bound.path.plan.access == "scan" and any(
                    other.path.plan.access == "index" for other, _ in others):
                reason += " — past the index/scan crossover"
        return bound.path.plan(query=query, reason=reason, estimated_cost=estimate,
                               rejected=rejected, **bound.fields)


def _why_not(reason: str, estimate: CostEstimate, winner: float) -> str:
    """Why a priced alternative lost to the chosen plan's ``winner`` total."""
    if not estimate.can_estimate:
        return (f"{reason}; cost could not be estimated, so it loses "
                f"the tie to the chosen plan's {winner:.1f}")
    if estimate.total >= winner:
        return f"estimated cost {estimate.total:.1f} exceeds the chosen plan's {winner:.1f}"
    return (f"estimated cost {estimate.total:.1f} is within the tie band "
            f"of the chosen plan's {winner:.1f}; the preferred access path is kept")


def _access_path(plan: Plan) -> str:
    """How the plan touches the data, as its :data:`PLAN_FAMILIES` row says."""
    text = _TEXTS.get((type(plan), plan.index_name is not None, plan.via_engine))
    return "via unknown access path" if text is None else text.format(index=plan.index_name)


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
