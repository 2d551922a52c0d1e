"""Execution of similarity queries against a :class:`~repro.core.database.Database`.

The :class:`QueryEngine` ties the pieces together:

* relations hold :class:`~repro.core.objects.DataObject` rows — time series,
  strings, or any other domain,
* a :class:`~repro.index.kindex.KIndex` (spatial) or
  :class:`~repro.index.metric.MetricIndex` (metric) may be registered per
  relation; non-spatial relations declare a
  :class:`~repro.core.database.DistanceProvider`,
* transformations are registered by name (the names used in ``USING``
  clauses),
* query objects are bound by name at execution time (``$param``).

Queries enter the engine through :meth:`QueryEngine.execute_many`: a batch is
parsed, planned (through an LRU **plan cache** keyed on the normalised AST),
probed against the **answer cache** (keyed on the AST, the bound parameters
and the relation's version token, so any :class:`Database` mutation
invalidates it), and the remaining misses are grouped by relation and plan
shape.  Groups of spatial index range queries run as one shared, vectorised
R-tree traversal (:meth:`KIndex.range_query_batch`); groups of metric index
range queries share one triangle-inequality-pruned traversal
(:meth:`MetricIndex.range_query_batch`); everything else runs through the
per-query interpreters.  ``execute`` is a thin wrapper over the batch path.
Each query yields a :class:`QueryOutcome` carrying the answers, the chosen
plan and the work counters — which is what the benchmark harness records.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

from ...index.kindex import KIndex, QueryStatistics
from ...index.scan import SequentialScan
from ...timeseries.transforms import SpectralTransformation
from ..cancel import checkpoint
from ..database import Database, DistanceProvider, Relation
from ..errors import QueryPlanningError
from ..parallel import resolve_workers
from ..similarity import SimilarityEngine
from .ast import AllPairsQuery, NearestNeighborQuery, Query, RangeQuery, SimilarityQuery
from .cache import LRUCache
from .parser import parse
from .planner import (
    EngineJoinPlan,
    EngineNearestPlan,
    EngineRangePlan,
    IndexJoinPlan,
    IndexNearestPlan,
    IndexRangePlan,
    Plan,
    Planner,
    ScanJoinPlan,
    ScanNearestPlan,
    ScanRangePlan,
)

__all__ = ["QueryOutcome", "QueryEngine"]


@dataclass
class QueryOutcome:
    """Everything produced by executing one query."""

    plan: Plan
    answers: list[Any] = field(default_factory=list)
    statistics: QueryStatistics = field(default_factory=QueryStatistics)
    elapsed_seconds: float = 0.0
    #: Whether the answers were served from the engine's answer cache
    #: without touching the index or the relation.
    from_cache: bool = False

    def __len__(self) -> int:
        return len(self.answers)


class QueryEngine:
    """Plans and executes similarity queries over a database.

    Parameters
    ----------
    database:
        Catalog of relations (of any :class:`~repro.core.objects.DataObject`
        domain), registered indexes and distance providers.
    transformations:
        Mapping from transformation names (as used in ``USING`` clauses) to
        :class:`SpectralTransformation` objects.
    plan_cache_size:
        Capacity of the LRU plan cache (0 disables plan caching).
    answer_cache_size:
        Capacity of the LRU answer cache (0 disables answer caching).
    answer_cache_bytes:
        Optional byte budget for the answer cache: columnar-scale result
        sets are evicted by estimated size as well as by entry count, so a
        few huge answers cannot pin the memory an entry-count bound alone
        would allow.  ``None`` (the default) keeps the historical
        entry-count-only behaviour.
    workers:
        Worker threads sequential scans fan their row partitions across
        (``None``/``1`` serial, ``0`` one per CPU core).  Answers are
        bit-identical to serial execution — the NumPy distance kernels
        release the GIL, so partitions genuinely overlap — and the planner
        prices scan plans at the parallel critical path.
    """

    def __init__(self, database: Database,
                 transformations: Mapping[str, SpectralTransformation] | None = None,
                 *, plan_cache_size: int = 256,
                 answer_cache_size: int = 1024,
                 answer_cache_bytes: int | None = None,
                 workers: int | None = None) -> None:
        self.database = database
        self.workers = resolve_workers(workers)
        self.planner = Planner(database, workers=self.workers)
        self.plan_cache = LRUCache(plan_cache_size)
        self.answer_cache = LRUCache(answer_cache_size,
                                     max_bytes=answer_cache_bytes)
        self._transformations: dict[str, SpectralTransformation] = dict(transformations or {})
        self._scans: dict[str, tuple[Relation, int, SequentialScan]] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_transformation(self, name: str,
                                transformation: SpectralTransformation) -> None:
        """Make a transformation available to ``USING <name>`` clauses.

        Cached plans and answers key on transformation *names*, so
        (re)binding a name drops both caches — otherwise a re-registered
        name could serve answers computed under the old transformation.
        """
        self._transformations[name] = transformation
        self.clear_caches()

    def transformation(self, name: str | None) -> SpectralTransformation | None:
        """Resolve a transformation name (``None`` stays ``None``)."""
        if name is None:
            return None
        try:
            return self._transformations[name]
        except KeyError:
            known = ", ".join(sorted(self._transformations)) or "<none>"
            raise QueryPlanningError(
                f"unknown transformation {name!r}; registered: {known}") from None

    def clear_caches(self) -> None:
        """Drop every cached plan and answer (for benchmarks and tests)."""
        self.plan_cache.clear()
        self.answer_cache.clear()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce_query(query: str | Query | Any) -> Query:
        """Accept query text, an AST node, a fluent builder (anything with a
        ``build()`` producing an AST node) or a prepared query (anything
        carrying its AST as ``.query``) — the front doors all meet at the
        same AST, so plans and cached answers are shared between them.
        """
        if isinstance(query, str):
            return parse(query)
        if isinstance(query, Query):
            return query
        build = getattr(query, "build", None)
        if callable(build):
            node = build()
            if isinstance(node, Query):
                return node
        node = getattr(query, "query", None)
        if isinstance(node, Query):
            return node
        raise QueryPlanningError(
            f"cannot execute a {type(query).__name__}: expected query text, a "
            "Query AST node, a Q builder, or a prepared query")

    def plan(self, query: str | Query | Any) -> Plan:
        """The physical plan the engine would execute for ``query`` right now.

        Goes through the plan cache, so a subsequent ``execute`` of the same
        query (at the same catalog state) runs exactly this plan — which is
        what ``Session.explain`` and prepared statements rely on.
        """
        node = self._coerce_query(query)
        return self._plan_cached(node, self.transformation(node.transformation))

    def execute(self, query: str | Query | Any,
                parameters: Mapping[str, Any] | None = None) -> QueryOutcome:
        """Parse (if needed), plan and run one query.

        A thin wrapper over :meth:`execute_many` with a single-element batch.
        """
        return self.execute_many([query], parameters=[parameters])[0]

    def execute_many(self, queries: Sequence[str | Query | Any],
                     parameters: Sequence[Mapping[str, Any] | None]
                     | Mapping[str, Any] | None = None
                     ) -> list[QueryOutcome]:
        """Plan and run a batch of queries, returning one outcome per query.

        ``parameters`` may be a single mapping shared by every query or a
        sequence with one mapping (or ``None``) per query.

        Queries are planned individually (through the plan cache) and probed
        against the answer cache; the remaining index range queries are
        grouped by (relation, index, transformation) and each group runs as
        one shared vectorised traversal, so a node serving several queries
        is read once.  Answers are identical to looping over
        :meth:`execute`; per-query ``elapsed_seconds`` of batched queries is
        the group's wall time divided evenly across its members.
        """
        nodes = [self._coerce_query(query) for query in queries]
        bindings = self._normalize_bindings(parameters, len(nodes))
        outcomes: list[QueryOutcome | None] = [None] * len(nodes)
        plans: list[Plan | None] = [None] * len(nodes)
        answer_keys: list[tuple | None] = [None] * len(nodes)
        groups: dict[tuple | None, list[int]] = {}
        for index, (node, binding) in enumerate(zip(nodes, bindings)):
            lookup_started = time.perf_counter()
            transformation = self.transformation(node.transformation)
            plan = self._plan_cached(node, transformation)
            plans[index] = plan
            key = self._answer_cache_key(node, binding)
            answer_keys[index] = key
            if key is not None:
                cached = self.answer_cache.get(key)
                if cached is not None:
                    cached_plan, cached_answers, cached_statistics = cached
                    outcomes[index] = QueryOutcome(
                        plan=cached_plan, answers=list(cached_answers),
                        statistics=replace(cached_statistics),
                        elapsed_seconds=time.perf_counter() - lookup_started,
                        from_cache=True)
                    continue
            groups.setdefault(self._group_key(node, plan), []).append(index)
        for group_key, members in groups.items():
            if group_key is not None and group_key[0] == "kindex":
                self._run_index_range_group(members, nodes, bindings, plans,
                                            outcomes)
            elif group_key is not None and group_key[0] == "metric":
                self._run_metric_range_group(members, nodes, bindings, plans,
                                             outcomes)
            else:
                for index in members:
                    checkpoint()
                    started = time.perf_counter()
                    outcome = self._run(plans[index], nodes[index],
                                        self.transformation(nodes[index].transformation),
                                        bindings[index])
                    outcome.elapsed_seconds = time.perf_counter() - started
                    outcomes[index] = outcome
        for index, outcome in enumerate(outcomes):
            if outcome.from_cache:
                continue
            self._observe_outcome(nodes[index], outcome)
            if answer_keys[index] is not None:
                self.answer_cache.put(
                    answer_keys[index],
                    (outcome.plan, list(outcome.answers),
                     replace(outcome.statistics)))
        return outcomes

    def _observe_outcome(self, node: Query, outcome: QueryOutcome) -> None:
        """Feedback loop: fold an executed range query's observed candidate
        and answer fractions into the relation's statistics (bounded EWMA —
        see :meth:`RelationStatistics.observe_range`), so repeated workloads
        converge on the measured index/scan crossover without re-analyzing.

        Only untransformed range queries feed back: a transformation changes
        the distance distribution the histograms describe.

        Scan-family plans additionally feed their buffer-pool counters into
        the cost model (durable storage routes scan page reads through a
        pool), so scan I/O estimates track the observed hit rate.
        """
        if isinstance(outcome.plan, (ScanRangePlan, ScanNearestPlan,
                                     ScanJoinPlan)):
            hits = outcome.statistics.buffer_hits
            misses = outcome.statistics.buffer_misses
            if hits or misses:
                self.planner.cost_model.observe_buffer(hits, misses)
        if not isinstance(node, RangeQuery) or node.transformation is not None:
            return
        if node.relation not in self.database:
            return
        stats = self.database.statistics_for(node.relation, collect=False)
        if stats is None:
            return
        count = len(self.database.relation(node.relation))
        if count == 0:
            return
        plan = outcome.plan
        candidate_fraction = None
        if isinstance(plan, IndexRangePlan):
            candidate_fraction = outcome.statistics.candidates / count
        elif isinstance(plan, EngineRangePlan) and not plan.via_engine \
                and plan.index_name is not None:
            # The metric index counts one pivot distance per visited node in
            # ``candidates``; the statistics' pair-fraction prediction models
            # the unpruned *bucket entries* only, so subtract the node visits
            # before comparing like with like.
            bucket_entries = max(0, outcome.statistics.candidates
                                 - outcome.statistics.node_accesses)
            candidate_fraction = bucket_entries / count
        stats.observe_range(node.epsilon,
                            candidate_fraction=candidate_fraction,
                            answer_fraction=len(outcome.answers) / count)

    @staticmethod
    def _normalize_bindings(parameters, count: int
                            ) -> list[Mapping[str, Any]]:
        if parameters is None:
            return [{} for _ in range(count)]
        if isinstance(parameters, Mapping):
            return [parameters] * count
        bindings = [dict(binding or {}) for binding in parameters]
        if len(bindings) != count:
            raise QueryPlanningError(
                f"{count} queries but {len(bindings)} parameter bindings")
        return bindings

    # -- planning & caching ----------------------------------------------
    def _plan_cached(self, node: Query,
                     transformation: SpectralTransformation | None) -> Plan:
        if node.relation not in self.database:
            # Let the planner raise its usual error for unknown relations.
            return self.planner.plan(node, transformation=transformation)
        token = self.database.state_token(node.relation)
        key = (node, node.transformation, token)
        plan = self.plan_cache.get(key)
        if plan is None:
            plan = self.planner.plan(node, transformation=transformation)
            self.plan_cache.put(key, plan)
        return plan

    def _answer_cache_key(self, node: Query,
                          binding: Mapping[str, Any]) -> tuple | None:
        """Cache key for a query's answers, or ``None`` when not cacheable.

        The key combines the normalised AST, a byte-level fingerprint of the
        bound parameter the query references, and the relation's version
        token — so both rebinding and database mutation miss naturally.
        """
        if node.relation not in self.database:
            return None
        if isinstance(node, (RangeQuery, NearestNeighborQuery, SimilarityQuery)):
            content = self._parameter_fingerprint(binding.get(node.parameter))
            if content is None:
                return None
            fingerprint = (node.parameter, content)
        else:
            fingerprint = ()
        return (node, fingerprint, self.database.state_token(node.relation))

    @staticmethod
    def _parameter_fingerprint(parameter: Any) -> tuple | None:
        """A hashable content fingerprint of a bound query object.

        Works for any domain exposing raw content: numeric ``values`` (time
        series, feature vectors) or ``text`` (strings).  ``None`` marks the
        object uncacheable — the query still runs, it just bypasses the
        answer cache.
        """
        if parameter is None:
            return None
        values = getattr(parameter, "values", None)
        if values is not None and hasattr(values, "tobytes"):
            return ("values", values.tobytes())
        text = getattr(parameter, "text", None)
        if isinstance(text, str):
            return ("text", text)
        if isinstance(parameter, str):
            return ("text", parameter)
        return None

    @staticmethod
    def _group_key(node: Query, plan: Plan) -> tuple | None:
        """Batch-compatibility key; ``None`` means "run individually".

        The first element names the batch runner: ``"kindex"`` groups share a
        vectorised R-tree traversal, ``"metric"`` groups share one
        triangle-inequality-pruned metric-tree traversal.
        """
        if isinstance(plan, IndexRangePlan) and isinstance(node, RangeQuery):
            return ("kindex", node.relation, plan.index_name, node.transformation,
                    node.transform_query)
        if isinstance(plan, EngineRangePlan) and isinstance(node, RangeQuery) \
                and plan.index_name is not None and not plan.via_engine:
            return ("metric", node.relation, plan.index_name)
        return None

    def _run_index_range_group(self, members: list[int], nodes: list[Query],
                               bindings: list[Mapping[str, Any]],
                               plans: list[Plan | None],
                               outcomes: list[QueryOutcome | None]) -> None:
        """Run a group of compatible index range queries as one batch."""
        started = time.perf_counter()
        first = nodes[members[0]]
        plan = plans[members[0]]
        index = self.database.index(first.relation, plan.index_name)
        transformation = self.transformation(first.transformation)
        series = [self._parameter(nodes[i].parameter, bindings[i]) for i in members]
        epsilons = [nodes[i].epsilon for i in members]
        results = index.range_query_batch(series, epsilons,
                                          transformation=transformation,
                                          transform_query=first.transform_query)
        share = (time.perf_counter() - started) / len(members)
        for member, result in zip(members, results):
            outcomes[member] = QueryOutcome(plan=plans[member],
                                            answers=result.answers,
                                            statistics=result.statistics,
                                            elapsed_seconds=share)

    def _run_metric_range_group(self, members: list[int], nodes: list[Query],
                                bindings: list[Mapping[str, Any]],
                                plans: list[Plan | None],
                                outcomes: list[QueryOutcome | None]) -> None:
        """Run a group of metric index range queries as one shared traversal."""
        started = time.perf_counter()
        first = nodes[members[0]]
        plan = plans[members[0]]
        index = self.database.index(first.relation, plan.index_name)
        queries = [self._parameter(nodes[i].parameter, bindings[i]) for i in members]
        epsilons = [nodes[i].epsilon for i in members]
        results = index.range_query_batch(queries, epsilons)
        share = (time.perf_counter() - started) / len(members)
        for member, result in zip(members, results):
            outcomes[member] = QueryOutcome(plan=plans[member],
                                            answers=result.answers,
                                            statistics=result.statistics,
                                            elapsed_seconds=share)

    def _run(self, plan: Plan, node: Query,
             transformation: SpectralTransformation | None,
             parameters: Mapping[str, Any]) -> QueryOutcome:
        if isinstance(plan, (EngineRangePlan, EngineNearestPlan, EngineJoinPlan)):
            return self._run_with_provider(plan, node, parameters)
        if isinstance(plan, (IndexRangePlan, IndexNearestPlan, IndexJoinPlan)):
            index = self.database.index(node.relation, getattr(plan, "index_name", "default"))
            return self._run_with_index(plan, node, transformation, parameters, index)
        return self._run_with_scan(plan, node, transformation, parameters)

    # -- provider (domain-generic) plans ---------------------------------
    def _run_with_provider(self, plan: Plan, node: Query,
                           parameters: Mapping[str, Any]) -> QueryOutcome:
        """Interpret the engine plan family over the relation's distance provider."""
        provider = self.database.distance_provider(node.relation)
        if isinstance(plan, EngineRangePlan) and plan.via_engine:
            query_obj = self._parameter(node.parameter, parameters)
            return self._run_similarity_search(plan, node, provider, query_obj)
        # Metric-index *range* plans never reach here: execute_many batches
        # them through _run_metric_range_group (see _group_key).
        if isinstance(plan, EngineNearestPlan) and plan.index_name is not None:
            index = self.database.index(node.relation, plan.index_name)
            query_obj = self._parameter(node.parameter, parameters)
            result = index.nearest_neighbors(query_obj, node.k)
            return QueryOutcome(plan=plan, answers=result.answers,
                                statistics=result.statistics)
        objects = self.database.relation(node.relation).objects()
        statistics = QueryStatistics(candidates=len(objects))
        if isinstance(plan, EngineJoinPlan):
            pairs: list[tuple[Any, Any, float]] = []
            for i, left in enumerate(objects):
                checkpoint()
                for right in objects[i + 1:]:
                    statistics.postprocessed += 1
                    distance = float(provider.distance(left, right))
                    if distance <= node.epsilon:
                        pairs.append((left, right, distance))
            statistics.candidates = statistics.postprocessed
            return QueryOutcome(plan=plan, answers=pairs, statistics=statistics)
        query_obj = self._parameter(node.parameter, parameters)
        scored: list[tuple[Any, float]] = []
        for obj in objects:
            checkpoint()
            statistics.postprocessed += 1
            scored.append((obj, float(provider.distance(obj, query_obj))))
        scored.sort(key=lambda pair: pair[1])
        if isinstance(node, RangeQuery):
            answers = [pair for pair in scored if pair[1] <= node.epsilon]
        else:
            answers = scored[:node.k]
        return QueryOutcome(plan=plan, answers=answers, statistics=statistics)

    def _run_similarity_search(self, plan: EngineRangePlan, node: SimilarityQuery,
                               provider: DistanceProvider,
                               query_obj: Any) -> QueryOutcome:
        """Evaluate the bounded-cost ``sim`` predicate.

        Candidates come from the whole relation, screened down when the
        provider's rules are cost-bounded by the base distance — through the
        metric index at radius ``cost_bound + epsilon`` when the plan names
        one, by a direct base-distance check otherwise.  Each surviving
        candidate gets its own rule set (providers may generate
        target-guided rules per pair) and one run of the generic engine's
        uniform-cost search, stopped at the first witness.
        """
        statistics = QueryStatistics()
        screen_radius = node.cost_bound + node.epsilon
        if plan.index_name is not None:
            index = self.database.index(node.relation, plan.index_name)
            screened = index.range_query(query_obj, screen_radius)
            candidates = [obj for obj, _ in screened.answers]
            statistics = screened.statistics
            statistics.candidates = len(candidates)
        else:
            candidates = self.database.relation(node.relation).objects()
            if provider.cost_bounds_distance and math.isfinite(screen_radius):
                screened_objects = []
                for obj in candidates:
                    statistics.postprocessed += 1
                    if float(provider.distance(obj, query_obj)) <= screen_radius:
                        screened_objects.append(obj)
                candidates = screened_objects
            statistics.candidates = len(candidates)
        answers: list[tuple[Any, float]] = []
        for obj in candidates:
            checkpoint()
            rules = provider.rules_for(obj, query_obj)
            engine = SimilarityEngine(
                rules, provider.distance,
                max_steps_per_side=self._engine_steps(rules, node.cost_bound))
            result = engine.similar(obj, query_obj, cost_bound=node.cost_bound,
                                    epsilon=node.epsilon, first_match=True)
            statistics.postprocessed += 1
            statistics.node_accesses += result.states_explored
            if result.similar:
                answers.append((obj, result.distance))
        answers.sort(key=lambda pair: pair[1])
        return QueryOutcome(plan=plan, answers=answers, statistics=statistics)

    @staticmethod
    def _engine_steps(rules, cost_bound: float, *, cap: int = 12) -> int:
        """Longest transformation sequence worth searching under a cost bound.

        ``cap`` (together with the engine's ``max_states``) is the
        termination guarantee the framework requires of ``sim`` evaluation:
        answers beyond it would need sequences whose search frontier is
        astronomically large anyway.  The trade-off — sound answers, bounded
        search — is documented on :class:`SimilarityQuery`.
        """
        cheapest = rules.cheapest()
        if cheapest is None:
            return 1
        if not math.isfinite(cost_bound) or cheapest.cost <= 0:
            return 4  # the engine's usual default; max_states still bounds the search
        # Tolerant floor: binary-inexact costs (0.6 / 0.1 -> 5.999...) must
        # not under-budget the sequence length by one.
        return max(1, min(cap, int(cost_bound / cheapest.cost + 1e-9)))

    # -- index plans -----------------------------------------------------
    def _run_with_index(self, plan: Plan, node: Query,
                        transformation: SpectralTransformation | None,
                        parameters: Mapping[str, Any],
                        index: KIndex) -> QueryOutcome:
        # Index *range* plans never reach here: execute_many batches them
        # through _run_index_range_group (see _group_key).
        if isinstance(node, NearestNeighborQuery):
            query_series = self._parameter(node.parameter, parameters)
            result = index.nearest_neighbors(query_series, node.k,
                                             transformation=transformation,
                                             transform_query=node.transform_query)
            return QueryOutcome(plan=plan, answers=result.answers,
                                statistics=result.statistics)
        if isinstance(node, AllPairsQuery):
            pairs, statistics = index.all_pairs(node.epsilon, transformation=transformation)
            return QueryOutcome(plan=plan, answers=pairs, statistics=statistics)
        raise QueryPlanningError(f"index plan cannot run {type(node).__name__}")

    # -- scan plans ------------------------------------------------------
    def drop_relation(self, name: str) -> None:
        """Drop a relation from the database and evict engine-side state.

        Dropping through the engine (rather than the database directly)
        releases the relation's materialised :class:`SequentialScan`
        immediately; cached plans and answers over it die with the catalog
        version bump either way.
        """
        self.database.drop_relation(name)
        self._scans.pop(name, None)

    def invalidate_scans(self) -> None:
        """Drop every materialised scan so the next query rebuilds them.

        A durable checkpoint swaps the storage backend under the catalog
        (fresh segments, fresh mmap page stores) without bumping relation
        versions — the *data* is unchanged — so the version-keyed scan
        cache must be cleared explicitly for scans to pick the new backend
        up.
        """
        self._scans.clear()

    def _evict_stale_scans(self) -> None:
        """Drop scans whose relation was removed or replaced in the catalog.

        Keeps ``_scans`` bounded by the set of live relations, so a
        drop/recreate churn workload cannot leak scan objects (each pins the
        relation's columnar record store).
        """
        for name in list(self._scans):
            if name not in self.database \
                    or self.database.relation(name) is not self._scans[name][0]:
                del self._scans[name]

    def _scan_for(self, relation_name: str) -> SequentialScan:
        relation = self.database.relation(relation_name)
        cached = self._scans.get(relation_name)
        # Compare the relation object itself, not just its version: dropping
        # and recreating a relation under the same name yields a fresh object
        # whose version can collide with the cached one.
        if cached is not None and cached[0] is relation and cached[1] == relation.version:
            return cached[2]
        self._evict_stale_scans()
        # The scan is a view over the relation's shared columnar store (the
        # same arrays a registered k-index and the statistics sampler read);
        # constructing it extracts nothing.  A durable database additionally
        # supplies a memory-mapped page store and a buffer pool, so the
        # scan's page charges become real segment reads with measured
        # hit/miss counters.
        backend_for = getattr(self.database, "scan_backend", None)
        backend = backend_for(relation_name) if backend_for is not None else None
        scan_kwargs: dict[str, Any] = {}
        if backend is not None:
            scan_kwargs = {"page_store": backend["page_store"],
                           "buffer": backend["buffer"],
                           "records_per_page": backend["records_per_page"]}
        scan = SequentialScan(store=self.database.columnar_store(relation_name),
                              workers=self.workers, **scan_kwargs)
        self._scans[relation_name] = (relation, relation.version, scan)
        return scan

    def _run_with_scan(self, plan: Plan, node: Query,
                       transformation: SpectralTransformation | None,
                       parameters: Mapping[str, Any]) -> QueryOutcome:
        scan = self._scan_for(node.relation)
        if isinstance(node, RangeQuery):
            query_series = self._parameter(node.parameter, parameters)
            early = plan.early_abandon if isinstance(plan, ScanRangePlan) else True
            result = scan.range_query(query_series, node.epsilon,
                                      transformation=transformation,
                                      transform_query=node.transform_query,
                                      early_abandon=early)
            return QueryOutcome(plan=plan, answers=result.answers,
                                statistics=result.statistics)
        if isinstance(node, NearestNeighborQuery):
            query_series = self._parameter(node.parameter, parameters)
            answers = scan.nearest_neighbors(query_series, node.k,
                                             transformation=transformation,
                                             transform_query=node.transform_query)
            hits, misses = scan.last_buffer_io
            statistics = QueryStatistics(node_accesses=scan.data_pages,
                                         candidates=len(scan),
                                         postprocessed=len(scan),
                                         buffer_hits=hits,
                                         buffer_misses=misses)
            return QueryOutcome(plan=plan, answers=answers,
                                statistics=statistics)
        if isinstance(node, AllPairsQuery):
            early = plan.early_abandon if isinstance(plan, ScanJoinPlan) else True
            pairs, statistics = scan.all_pairs(node.epsilon, transformation=transformation,
                                               early_abandon=early)
            return QueryOutcome(plan=plan, answers=pairs, statistics=statistics)
        raise QueryPlanningError(f"scan plan cannot run {type(node).__name__}")

    @staticmethod
    def _parameter(name: str, parameters: Mapping[str, Any]) -> Any:
        try:
            return parameters[name]
        except KeyError:
            known = ", ".join(sorted(parameters)) or "<none>"
            raise QueryPlanningError(
                f"query parameter ${name} was not bound; bound parameters: {known}"
            ) from None
