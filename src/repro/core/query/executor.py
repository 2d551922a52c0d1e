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
parsed (once per text: a :class:`Statement` memo), planned (once per catalog
state: see :mod:`repro.core.query.cache`), probed against the **answer
cache** (keyed on the AST, the bound parameters and the relation's state
token, so any :class:`Database` mutation invalidates it), and the remaining
misses are grouped by relation and plan shape.  Groups of spatial index
range queries run as one shared, vectorised R-tree traversal
(:meth:`KIndex.range_query_batch`); groups of metric index range queries
share one triangle-inequality-pruned traversal
(:meth:`MetricIndex.range_query_batch`); everything else runs through the
per-query interpreters.  ``execute`` is a thin wrapper over the batch path.
Each query yields a :class:`QueryOutcome` carrying the answers, the chosen
plan and the work counters — which is what the benchmark harness records.
"""

from __future__ import annotations

import math
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from ...index.kindex import QueryStatistics
from ...index.scan import SequentialScan
from ...timeseries.transforms import SpectralTransformation
from ..cancel import checkpoint
from ..database import Database, DistanceProvider, Relation
from ..errors import CatalogError, QueryPlanningError
from ..parallel import resolve_workers
from ..similarity import SimilarityEngine, engine_steps
from .ast import AllPairsQuery, NearestNeighborQuery, Query, RangeQuery, SimilarityQuery
from .cache import LRUCache
from .parser import parse
from .planner import Plan, Planner

__all__ = ["QueryOutcome", "QueryEngine", "Statement"]


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


class Statement:
    """A parsed query and its last run's ``(cache generation, state token,
    plan)`` — one reference, replaced whole, so concurrent readers never
    pair one token with another's plan.  The plan is ``None`` while the
    engine's plan cache is off."""

    __slots__ = ("query", "last")

    def __init__(self, query: Query) -> None:
        self.query = query
        self.last: tuple | None = None

    @property
    def token(self) -> tuple | None:
        """The relation's state token at this statement's last run."""
        return None if self.last is None else self.last[1]


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
        Capacity of the LRU plan cache and of the text → statement memo (0
        disables both: every call parses and plans).
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
        self._statements = LRUCache(plan_cache_size)
        #: Bumped by :meth:`clear_caches`: a statement's plan from an older
        #: generation is stale whatever its token says.
        self._generation = 0
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
        """Drop every cached statement, plan and answer (for benchmarks and
        tests); statements held elsewhere re-plan on their next run."""
        self.plan_cache.clear()
        self.answer_cache.clear()
        self._statements.clear()
        self._generation += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _statement(self, query: str | Query | Any) -> Statement:
        """Accept query text (parsed once per engine: the memo hands every
        repeat the same statement), a statement, an AST node, a fluent
        builder (anything with a ``build()`` producing an AST node) or a
        prepared query (anything carrying its statement, or its AST as
        ``.query``) — the front doors all meet at the same AST, so plans and
        cached answers are shared between them.
        """
        if isinstance(query, str):
            statement = self._statements.get(query)
            if statement is None:
                statement = Statement(parse(query))
                self._statements.put(query, statement)
            return statement
        statement = query if isinstance(query, Statement) \
            else getattr(query, "_statement", None)
        if isinstance(statement, Statement):
            return statement
        node, build = query, getattr(query, "build", None)
        if not isinstance(node, Query) and callable(build):
            node = build()
        if not isinstance(node, Query):
            node = getattr(query, "query", None)
        if isinstance(node, Query):
            return Statement(node)
        raise QueryPlanningError(
            f"cannot execute a {type(query).__name__}: expected query text, a "
            "Query AST node, a Q builder, or a prepared query")

    def plan(self, query: str | Query | Any) -> Plan:
        """The physical plan the engine would execute for ``query`` right now.

        Goes through the statement and the plan cache, so a subsequent
        ``execute`` of the same query (at the same catalog state) runs exactly
        this plan — which is what ``Session.explain`` and prepared statements
        rely on.
        """
        return self._plan_statement(self._statement(query))[0]

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
        statements = [self._statement(query) for query in queries]
        nodes = [statement.query for statement in statements]
        bindings = self._normalize_bindings(parameters, len(nodes))
        outcomes: list[QueryOutcome | None] = [None] * len(nodes)
        plans: list[Plan | None] = [None] * len(nodes)
        #: Queries the answer cache did not serve: index -> (state token,
        #: answer key or None).
        runs: dict[int, tuple] = {}
        groups: dict[tuple | None, list[int]] = {}
        answer_cache = self.answer_cache if self.answer_cache.capacity else None
        for index, statement in enumerate(statements):
            lookup_started = time.perf_counter()
            node = statement.query
            plan, token = self._plan_statement(statement)
            plans[index] = plan
            key = None if answer_cache is None \
                else self._answer_cache_key(node, bindings[index], token)
            cached = None if key is None else answer_cache.get(key)
            if cached is not None:
                outcomes[index] = QueryOutcome(
                    plan=cached[0], answers=list(cached[1]), statistics=cached[2].copy(),
                    elapsed_seconds=time.perf_counter() - lookup_started, from_cache=True)
                continue
            runs[index] = (token, key)
            groups.setdefault(self._group_key(node, plan), []).append(index)
        for group_key, members in groups.items():
            if group_key is not None:
                self._run_range_group(members, nodes, bindings, plans, outcomes)
                continue
            for index in members:
                node = nodes[index]
                checkpoint()
                started = time.perf_counter()
                outcome = self._run(plans[index], node, self.transformation(node.transformation),
                                    bindings[index])
                outcome.elapsed_seconds = time.perf_counter() - started
                outcomes[index] = outcome
        for index, (token, key) in runs.items():
            outcome = outcomes[index]
            self._observe_outcome(nodes[index], outcome, token)
            if key is not None:
                self.answer_cache.put(
                    key, (outcome.plan, list(outcome.answers), outcome.statistics.copy()))
        return outcomes

    def _observe_outcome(self, node: Query, outcome: QueryOutcome,
                         token: tuple) -> None:
        """Feedback loop: fold an executed range query's observed candidate
        and answer fractions into the relation's statistics (bounded EWMA —
        see :meth:`RelationStatistics.observe_range`), so repeated workloads
        converge on the measured index/scan crossover without re-analyzing.

        Only untransformed range queries feed back: a transformation changes
        the distance distribution the histograms describe.

        Scan-family plans additionally feed their buffer-pool counters into
        the cost model (durable storage routes scan page reads through a
        pool), so scan I/O estimates track the observed hit rate.

        The statistics and cardinality are the planner's facts under the
        token the query ran at; the fold runs per query, because the next
        plan must see every correction.
        """
        plan = outcome.plan
        if plan.access == "scan":
            self.planner.cost_model.observe_buffer(outcome.statistics.buffer_hits,
                                                   outcome.statistics.buffer_misses)
        if not isinstance(node, RangeQuery) or node.transformation is not None:
            return
        facts = self.planner.facts(node.relation, token)
        stats, count = facts.statistics, facts.cardinality
        if count == 0:
            return
        candidate_fraction = None
        if plan.access == "index":
            candidate_fraction = outcome.statistics.candidates / count
        elif plan.access == "provider" and plan.index_name is not None:
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
        """One mapping per query (a caller's mapping is only read: not copied)."""
        if parameters is None:
            return [{}] * count
        if not isinstance(parameters, (list, tuple)) and isinstance(parameters, Mapping):
            return [parameters] * count
        bindings = [binding if type(binding) is dict or isinstance(binding, Mapping)
                    else dict(binding or {}) for binding in parameters]
        if len(bindings) != count:
            raise QueryPlanningError(
                f"{count} queries but {len(bindings)} parameter bindings")
        return bindings

    # -- planning & caching ----------------------------------------------
    def _plan_statement(self, statement: Statement) -> tuple[Plan, tuple]:
        """The statement's plan and state token: its own plan when neither
        the token nor the cache generation moved, else the plan cache's
        (keyed on the AST), else a fresh one."""
        node = statement.query
        transformation = self.transformation(node.transformation)
        try:
            token = self.database.state_token(node.relation)
        except CatalogError:  # the planner's own error for unknown relations
            return self.planner.plan(node, transformation=transformation), None
        last = statement.last
        if last is not None and last[2] is not None and last[1] == token \
                and last[0] == self._generation:
            self.plan_cache.count_hit()
            return last[2], token
        key = (node, token)
        plan = self.plan_cache.get(key)
        if plan is None:
            plan = self.planner._plan(node, transformation, token)
            self.plan_cache.put(key, plan)
        statement.last = (self._generation, token, plan if self.plan_cache.capacity else None)
        return plan, token

    def _answer_cache_key(self, node: Query, binding: Mapping[str, Any],
                          token: tuple) -> tuple | None:
        """Cache key for a query's answers, or ``None`` when not cacheable.

        The key combines the normalised AST (which names the parameter), a
        content fingerprint of the bound object, and the relation's state
        token — so both rebinding and database mutation miss naturally.
        The fingerprint works for any domain exposing raw content: numeric
        ``values`` (time series, feature vectors: their bytes) or ``text``
        (strings: the text, never equal to bytes).  Other objects are not
        cacheable — the query still runs, it just bypasses the answer cache.
        """
        if isinstance(node, AllPairsQuery):
            return (node, (), token)
        parameter = binding.get(node.parameter)
        values = getattr(parameter, "values", None)
        if values is not None and hasattr(values, "tobytes"):
            return (node, values.tobytes(), token)
        text = parameter if isinstance(parameter, str) else getattr(parameter, "text", None)
        return (node, text, token) if isinstance(text, str) else None

    @staticmethod
    def _group_key(node: Query, plan: Plan) -> tuple | None:
        """Batch-compatibility key; ``None`` means "run individually".

        Range queries over one index share a batch: a k-index group (same
        transformation) one vectorised R-tree traversal, a metric-index
        group one triangle-inequality-pruned traversal.
        """
        if plan.shape != "range" or plan.index_name is None or plan.via_engine:
            return None
        if plan.access == "index":
            return (node.relation, plan.index_name, node.transformation,
                    node.transform_query)
        return (node.relation, plan.index_name)

    @staticmethod
    def _probe_options(plan: Plan, node: Query,
                       transformation: SpectralTransformation | None
                       ) -> dict[str, Any]:
        """What a probe of the plan's index takes besides the query and its
        radius or ``k``: a k-index is probed under the query's
        transformation, a metric index under none."""
        if plan.access == "provider":
            return {}
        return {"transformation": transformation,
                "transform_query": node.transform_query}

    def _run_range_group(self, members: list[int], nodes: list[Query],
                         bindings: list[Mapping[str, Any]],
                         plans: list[Plan | None],
                         outcomes: list[QueryOutcome | None]) -> None:
        """Run a group of range queries over one index as one batch."""
        started = time.perf_counter()
        first, plan = nodes[members[0]], plans[members[0]]
        index = self.database.index(first.relation, plan.index_name)
        queries = [self._parameter(nodes[i].parameter, bindings[i]) for i in members]
        epsilons = [nodes[i].epsilon for i in members]
        results = index.range_query_batch(
            queries, epsilons, **self._probe_options(
                plan, first, self.transformation(first.transformation)))
        share = (time.perf_counter() - started) / len(members)
        for member, result in zip(members, results):
            outcomes[member] = QueryOutcome(plan=plans[member],
                                            answers=result.answers,
                                            statistics=result.statistics,
                                            elapsed_seconds=share)

    def _run(self, plan: Plan, node: Query,
             transformation: SpectralTransformation | None,
             parameters: Mapping[str, Any]) -> QueryOutcome:
        # Range plans over an index never reach here: execute_many batches
        # them through _run_range_group (see _group_key).
        if plan.shape != "range" and plan.index_name is not None:
            index = self.database.index(node.relation, plan.index_name)
            if plan.shape == "join":
                pairs, statistics = index.all_pairs(node.epsilon,
                                                    transformation=transformation)
                return QueryOutcome(plan=plan, answers=pairs, statistics=statistics)
            result = index.nearest_neighbors(
                self._parameter(node.parameter, parameters), node.k,
                **self._probe_options(plan, node, transformation))
            return QueryOutcome(plan=plan, answers=result.answers,
                                statistics=result.statistics)
        if plan.access == "provider":
            return self._run_with_provider(plan, node, parameters)
        return self._run_with_scan(plan, node, transformation, parameters)

    # -- provider (domain-generic) plans ---------------------------------
    def _run_with_provider(self, plan: Plan, node: Query,
                           parameters: Mapping[str, Any]) -> QueryOutcome:
        """Interpret the engine plan family over the relation's distance provider."""
        provider = self.database.distance_provider(node.relation)
        if plan.via_engine:
            query_obj = self._parameter(node.parameter, parameters)
            return self._run_similarity_search(plan, node, provider, query_obj)
        objects = self.database.relation(node.relation).objects()
        statistics = QueryStatistics(candidates=len(objects))
        if plan.shape == "join":
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

    def _run_similarity_search(self, plan: Plan, node: SimilarityQuery,
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
                max_steps_per_side=engine_steps(rules, node.cost_bound))
            result = engine.similar(obj, query_obj, cost_bound=node.cost_bound,
                                    epsilon=node.epsilon, first_match=True)
            statistics.postprocessed += 1
            statistics.states_explored += result.states_explored
            if result.similar:
                answers.append((obj, result.distance))
        answers.sort(key=lambda pair: pair[1])
        return QueryOutcome(plan=plan, answers=answers, statistics=statistics)

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
        # supplies a buffer pool over its memory-mapped segments, so the
        # scan's page charges become real segment reads with measured
        # hit/miss counters.
        backend = self.database.scan_backend(relation_name) or {}
        scan = SequentialScan(store=self.database.columnar_store(relation_name),
                              workers=self.workers, **backend)
        self._scans[relation_name] = (relation, relation.version, scan)
        return scan

    def _run_with_scan(self, plan: Plan, node: Query,
                       transformation: SpectralTransformation | None,
                       parameters: Mapping[str, Any]) -> QueryOutcome:
        scan = self._scan_for(node.relation)
        if isinstance(node, AllPairsQuery):
            pairs, statistics = scan.all_pairs(node.epsilon, transformation=transformation)
            return QueryOutcome(plan=plan, answers=pairs, statistics=statistics)
        query_series = self._parameter(node.parameter, parameters)
        if isinstance(node, RangeQuery):
            result = scan.range_query(query_series, node.epsilon,
                                      transformation=transformation,
                                      transform_query=node.transform_query)
        elif isinstance(node, NearestNeighborQuery):
            result = scan.nearest_neighbors(query_series, node.k,
                                            transformation=transformation,
                                            transform_query=node.transform_query)
        else:
            raise QueryPlanningError(f"scan plan cannot run {type(node).__name__}")
        return QueryOutcome(plan=plan, answers=result.answers,
                            statistics=result.statistics)

    @staticmethod
    def _parameter(name: str, parameters: Mapping[str, Any]) -> Any:
        try:
            return parameters[name]
        except KeyError:
            known = ", ".join(sorted(parameters)) or "<none>"
            raise QueryPlanningError(
                f"query parameter ${name} was not bound; bound parameters: {known}"
            ) from None
