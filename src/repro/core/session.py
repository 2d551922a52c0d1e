"""The front door of the engine: sessions, prepared statements, handles.

Everything a caller previously wired by hand — build a
:class:`~repro.core.database.Database`, register indexes and distance
providers, construct a :class:`~repro.core.query.executor.QueryEngine`,
register transformations, ship query strings with ``$param`` dicts — enters
through one object::

    import repro
    from repro import Q

    session = repro.connect()
    (session.relation("stocks")
        .insert_many(archive)
        .with_index(KIndex.bulk_load(archive, extractor)))
    session.with_transformation("mavg20", moving_average_spectral(128, 20))

    # ad-hoc text, a fluent builder, or a prepared statement — same AST,
    # same planner, same caches:
    session.sql("SELECT FROM stocks WHERE dist(object, $q) < 2.0 USING mavg20", q=series)
    session.sql(Q.from_("stocks").under("mavg20").within(2.0).of(Q.param("q")), q=series)

    prepared = session.prepare(Q.from_("stocks").under("mavg20").within(2.0).of(Q.param("q")))
    prepared.run(q=series)                       # plan reused, not re-planned
    prepared.run_many([{"q": s} for s in batch]) # joins execute_many batching

``session.sql(text)`` is an implicitly prepared statement: the engine's
memo hands every repeat of a text the same parsed statement, which keeps its
plan beside the relation's :meth:`~repro.core.database.Database.state_token`
(:mod:`repro.core.query.cache`).  A :class:`PreparedQuery` is that statement
held by the caller: a thousand ``run`` calls against an unchanged catalog
invoke the planner exactly once — and a mutation re-plans exactly once more.
``session.explain`` goes through the same statement, so what it prints is
the plan that will actually run.

The old surface keeps working: ``Session`` is a facade over the same
``QueryEngine`` (exposed as :attr:`Session.engine`), and constructing
``QueryEngine(database, ...)`` directly remains supported.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..timeseries.transforms import SpectralTransformation
from .advisor import (IndexAdvisor, IndexRecommendation, WorkloadProfile,
                      apply_recommendation, reset_advisor_configuration)
from .database import Database, DistanceProvider, Relation, Row
from .errors import CatalogError, QueryPlanningError, SessionClosedError
from .objects import DataObject
from .query.ast import Query
from .query.executor import QueryEngine, QueryOutcome
from .query.planner import Plan, explain as explain_plan

__all__ = ["Session", "PreparedQuery", "BoundQuery", "RelationHandle", "connect"]


def _merge_parameters(parameters: Mapping[str, Any] | None,
                      keyword_parameters: Mapping[str, Any]) -> Mapping[str, Any]:
    if not keyword_parameters:  # the engine only reads bindings: no copy
        return {} if parameters is None else parameters
    merged = dict(parameters) if parameters else {}
    merged.update(keyword_parameters)
    return merged


class RelationHandle:
    """A relation plus everything registered on it, as one chainable object.

    Replaces the three-step ``create_relation`` / ``register_index`` /
    ``register_distance`` dance::

        (session.relation("words")
            .insert_many(StringObject(w) for w in words)
            .with_distance(edit_distance_provider())
            .with_index(MetricIndex(provider.distance)))

    ``with_*`` methods return the handle, so registration chains; reading
    methods (``rows``, ``objects``, iteration, ``len``) delegate to the
    underlying :class:`~repro.core.database.Relation`, available as
    :attr:`relation` when the thinner surface is not enough.

    Inserting through the handle is :meth:`Database.insert_rows`, the
    catalog's one write path: the batch is validated, every index
    registered on the relation is extended, the relation commits (a durable
    catalog logs there) and the optimizer statistics are refreshed — so the
    registration order (load then index, or index then load) does not
    matter and index-backed answers never silently miss rows.  The
    registrations (``with_index``, ``with_distance``) are the catalog's own
    and refresh the statistics themselves (:meth:`Database.refresh_statistics`):
    no read pays a collection inside a query.  Writing *below* the catalog
    (``handle.relation.insert``, ``index.insert``) leaves registered indexes
    and statistics to the caller.
    """

    __slots__ = ("_session", "relation")

    def __init__(self, session: Session, relation: Relation) -> None:
        self._session = session
        self.relation = relation

    @property
    def name(self) -> str:
        """The relation's catalog name."""
        return self.relation.name

    def _check_live(self) -> None:
        """Mutating through a handle whose relation was dropped (or dropped
        and recreated under the same name) would write into an orphaned
        object — or worse, desynchronise the new relation's indexes — so it
        is rejected instead."""
        self._session._check_open()
        database = self._session.database
        if self.name not in database \
                or database.relation(self.name) is not self.relation:
            raise CatalogError(
                f"stale handle: relation {self.name!r} was dropped or replaced "
                "in the catalog; get a fresh handle via session.relation(...)")

    # -- loading -----------------------------------------------------------
    def insert(self, row: Row | DataObject,
               attributes: Mapping[str, Any] | None = None) -> Row:
        """Insert one row (or bare object) into the relation *and* every
        registered index; returns the stored row."""
        self._check_live()
        return self._session.database.insert_rows(
            self.name, [Relation._coerce_row(row, attributes)])[0]

    def insert_many(self, rows: Iterable[Row | DataObject]) -> RelationHandle:
        """Bulk-insert rows into the relation and every registered index,
        with a single relation version bump (one cache invalidation for the
        whole load, not one per row)."""
        self._check_live()
        self._session.database.insert_rows(self.name, rows)
        return self

    # -- registration ------------------------------------------------------
    def with_index(self, index: Any, name: str = "default") -> RelationHandle:
        """Register a :class:`~repro.index.kindex.KIndex` or a
        :class:`~repro.index.metric.MetricIndex` over this relation.

        An empty index is loaded from the relation's objects; a pre-loaded
        index must match the relation's size — a mismatch is rejected loudly
        (a partially-loaded index would silently drop answers).  The guard
        is size-based and therefore best-effort: an equal-size index built
        over *different* objects cannot be detected cheaply and remains the
        caller's responsibility.  Indexes deliberately built over a subset
        belong on the lower-level :meth:`Database.register_index`, which
        does not check.  Anything else is refused with
        :class:`CatalogError` before it is touched.
        """
        self._check_live()
        self._session.database._check_index(self.name, index)
        if len(index) == 0:
            index.extend(self.relation)
        elif len(index) != len(self.relation):
            raise CatalogError(
                f"index holds {len(index)} objects but relation {self.name!r} "
                f"holds {len(self.relation)}; load the index from the full "
                "relation (or register a deliberately partial index through "
                "Database.register_index)")
        self._session.database.register_index(self.name, index, name)
        return self

    def with_distance(self, provider: DistanceProvider | Any, **kwargs: Any
                      ) -> RelationHandle:
        """Register how this relation's objects are compared (a
        :class:`DistanceProvider` or a bare distance callable; keyword
        arguments as for :meth:`Database.register_distance`)."""
        self._check_live()
        self._session.database.register_distance(self.name, provider, **kwargs)
        return self

    # -- reading -----------------------------------------------------------
    def rows(self) -> Iterator[Row]:
        return self.relation.rows()

    def objects(self) -> list[DataObject]:
        return self.relation.objects()

    def __iter__(self) -> Iterator[DataObject]:
        return iter(self.relation)

    def __len__(self) -> int:
        return len(self.relation)

    def __repr__(self) -> str:
        return f"RelationHandle({self.relation!r})"


class BoundQuery:
    """A prepared query with its parameters attached, ready to run."""

    __slots__ = ("prepared", "parameters")

    def __init__(self, prepared: PreparedQuery,
                 parameters: Mapping[str, Any]) -> None:
        self.prepared = prepared
        self.parameters = dict(parameters)

    @property
    def query(self) -> Query:
        """The underlying AST node (so the engine's front doors accept a
        bound query wherever they accept its prepared statement)."""
        return self.prepared.query

    def run(self) -> QueryOutcome:
        """Execute with the bound parameters (the prepared plan is reused)."""
        return self.prepared.run(self.parameters)

    def explain(self) -> str:
        """The plan this binding will execute."""
        return self.prepared.explain()

    def __repr__(self) -> str:
        return f"BoundQuery({self.prepared.text!r}, {sorted(self.parameters)})"


class PreparedQuery:
    """Parse once, plan once per catalog state, bind and run many times.

    Obtained from :meth:`Session.prepare`: the engine's statement for the
    source, the one ``session.sql`` of the same text runs.  Planning happens
    lazily and the plan stays with the statement beside the relation's
    state token — so repeated :meth:`run` / :meth:`run_many` calls against
    an unchanged catalog never invoke the planner again, while any catalog
    or data mutation transparently re-plans on the next run.
    :meth:`run_many` hands the whole binding list to
    :meth:`~repro.core.query.executor.QueryEngine.execute_many`, so
    compatible bindings share one batched index traversal.
    """

    __slots__ = ("_session", "_statement", "query", "text")

    def __init__(self, session: Session, source: str | Query | Any) -> None:
        self._session = session
        self._statement = session.engine._statement(source)
        self.query: Query = self._statement.query
        #: Canonical surface text of the prepared query.
        self.text: str = source if isinstance(source, str) else self.query.describe()

    def plan(self) -> Plan:
        """The plan the next ``run`` will execute (through the plan cache)."""
        self._session._check_open()
        return self._session.engine.plan(self._statement)

    def explain(self) -> str:
        """One-line rendering of :meth:`plan`."""
        return explain_plan(self.plan())

    def bind(self, parameters: Mapping[str, Any] | None = None,
             **keyword_parameters: Any) -> BoundQuery:
        """Attach parameters, returning a runnable :class:`BoundQuery`."""
        return BoundQuery(self, _merge_parameters(parameters, keyword_parameters))

    def run(self, parameters: Mapping[str, Any] | None = None,
            **keyword_parameters: Any) -> QueryOutcome:
        """Execute once with the given parameters."""
        self._session._check_open()
        merged = _merge_parameters(parameters, keyword_parameters)
        return self._session.engine.execute(self._statement, merged)

    def run_many(self, bindings: Sequence[Mapping[str, Any] | None]
                 ) -> list[QueryOutcome]:
        """Execute once per binding, as one batch (shared traversals,
        shared plan, per-binding answer-cache probes)."""
        self._session._check_open()
        if isinstance(bindings, Mapping):
            raise QueryPlanningError(
                "run_many takes a sequence of binding mappings (one per "
                "execution); for a single binding use run(...) or "
                "run_many([binding])")
        bindings = list(bindings)
        return self._session.engine.execute_many([self._statement] * len(bindings),
                                                 bindings)

    def __repr__(self) -> str:
        return f"PreparedQuery({self.text!r})"


class Session:
    """One front door: catalog, transformations, caches and execution.

    Parameters
    ----------
    database:
        An existing catalog to wrap, or ``None`` for a fresh one.
    transformations:
        Initial ``USING``-name registrations (more via
        :meth:`with_transformation`).
    plan_cache_size / answer_cache_size:
        Forwarded to the underlying :class:`QueryEngine`; ``0`` disables the
        respective cache.
    answer_cache_bytes:
        Optional byte budget for the answer cache (see
        :class:`QueryEngine`); ``None`` bounds it by entry count only.
    workers:
        Worker threads for partition-parallel scans (see
        :class:`QueryEngine`); ``None``/``1`` serial, ``0`` one per core.
    path:
        Directory of a durable database.  When given (and ``database`` is
        not), the session opens a
        :class:`~repro.storage.durable.DurableDatabase` at that path —
        creating the directory on first use, recovering from the manifest
        and the write-ahead log otherwise; the log is the catalog's journal
        (see :class:`Database`).  Durable sessions support
        :meth:`checkpoint` / :meth:`close` and checkpoint automatically on
        clean ``with``-block exit.
    wal_sync:
        Durable only: the write-ahead log's fsync policy — ``"always"``
        (fsync every record), ``"batch"`` (fsync every ``batch`` records
        and on checkpoint; the default) or ``"off"`` (leave syncing to the
        OS).
    buffer_pages:
        Durable only: capacity (in pages) of the buffer pools that serve
        sequential scans over the memory-mapped segments.
    """

    def __init__(self, database: Database | None = None, *,
                 transformations: Mapping[str, SpectralTransformation] | None = None,
                 plan_cache_size: int = 256,
                 answer_cache_size: int = 1024,
                 answer_cache_bytes: int | None = None,
                 workers: int | None = None,
                 path: str | None = None,
                 wal_sync: str = "batch",
                 buffer_pages: int = 256) -> None:
        if path is not None:
            if database is not None:
                raise CatalogError(
                    "pass either an existing database or a durable path, "
                    "not both")
            from ..storage.durable import DurableDatabase
            database = DurableDatabase(path, wal_sync=wal_sync,
                                       buffer_pages=buffer_pages)
        self.database = database if database is not None else Database()
        self._closed = False
        #: The underlying engine — the compat escape hatch; everything the
        #: session runs goes through it (and through its caches).
        self.engine = QueryEngine(self.database, transformations,
                                  plan_cache_size=plan_cache_size,
                                  answer_cache_size=answer_cache_size,
                                  answer_cache_bytes=answer_cache_bytes,
                                  workers=workers)

    # -- lifecycle ---------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (a closed session rejects all use)."""
        return self._closed

    def _check_open(self) -> None:
        """Every public entry point calls this first: using a closed session
        must fail with one typed, catchable error — not with whatever
        attribute error the first dead resource happens to produce."""
        if self._closed:
            raise SessionClosedError(
                f"session over {self.database.name!r} is closed; open a new "
                "one with repro.connect(...)")

    # -- catalog -----------------------------------------------------------
    def relation(self, name: str,
                 rows: Iterable[Row | DataObject] = ()) -> RelationHandle:
        """A chainable handle on the named relation, creating it (with the
        optional initial ``rows``) when the catalog does not have it yet."""
        self._check_open()
        if name in self.database:
            handle = RelationHandle(self, self.database.relation(name))
            if rows:
                handle.insert_many(rows)
            return handle
        return RelationHandle(self, self.database.create_relation(name, rows))

    def drop_relation(self, name: str) -> None:
        """Drop a relation, its indexes, its provider and engine-side state."""
        self._check_open()
        self.engine.drop_relation(name)

    def with_transformation(self, name: str,
                            transformation: SpectralTransformation) -> Session:
        """Register a ``USING``-clause transformation; chainable."""
        self._check_open()
        self.engine.register_transformation(name, transformation)
        return self

    def analyze(self, relation_name: str):
        """Collect optimizer statistics for a relation (cardinality, extents,
        distance histograms, index structure) and return them.

        The cost-based planner reads these to price index-vs-scan
        alternatives; an explicit ``analyze`` bumps the relation's statistics
        epoch, which folds into the state token — cached plans and answers
        are invalidated by construction and the next query re-plans against
        the fresh numbers.  (Statistics are also collected lazily on first
        plan; ``analyze`` exists to *refresh* them after the data changed
        shape, and to do the sampling at a moment of the caller's choosing.)
        """
        self._check_open()
        return self.database.analyze(relation_name)

    def advise(self, relation_name: str, workload: Any) -> IndexRecommendation:
        """Recommend an index configuration for a relation, given a workload.

        ``workload`` is either a :class:`~repro.bench.workloads.Workload`
        (anything with a ``profile()`` method) or a ready-made
        :class:`~repro.core.advisor.WorkloadProfile`.  Candidates — no
        index, a k-index per considered prefix length, a metric index over
        the exact distance — are priced with the planner's own cost model
        against the profile; nothing is installed.  See
        :meth:`autotune` for the mutating variant.
        """
        self._check_open()
        profile = workload.profile() if hasattr(workload, "profile") else workload
        if not isinstance(profile, WorkloadProfile):
            raise CatalogError(
                "advise needs a Workload (with .profile()) or a WorkloadProfile, "
                f"got {type(workload).__name__}")
        advisor = IndexAdvisor(self.engine.planner.cost_model)
        return advisor.recommend(self.database, relation_name, profile)

    def autotune(self, relation_name: str, workload: Any) -> IndexRecommendation:
        """Advise and *install*: self-tune a relation's index configuration.

        Drops the current ``"default"`` index and any advisor-registered
        distance provider (user-registered providers are preserved), runs
        :meth:`advise` against the cleaned catalog, and installs the chosen
        configuration through the ordinary catalog APIs — so cached plans
        and answers are invalidated by construction and the next query runs
        against the tuned physical design.  Returns the recommendation.
        """
        reset_advisor_configuration(self.database, relation_name)
        recommendation = self.advise(relation_name, workload)
        apply_recommendation(self.database, recommendation)
        return recommendation

    # -- execution ---------------------------------------------------------
    def sql(self, query: str | Query | Any,
            parameters: Mapping[str, Any] | None = None,
            **keyword_parameters: Any) -> QueryOutcome:
        """Parse, plan and run one query (text, AST node or ``Q`` builder);
        parameters go in a mapping, as keywords, or both.  Text is parsed
        once per session and planned once per catalog state."""
        self._check_open()
        return self.engine.execute(query,
                                   _merge_parameters(parameters, keyword_parameters))

    def sql_many(self, queries: Sequence[str | Query | Any],
                 parameters: Sequence[Mapping[str, Any] | None]
                 | Mapping[str, Any] | None = None) -> list[QueryOutcome]:
        """Run a batch of queries through the engine's batched executor."""
        self._check_open()
        return self.engine.execute_many(queries, parameters)

    def prepare(self, query: str | Query | Any) -> PreparedQuery:
        """Parse now (once per text); plan lazily, once per catalog state."""
        self._check_open()
        return PreparedQuery(self, query)

    def explain(self, query: str | Query | PreparedQuery | Any) -> str:
        """The plan a query would execute right now (same cache entry the
        execution will hit, so this *is* the plan that runs).

        Renders the chosen plan with its estimated cost and one "why not"
        line per rejected alternative.  Pass an executed
        :class:`~repro.core.query.executor.QueryOutcome` to additionally
        render the *measured* cost next to the estimate."""
        self._check_open()
        if isinstance(query, QueryOutcome):
            return explain_plan(query.plan, statistics=query.statistics)
        if isinstance(query, (PreparedQuery, BoundQuery)):
            return query.explain()
        return explain_plan(self.engine.plan(query))

    # -- caches ------------------------------------------------------------
    @property
    def plan_cache(self):
        """The engine's LRU plan cache (shared by every front end)."""
        return self.engine.plan_cache

    @property
    def answer_cache(self):
        """The engine's LRU answer cache (shared by every front end)."""
        return self.engine.answer_cache

    def clear_caches(self) -> None:
        """Drop every cached plan and answer."""
        self.engine.clear_caches()

    # -- durability --------------------------------------------------------
    def checkpoint(self) -> None:
        """Snapshot a durable database: flush the WAL, write columnar
        segments and serialized index pages, atomically swap the manifest.
        After a checkpoint, reopening skips both WAL replay and index
        rebuilds.  A no-op for in-memory sessions."""
        self._check_open()
        self.database.checkpoint()
        # A durable checkpoint re-mmapped the segment files; materialised
        # scans must re-attach to new page stores and pools.
        self.engine.invalidate_scans()

    def close(self) -> None:
        """Close the session: flush and close a durable database's
        write-ahead log (without checkpointing); in-memory sessions just
        flip to closed.  The session must not be used afterwards — every
        entry point (including a second ``close``) raises
        :class:`~repro.core.errors.SessionClosedError`, because a double
        close means two owners each believe the session is theirs."""
        self._check_open()
        self._closed = True
        self.database.close()

    def __enter__(self) -> Session:
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Checkpoint on clean exit, so ``with repro.connect(path=...)``
        leaves a snapshot that reopens without replay or rebuilds; on an
        exception only flush and close — the WAL already holds every
        acknowledged write, and recovery replays it."""
        if exc_type is None:
            self.checkpoint()
        self.close()

    def __repr__(self) -> str:
        return f"Session({self.database!r})"


def connect(database: Database | None = None, *,
            transformations: Mapping[str, SpectralTransformation] | None = None,
            plan_cache_size: int = 256,
            answer_cache_size: int = 1024,
            answer_cache_bytes: int | None = None,
            workers: int | None = None,
            path: str | None = None,
            wal_sync: str = "batch",
            buffer_pages: int = 256) -> Session:
    """Open a :class:`Session` — the recommended way in.

    ``repro.connect()`` starts from an empty catalog;
    ``repro.connect(existing_database)`` wraps one built elsewhere (the
    migration path for code that already constructs ``Database`` /
    ``QueryEngine`` by hand); ``repro.connect(path="...")`` opens (or
    recovers) a *durable* database directory — use it as a context manager
    to checkpoint on clean exit::

        with repro.connect(path="walks.db") as session:
            session.relation("walks").insert_many(archive)

    ``workers`` turns on partition-parallel scan execution (``0`` = one
    worker per CPU core); answers are bit-identical to the serial default.
    ``wal_sync`` and ``buffer_pages`` tune a durable session's fsync policy
    and buffer-pool capacity (see :class:`Session`).
    """
    return Session(database, transformations=transformations,
                   plan_cache_size=plan_cache_size,
                   answer_cache_size=answer_cache_size,
                   answer_cache_bytes=answer_cache_bytes,
                   workers=workers, path=path, wal_sync=wal_sync,
                   buffer_pages=buffer_pages)
