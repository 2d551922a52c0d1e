"""A small in-memory relational substrate.

Relations in the framework are, at their core, *sets of objects* ("we assume
relations are unary ... in practice of course they may have other
attributes").  :class:`Relation` stores :class:`~repro.core.objects.DataObject`
rows together with an optional attribute dictionary per row, and
:class:`Database` is the catalog that names relations and the indexes built
over them.  The query executor and the benchmark harness work exclusively
through these two classes, so swapping in a different storage engine only
requires re-implementing this module's interface.

Because the framework is domain independent, the catalog also records *how
objects of a relation are compared*: a :class:`DistanceProvider` pairs the
relation's exact distance (a metric, e.g. the weighted edit distance for
strings) with an optional transformation rule set for bounded-cost
similarity queries.  Relations of time series don't need one — their
distance is fixed by the feature extractor — but any other domain becomes
queryable by registering a provider.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator, Mapping
from typing import Any

from .errors import CatalogError, StorageError
from .objects import DataObject
from .rules import TransformationRuleSet

__all__ = ["Row", "Relation", "Database", "DistanceProvider"]


@dataclass(frozen=True)
class DistanceProvider:
    """How a relation's objects are compared, for the domain-generic planner.

    Attributes
    ----------
    distance:
        The exact base distance ``D0``; a callable ``(x, y) -> float``.  It
        must be a metric (triangle inequality) for metric-index pruning to be
        admissible; a non-metric distance still works through the scan paths.
    rules:
        Transformations for ``SIM`` queries: either a
        :class:`~repro.core.rules.TransformationRuleSet` shared by every
        query, or a factory ``(source, target) -> TransformationRuleSet``
        generating target-guided rules per object pair (the string domain's
        lazily-expanded edit operations).  ``None`` disables ``SIM`` queries.
    cost_bounds_distance:
        Declares that every transformation the rules produce moves an object
        by at most its cost under ``distance`` (edit operations under the
        edit distance are the canonical case).  By the triangle inequality
        ``distance(x, q) <= cost_bound + epsilon`` is then *necessary* for
        ``sim(x, q)`` to hold, so the executor may screen candidates — via
        the metric index at radius ``cost_bound + epsilon`` when one is
        registered — without false dismissals.  Leave ``False`` when unsure;
        queries stay correct, just unscreened.
    name:
        Label used in plan explanations.
    """

    distance: Callable[[Any, Any], float]
    rules: TransformationRuleSet | Callable[[Any, Any], TransformationRuleSet] | None = None
    cost_bounds_distance: bool = False
    name: str = "distance"

    def rules_for(self, source: Any, target: Any) -> TransformationRuleSet:
        """The rule set governing a (source, target) similarity evaluation."""
        if self.rules is None:
            raise CatalogError(
                f"distance provider {self.name!r} has no transformation rules; "
                "SIM queries need a rule set or a rule factory")
        if isinstance(self.rules, TransformationRuleSet):
            return self.rules
        return self.rules(source, target)


class Row:
    """One tuple of a relation: a data object plus named attributes."""

    __slots__ = ("obj", "attributes")

    def __init__(self, obj: DataObject, attributes: Mapping[str, Any] | None = None) -> None:
        self.obj = obj
        self.attributes = dict(attributes) if attributes else {}

    def __getitem__(self, name: str) -> Any:
        return self.attributes[name]

    def get(self, name: str, default: Any = None) -> Any:
        """Attribute lookup with a default, mirroring ``dict.get``."""
        return self.attributes.get(name, default)

    def __repr__(self) -> str:
        return f"Row({self.obj!r}, {self.attributes!r})"


class Relation:
    """An ordered collection of rows, addressable by object id."""

    #: Weak reference to its catalog's journal (``None``: nothing logs its
    #: writes); dead once the catalog is gone, and then writes are refused.
    _journal_ref: "weakref.ref[Any] | None" = None

    def __init__(self, name: str, rows: Iterable[Row | DataObject] = ()) -> None:
        self.name = name
        #: Monotonic mutation counter; query caches key on it so that any
        #: change to the relation's contents invalidates cached plans/answers.
        self.version = 0
        self._rows: list[Row] = []
        self._by_id: dict[int, int] = {}
        self.extend(rows)

    # ------------------------------------------------------------------
    # modification
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce_row(row: Row | DataObject,
                    attributes: Mapping[str, Any] | None) -> Row:
        """The row to store.  A caller-supplied :class:`Row` combined with
        extra ``attributes`` yields a *new* merged row — the caller's object
        (and its attribute dict) is never mutated."""
        if isinstance(row, DataObject):
            return Row(row, attributes)
        if attributes:
            merged = dict(row.attributes)
            merged.update(attributes)
            return Row(row.obj, merged)
        return row

    def insert(self, row: Row | DataObject,
               attributes: Mapping[str, Any] | None = None) -> Row:
        """Insert a row (or wrap a bare object into one) and return it — a
        one-row :meth:`extend`.  Indexes and statistics are the catalog's
        (:meth:`Database.insert_rows`), not the relation's."""
        return self.extend([self._coerce_row(row, attributes)])[0]

    def extend(self, objects: Iterable[Row | DataObject]) -> list[Row]:
        """Insert many rows/objects, bumping :attr:`version` once; returns
        the stored rows.

        A single version bump means caches keyed on the relation's state
        token are invalidated once per bulk load, not once per row.  The
        batch is validated up front (duplicate ids, including duplicates
        *within* the batch, are rejected before anything is stored), so a
        failed ``extend`` leaves the relation unchanged.
        """
        rows = self._prepare_batch(objects)
        self._commit_batch(rows, self._insert_record(rows))
        return rows

    def _prepare_batch(self, objects: Iterable[Row | DataObject]) -> list[Row]:
        """Coerce and validate a batch without storing anything (duplicate
        ids — against the relation or within the batch — raise here)."""
        rows = [self._coerce_row(obj, None) for obj in objects]
        seen: set[int] = set()
        for row in rows:
            object_id = row.obj.object_id
            if object_id in self._by_id or object_id in seen:
                raise CatalogError(
                    f"object id {object_id} already present in relation {self.name!r}"
                )
            seen.add(object_id)
        return rows

    def _insert_record(self, rows: list[Row]) -> tuple[Any, Any] | None:
        """``(journal, record)`` of a batch's ``insert``, or ``None`` when
        nothing logs it; raises when the journal refuses the batch, before
        the caller changes anything."""
        if not rows or self._journal_ref is None:
            return None
        journal = self._journal_ref()
        if journal is None:
            raise StorageError(
                f"relation {self.name!r} outlived its durable database; "
                "a write to it could not be logged")
        return journal, journal.record("insert", self.name, rows)

    def _commit_batch(self, rows: list[Row], logged: tuple[Any, Any] | None) -> None:
        """Store an already-validated batch with one version bump, then hand
        its :meth:`_insert_record` to the journal: the one place rows are
        logged."""
        for row in rows:
            self._by_id[row.obj.object_id] = len(self._rows)
            self._rows.append(row)
        if rows:
            self.version += 1
        if logged is not None:
            journal, record = logged
            journal.append(record)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[DataObject]:
        """Iterating a relation yields its *objects* (the unary view)."""
        return (row.obj for row in self._rows)

    def rows(self) -> Iterator[Row]:
        """Iterate over full rows (object + attributes)."""
        return iter(self._rows)

    def objects(self) -> list[DataObject]:
        """All objects as a list."""
        return [row.obj for row in self._rows]

    def get(self, object_id: int) -> Row:
        """The row holding the object with the given id."""
        try:
            return self._rows[self._by_id[object_id]]
        except KeyError:
            raise CatalogError(
                f"no object with id {object_id} in relation {self.name!r}"
            ) from None

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._by_id

    def select(self, predicate: Callable[[Row], bool]) -> "Relation":
        """A new relation holding the rows satisfying ``predicate``."""
        result = Relation(f"{self.name}_selection")
        for row in self._rows:
            if predicate(row):
                result.insert(Row(row.obj, row.attributes))
        return result

    def __repr__(self) -> str:
        return f"Relation(name={self.name!r}, size={len(self)})"


class Database:
    """A catalog of named relations and the indexes built over them.

    Every write runs one order (:meth:`_write`).  A journal attached to the
    catalog makes it durable: ``journal.record(op, relation_name, subject)``
    returns a write's record or raises to refuse it, ``journal.append``
    logs it.  An in-memory catalog has none.
    """

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._relations: dict[str, Relation] = {}
        #: Indexes grouped by relation, so per-relation operations (most
        #: importantly :meth:`state_token`, which runs on every cache probe)
        #: never scan indexes registered on *other* relations.
        self._indexes: dict[str, dict[str, Any]] = {}
        self._distance_providers: dict[str, DistanceProvider] = {}
        #: Optimizer statistics per relation (see :mod:`repro.core.stats`).
        self._statistics: dict[str, Any] = {}
        #: Columnar full-record store per relation (see :meth:`columnar_store`),
        #: cached as (relation object, relation version, store, owned-here).
        self._columnar: dict[str, tuple[Relation, int, Any, bool]] = {}
        self._catalog_version = 0
        self._journal: Any = None
        #: Relations the open :meth:`catalog_write` touched (``None``: none open).
        self._stale: dict[str, None] | None = None

    # ------------------------------------------------------------------
    # the order of a catalog write
    # ------------------------------------------------------------------
    @contextmanager
    def catalog_write(self, relation_name: str) -> Iterator[None]:
        """One catalog write: the statistics of every relation written inside
        are refreshed once, when the outermost one ends (raised or not, so
        they follow whatever was applied).  Each write opens its own; a
        caller composing several (the advisor's install) opens an outer one."""
        outermost = self._stale is None
        if outermost:
            self._stale = {}
        self._stale[relation_name] = None
        try:
            yield
        finally:
            if outermost:
                stale, self._stale = self._stale, None
                for name in stale:
                    self.refresh_statistics(name)

    @contextmanager
    def _write(self, op: str, relation_name: str, subject: Any) -> Iterator[None]:
        """The order of a catalog write, around the ``with`` body that
        applies it: (1) refuse it before anything changes — the caller's
        checks ran, then the journal's (could a reopen rebuild it?); (2)
        apply; (3) bump the catalog version; (4) hand the record to the
        journal; (5) refresh the statistics as :meth:`catalog_write` ends.
        A batch runs the same steps in :meth:`insert_rows`."""
        journal = self._journal
        record = None if journal is None else journal.record(op, relation_name, subject)
        with self.catalog_write(relation_name):
            yield
            self._catalog_version += 1
            if journal is not None:
                journal.append(record)

    def _attach_journal(self, journal: Any, *, reopened_at: int | None = None) -> None:
        """Hand every later write to ``journal``.  A catalog reopened at a
        checkpoint's version ``reopened_at`` moves one past it (and past its
        replay), so its tokens sort after every one handed out before."""
        if reopened_at is not None:
            self._catalog_version = max(self._catalog_version, reopened_at) + 1
        self._journal = journal
        for relation in self._relations.values():
            relation._journal_ref = weakref.ref(journal)

    # ------------------------------------------------------------------
    # relations
    # ------------------------------------------------------------------
    def create_relation(self, name: str, objects: Iterable[Row | DataObject] = ()
                        ) -> Relation:
        """Create (and register) a relation; the name must be new."""
        if name in self._relations:
            raise CatalogError(f"relation {name!r} already exists")
        relation = Relation(name, objects)
        with self._write("create_relation", name, relation.rows()):
            self._relations[name] = relation
            if self._journal is not None:
                relation._journal_ref = weakref.ref(self._journal)
        return relation

    def relation(self, name: str) -> Relation:
        """Look a relation up by name."""
        try:
            return self._relations[name]
        except KeyError:
            known = ", ".join(sorted(self._relations)) or "<none>"
            raise CatalogError(f"unknown relation {name!r}; known: {known}") from None

    def insert_rows(self, relation_name: str, rows: Iterable[Row | DataObject]) -> list[Row]:
        """Insert a batch into a relation *and* every index registered on it;
        returns the stored rows.  The one way a batch enters the catalog:
        the session's handles, the server's writes and WAL replay all call
        it.  The batch is validated (duplicate ids, against the relation or
        within the batch, raise before anything changes) and its journal
        record taken (a durable catalog refuses here a batch it could not
        log or recover); every registered index is extended; the relation
        commits it with one version bump and hands the record to the
        journal; the statistics are refreshed.

        The relation commits *after* its indexes, so it never holds a row an
        index rejected: a k-index takes a batch whole or not at all, and
        with several indexes, ones extended before another's failure may
        hold the rejected objects — a loud extra, never a silent miss.  An
        empty batch changes nothing.  Writing below the catalog
        (``relation.insert``, ``index.insert``) leaves the indexes and the
        statistics to the caller.
        """
        relation = self.relation(relation_name)
        prepared = relation._prepare_batch(rows)
        if prepared:
            logged = relation._insert_record(prepared)
            with self.catalog_write(relation_name):
                objects = [row.obj for row in prepared]
                for index in self._indexes.get(relation_name, {}).values():
                    index.extend(objects)
                relation._commit_batch(prepared, logged)
        return prepared

    def drop_relation(self, name: str) -> None:
        """Remove a relation, every index built on it and its distance
        provider.  The dropped relation object no longer logs anything."""
        if name not in self._relations:
            raise CatalogError(f"unknown relation {name!r}")
        with self._write("drop_relation", name, None):
            self._relations.pop(name)._journal_ref = None
            for per_relation in (self._indexes, self._distance_providers,
                                 self._statistics, self._columnar):
                per_relation.pop(name, None)

    def relations(self) -> list[str]:
        """Names of all registered relations."""
        return list(self._relations)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    def register_index(self, relation_name: str, index: Any,
                       index_name: str = "default") -> None:
        """Attach a :class:`~repro.index.kindex.KIndex` or a
        :class:`~repro.index.metric.MetricIndex` to a relation under
        ``index_name``; anything else is refused with :class:`CatalogError`."""
        self._check_index(relation_name, index)
        with self._write("register_index", relation_name, (index_name, index)):
            self._indexes.setdefault(relation_name, {})[index_name] = index

    def _check_index(self, relation_name: str, index: Any) -> None:
        """Refuse an unknown relation, or an index of neither kind."""
        from ..index.kindex import KIndex
        from ..index.metric import MetricIndex

        if relation_name not in self._relations:
            raise CatalogError(f"unknown relation {relation_name!r}")
        if not isinstance(index, (KIndex, MetricIndex)):
            raise CatalogError(
                f"cannot register a {type(index).__name__} as an index: the "
                "catalog holds a KIndex or a MetricIndex")

    def index(self, relation_name: str, index_name: str = "default") -> Any:
        """Retrieve a registered index."""
        try:
            return self._indexes[relation_name][index_name]
        except KeyError:
            raise CatalogError(
                f"no index {index_name!r} registered for relation {relation_name!r}"
            ) from None

    def state_token(self, relation_name: str) -> tuple:
        """A hashable token that changes whenever query answers over the
        relation could change — catalog shape, relation contents, the size
        of any index registered on the relation — or whenever the plan for
        them could (the statistics epoch bumped by :meth:`analyze`).

        Query caches embed the token in their keys, so mutation invalidates
        cached entries without any explicit flushing.  The per-relation index
        map keeps the token O(indexes on *this* relation) — it runs on every
        cache probe of every query, so it must not scan the whole catalog.
        """
        relation = self._relations.get(relation_name)
        if relation is None:
            relation = self.relation(relation_name)  # raises the catalog's error
        index_map = self._indexes.get(relation_name)
        index_sizes = () if not index_map else tuple(sorted(
            (name, len(index)) for name, index in index_map.items()))
        stats = self._statistics.get(relation_name)
        return (self._catalog_version, relation.version, index_sizes,
                0 if stats is None else stats.epoch)

    def columnar_store(self, relation_name: str) -> Any:
        """The relation's shared :class:`~repro.storage.columnar.ColumnarRecordStore`.

        One store serves every consumer of the relation's full records — the
        executor's sequential-scan fallback, the statistics sampler, and (by
        adoption) any registered k-index whose contents match the relation:
        when a spatial index already holds columnar records for exactly the
        relation's objects, *its* store is returned, so scan and index read
        the same arrays rather than extracting the spectra twice.

        Relations are append-only, so a cached store is topped up
        incrementally when the relation grew; the cache entry is stamped
        with the relation's version (the same component
        :meth:`state_token` exposes), so answer caches and the store can
        never disagree about the relation's state.  Raises if the
        relation's objects are not series-like (no spectral record can be
        extracted) — provider relations never take this path.
        """
        from ..index.kindex import KIndex
        from ..storage.columnar import ColumnarRecordStore

        relation = self.relation(relation_name)
        cached = self._columnar.get(relation_name)
        if cached is not None and cached[0] is relation \
                and cached[1] == relation.version \
                and len(cached[2]) == len(relation):
            # The length recheck guards adopted (index-owned) stores: a
            # direct index.insert grows the store without touching the
            # relation's version, and a stale hit would leak phantom rows
            # into scan answers.
            return cached[2]
        store = None
        owned = False
        for index in self.indexes_on(relation_name).values():
            if isinstance(index, KIndex) \
                    and len(index.store) == len(relation) \
                    and all(stored is row.obj for stored, row
                            in zip(index.store.series_list(), relation.rows())):
                store = index.store
                break
        if store is None:
            owned = True
            # Relations are append-only, so a store this catalog built for
            # the same relation object is a prefix and can be topped up; an
            # adopted (index-owned) store must never be grown here — its
            # length is the index's length.
            if cached is not None and cached[0] is relation and cached[3] \
                    and len(cached[2]) <= len(relation):
                store = cached[2]
            else:
                store = ColumnarRecordStore()
            store.extend(relation.objects()[len(store):])
        self._columnar[relation_name] = (relation, relation.version, store, owned)
        return store

    def scan_backend(self, relation_name: str) -> dict[str, Any] | None:
        """Extra :class:`~repro.index.scan.SequentialScan` keywords for the
        relation's scans: ``None`` in memory, where a pass's pages are only
        counted; a durable catalog hands out a buffer pool over its mapped
        segments."""
        return None

    def checkpoint(self) -> None:
        """Persist the catalog: nothing to do in memory."""

    def close(self) -> None:
        """Release the catalog's resources: none in memory."""

    def drop_index(self, relation_name: str, index_name: str = "default") -> None:
        """Remove a registered index.

        The catalog-version bump invalidates cached plans and answers over
        the relation by construction, and the drop refreshes the relation's
        statistics, whose basis names the index set (see
        :func:`~repro.core.stats.statistics_basis`), before it returns.
        Raises :class:`CatalogError` when no such index is registered.
        """
        index_map = self._indexes.get(relation_name)
        if not index_map or index_name not in index_map:
            raise CatalogError(
                f"no index {index_name!r} registered for relation {relation_name!r}")
        with self._write("drop_index", relation_name, index_name):
            del index_map[index_name]
            if not index_map:
                del self._indexes[relation_name]

    def has_index(self, relation_name: str, index_name: str = "default") -> bool:
        """Whether an index is registered for the relation."""
        return index_name in self._indexes.get(relation_name, ())

    def indexes_on(self, relation_name: str) -> dict[str, Any]:
        """Name → index mapping of the indexes registered on one relation
        (a copy; O(indexes on *this* relation), like :meth:`state_token`)."""
        return dict(self._indexes.get(relation_name, ()))

    # ------------------------------------------------------------------
    # distance providers
    # ------------------------------------------------------------------
    def register_distance(self, relation_name: str,
                          provider: DistanceProvider | Callable[[Any, Any], float], *,
                          rules: TransformationRuleSet
                          | Callable[[Any, Any], TransformationRuleSet] | None = None,
                          cost_bounds_distance: bool = False,
                          name: str | None = None) -> DistanceProvider:
        """Declare how objects of a relation are compared.

        ``provider`` may be a ready-made :class:`DistanceProvider` or a bare
        distance callable (wrapped together with the optional ``rules``).
        The keyword arguments configure the wrapping only — combining them
        with a ready-made provider is rejected rather than silently ignored.
        Registration bumps the catalog version, so cached plans and answers
        over the relation are invalidated by construction.
        """
        if relation_name not in self._relations:
            raise CatalogError(f"unknown relation {relation_name!r}")
        if isinstance(provider, DistanceProvider) and \
                (rules is not None or cost_bounds_distance or name is not None):
            raise CatalogError(
                "pass the configuration either inside the DistanceProvider or as "
                "keyword arguments for a bare callable, not both")
        if not isinstance(provider, DistanceProvider):
            provider = DistanceProvider(distance=provider, rules=rules,
                                        cost_bounds_distance=cost_bounds_distance,
                                        name=name or getattr(provider, "__name__", "distance"))
        with self._write("register_distance", relation_name, provider):
            self._distance_providers[relation_name] = provider
        return provider

    def drop_distance(self, relation_name: str) -> None:
        """Remove a relation's distance provider (queries fall back to the
        feature paths).  Bumps the catalog version, so cached plans and
        answers are invalidated by construction; raises
        :class:`CatalogError` when no provider is registered."""
        if relation_name not in self._distance_providers:
            raise CatalogError(
                f"no distance provider registered for relation {relation_name!r}")
        with self._write("drop_distance", relation_name, None):
            del self._distance_providers[relation_name]

    def distance_provider(self, relation_name: str) -> DistanceProvider:
        """The distance provider registered for a relation."""
        try:
            return self._distance_providers[relation_name]
        except KeyError:
            known = ", ".join(sorted(self._distance_providers)) or "<none>"
            raise CatalogError(
                f"no distance provider registered for relation {relation_name!r}; "
                f"relations with providers: {known}") from None

    def has_distance_provider(self, relation_name: str) -> bool:
        """Whether the relation has a registered distance provider."""
        return relation_name in self._distance_providers

    # ------------------------------------------------------------------
    # optimizer statistics
    # ------------------------------------------------------------------
    def analyze(self, relation_name: str, *, sample_size: int | None = None) -> Any:
        """Collect (or re-collect) optimizer statistics for a relation.

        Returns the fresh :class:`~repro.core.stats.RelationStatistics`.
        Each explicit ``analyze`` bumps the relation's statistics *epoch*,
        which folds into :meth:`state_token` — cached plans and answers over
        the relation are invalidated by construction, so the next query is
        re-planned against the new statistics.  Feedback corrections learned
        from executed queries are reset: an explicit ``analyze`` is a fresh
        measurement.
        """
        from .stats import collect_statistics

        kwargs = {} if sample_size is None else {"sample_size": sample_size}
        stats = collect_statistics(self, relation_name, **kwargs)
        previous = self._statistics.get(relation_name)
        stats.epoch = (previous.epoch + 1) if previous is not None else 1
        self._statistics[relation_name] = stats
        return stats

    def statistics_for(self, relation_name: str, *, collect: bool = True) -> Any:
        """The relation's statistics, collecting them lazily on first use.

        Lazy collection keeps epoch 0 — indistinguishable from "never
        analyzed" in :meth:`state_token`, so it does not invalidate caches.
        Statistics whose basis went stale (the relation grew past a size
        band, the index set changed, the spatial index sealed) are replaced
        by a fresh collection, again without an epoch bump and with the
        learned corrections carried: the state token already changed through
        the relation/index components, so the caches were invalidated anyway.
        Every catalog write does that itself (:meth:`refresh_statistics`,
        step 5 of the write order), so a plan finds a stale basis only after
        a write below the catalog
        (``relation.insert``, ``index.insert`` by hand).
        With ``collect=False`` returns what is stored — ``None`` if nothing
        is — instead of collecting.
        """
        from .stats import collect_statistics, statistics_basis

        if relation_name not in self._relations:
            return None
        stats = self._statistics.get(relation_name)
        if not collect or (stats is not None and
                           stats.basis == statistics_basis(self, relation_name)):
            return stats
        fresh = collect_statistics(self, relation_name)
        if stats is not None:
            # A refresh: keep the epoch and carry the learned corrections.
            fresh.epoch = stats.epoch
            fresh.candidate_correction = stats.candidate_correction
            fresh.answer_correction = stats.answer_correction
            fresh.observations = stats.observations
        self._statistics[relation_name] = fresh
        return fresh

    def refresh_statistics(self, relation_name: str) -> None:
        """Step 5 of every catalog write, as the outermost
        :meth:`catalog_write` ends: statistics that exist and whose basis
        the write moved are collected again, here, by the writer — never by
        the read that would otherwise find them stale (reads run concurrently;
        collecting is a write to shared catalog state).  The write that
        crosses a 1.25× cardinality band or seals the k-index pays the
        collection once; every other write pays one basis comparison.
        Epoch, corrections and observations are carried, so the state token
        moves only by what the write itself moves.  A relation nobody has
        planned against or analyzed has none, and gets none: loading is not
        charged for a first collection."""
        if relation_name in self._statistics:
            self.statistics_for(relation_name)

    def stats_epoch(self, relation_name: str) -> int:
        """The relation's statistics epoch (0 until the first ``analyze``)."""
        stats = self._statistics.get(relation_name)
        return 0 if stats is None else stats.epoch

    def indexes(self) -> list[tuple[str, str]]:
        """All (relation, index name) pairs."""
        return [(relation_name, index_name)
                for relation_name, index_map in self._indexes.items()
                for index_name in index_map]

    def __repr__(self) -> str:
        num_indexes = sum(len(index_map) for index_map in self._indexes.values())
        return (f"Database(name={self.name!r}, relations={len(self._relations)}, "
                f"indexes={num_indexes})")
