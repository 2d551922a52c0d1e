"""The durable catalog engine: WAL-logged mutations, checkpoints, recovery.

:class:`DurableDatabase` is a :class:`~repro.core.database.Database` whose
catalog lives in a directory::

    <path>/
      MANIFEST.json                    # atomically-swapped recovery root
      wal-<epoch>.log                  # the current epoch's write-ahead log
      segments/<relation>/seg-*        # partition-aligned columnar segments
      indexes/<relation>/<name>.json   # serialized index structures

Every mutation appends a WAL record *before* returning (fsync policy per
``wal_sync``); :meth:`checkpoint` persists segments and serialized
indexes, rolls the log to a new epoch, and swaps the manifest atomically
— a crash at any instant recovers to the last acknowledged state by
loading the manifest's snapshot and replaying the named log's intact
tail.  Reopen deserializes indexes instead of rebuilding them and
re-populates each columnar relation's record store from the segments'
saved spectra (no FFT), so recovery cost is I/O-shaped, not build-shaped.

Real reads: each columnar relation gets a :class:`~repro.storage.durable
.mmapstore.SegmentPageStore` over its memory-mapped segments plus a
bounded :class:`~repro.storage.buffer.BufferPool`; the executor picks
these up through :meth:`scan_backend`, so scan I/O — and the buffer-pool
hit rate the cost model consumes — is measured against the mappings.
"""

from __future__ import annotations

import json
import os
import weakref
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ...core.database import Database, DistanceProvider, Relation, Row
from ...core.errors import StorageError
from ...core.objects import DataObject, _DEFAULT_ALLOCATOR
from ...core.rules import TransformationRuleSet
from ..buffer import BufferPool
from ..columnar import ColumnarRecordStore
from ..partition import DEFAULT_PARTITION_ROWS, partition_spans
from .manifest import load_manifest, write_manifest
from .mmapstore import SegmentPageStore
from .segments import (ColumnSegment, decode_object, encode_row, load_segment,
                       relation_kind, write_segment)
from .serde import (build_index_from_spec, deserialize_index, index_spec,
                    serialize_index)
from .wal import SYNC_MODES, WriteAheadLog, wal_filename

__all__ = ["DurableDatabase", "DurableRelation", "register_provider_factory"]


# ----------------------------------------------------------------------
# distance-provider factories (reconstructible by name)
# ----------------------------------------------------------------------
def _edit_distance_factory() -> DistanceProvider:
    from ...strings.provider import edit_distance_provider

    return edit_distance_provider()


def _advisor_factory() -> DistanceProvider:
    from ...core.advisor import ADVISOR_PROVIDER_NAME, series_exact_distance

    return DistanceProvider(distance=series_exact_distance(),
                            name=ADVISOR_PROVIDER_NAME)


#: name -> zero-argument factory.  A durable catalog can only hold
#: providers it can reconstruct on reopen, so registration is gated on
#: this registry.
PROVIDER_FACTORIES: dict[str, Callable[[], DistanceProvider]] = {
    "weighted_edit_distance": _edit_distance_factory,
    "advisor-exact-series": _advisor_factory,
}


def register_provider_factory(name: str,
                              factory: Callable[[], DistanceProvider]) -> None:
    """Teach durable catalogs to reconstruct a provider by name."""
    PROVIDER_FACTORIES[str(name)] = factory


class DurableRelation(Relation):
    """A relation whose committed batches append to the engine's WAL."""

    #: A weak reference to the owning engine, set right after construction;
    #: ``None`` while the constructor's own ``extend`` runs (nothing to log
    #: yet — the ``create_relation`` WAL record carries the initial rows).
    #: Weak because the engine holds its relations: a strong back-reference
    #: would make every durable catalog a cycle, and a dropped session's
    #: arrays would live on until the cycle collector happened to run.
    _engine_ref: "weakref.ref[DurableDatabase] | None" = None

    def _logging_engine(self) -> "DurableDatabase | None":
        """The engine a write must be logged to (``None``: nothing to log).
        Called before the write, so a write that could not be logged does
        not happen either."""
        if self._engine_ref is None:
            return None
        engine = self._engine_ref()
        if engine is None:
            raise StorageError(
                f"relation {self.name!r} outlived its durable database; "
                "a write to it could not be logged")
        return None if engine._replaying else engine

    def insert(self, row: Row | DataObject,
               attributes: Mapping[str, Any] | None = None) -> Row:
        engine = self._logging_engine()
        stored = super().insert(row, attributes)
        if engine is not None:
            engine._log({"op": "insert", "relation": self.name,
                         "rows": [encode_row(stored)]})
        return stored

    def _commit_batch(self, rows: list[Row]) -> None:
        engine = self._logging_engine()
        super()._commit_batch(rows)
        if rows and engine is not None:
            engine._log({"op": "insert", "relation": self.name,
                         "rows": [encode_row(row) for row in rows]})


class DurableDatabase(Database):
    """A catalog persisted under a directory, with crash-safe recovery.

    Parameters
    ----------
    path:
        Directory holding the database (created if missing; reopened and
        recovered if it holds a manifest).
    wal_sync / wal_batch_size:
        The write-ahead log's fsync policy (see
        :class:`~repro.storage.durable.wal.WriteAheadLog`).
    buffer_pages:
        Capacity of the per-relation scan buffer pool, in pages.  Set it
        below a relation's data-page count to run the larger-than-RAM
        regime: forced evictions, measured device reads.
    partition_rows:
        Segment span size; matches the partition-parallel layout.

    An unknown ``wal_sync`` or a ``buffer_pages`` / ``partition_rows`` below
    one is a :class:`StorageError` raised before the directory is touched.
    """

    def __init__(self, path: str, *, wal_sync: str = "batch",
                 wal_batch_size: int = 32, wal_batch_interval_ms: float = 50.0,
                 buffer_pages: int = 256,
                 partition_rows: int = DEFAULT_PARTITION_ROWS,
                 name: str | None = None) -> None:
        # Options are checked before the directory is created: a mistyped
        # one must not leave a fresh manifest behind, nor quietly become a
        # different pool or span size.
        if wal_sync not in SYNC_MODES:
            raise StorageError(
                f"unknown wal_sync {wal_sync!r}; choose from {SYNC_MODES}")
        for option, value in (("buffer_pages", buffer_pages),
                              ("partition_rows", partition_rows)):
            if value < 1:
                raise StorageError(f"{option} must be at least 1, got {value!r}")
        resolved = os.path.abspath(path)
        super().__init__(name or (os.path.basename(resolved) or "db"))
        self.path = resolved
        self.wal_sync = wal_sync
        self.wal_batch_size = int(wal_batch_size)
        self.wal_batch_interval_ms = float(wal_batch_interval_ms)
        self.buffer_pages = int(buffer_pages)
        self.partition_rows = int(partition_rows)
        self._replaying = False
        self._wal: WriteAheadLog | None = None
        self._epoch = 0
        #: relation -> list of mmapped segment coefficient arrays.
        self._segment_arrays: dict[str, list[np.ndarray]] = {}
        #: relation -> the live scan backend (page store + buffer pool).
        self._backends: dict[str, dict[str, Any]] = {}
        #: Observability for the reopen-skips-rebuild guarantee.
        self.recovered = False
        self.replayed_wal_records = 0
        self.deserialized_indexes = 0
        self.cold_index_builds = 0
        os.makedirs(self.path, exist_ok=True)
        manifest = load_manifest(self.path)
        if manifest is None:
            write_manifest(self.path, {
                "epoch": 0, "catalog_version": 0, "watermark": -1,
                "wal": wal_filename(0), "relations": {}})
        else:
            self._recover(manifest)
        self._wal = WriteAheadLog(
            os.path.join(self.path, wal_filename(self._epoch)),
            sync=self.wal_sync, batch_size=self.wal_batch_size,
            batch_interval_ms=self.wal_batch_interval_ms)

    # ------------------------------------------------------------------
    # logging
    # ------------------------------------------------------------------
    def _log(self, record: dict[str, Any]) -> None:
        if self._wal is not None and not self._replaying:
            self._wal.append(record)

    # ------------------------------------------------------------------
    # logged catalog mutations
    # ------------------------------------------------------------------
    def create_relation(self, name: str,
                        objects: Iterable[Row | DataObject] = ()) -> Relation:
        relation = super().create_relation(name, objects)
        # Same storage, durable behaviour: committed batches hit the WAL.
        relation.__class__ = DurableRelation
        relation._engine_ref = weakref.ref(self)
        if self._wal is not None and not self._replaying:
            # Guarded here, not in _log: encoding every row is wasted work
            # on the recovery path, where the log is silenced anyway.
            self._log({"op": "create_relation", "name": name,
                       "rows": [encode_row(row) for row in relation.rows()]})
        return relation

    def drop_relation(self, name: str) -> None:
        super().drop_relation(name)
        self._segment_arrays.pop(name, None)
        self._backends.pop(name, None)
        self._log({"op": "drop_relation", "name": name})

    def register_index(self, relation_name: str, index: Any,
                       index_name: str = "default") -> None:
        if not self._replaying:
            spec = index_spec(index)  # validates serializability up front
            if spec["kind"] == "metric" and not self.has_distance_provider(relation_name):
                raise StorageError(
                    f"a durable metric index on {relation_name!r} needs the "
                    "relation's distance provider registered first (recovery "
                    "rebinds the index to it)")
        else:
            spec = None
        super().register_index(relation_name, index, index_name)
        if spec is not None:
            self._log({"op": "register_index", "relation": relation_name,
                       "index_name": index_name, "spec": spec})

    def drop_index(self, relation_name: str, index_name: str = "default") -> None:
        super().drop_index(relation_name, index_name)
        self._log({"op": "drop_index", "relation": relation_name,
                   "index_name": index_name})

    def register_distance(self, relation_name: str,
                          provider: DistanceProvider | Callable[[Any, Any], float], *,
                          rules: TransformationRuleSet
                          | Callable[[Any, Any], TransformationRuleSet] | None = None,
                          cost_bounds_distance: bool = False,
                          name: str | None = None) -> DistanceProvider:
        registered = super().register_distance(
            relation_name, provider, rules=rules,
            cost_bounds_distance=cost_bounds_distance, name=name)
        if not self._replaying and registered.name not in PROVIDER_FACTORIES:
            # Roll the registration back before failing: a durable catalog
            # must never hold state it cannot recover.
            super().drop_distance(relation_name)
            raise StorageError(
                f"distance provider {registered.name!r} is not reconstructible "
                "on reopen; register a factory under that name with "
                "repro.storage.durable.register_provider_factory first")
        self._log({"op": "register_distance", "relation": relation_name,
                   "factory": registered.name})
        return registered

    def drop_distance(self, relation_name: str) -> None:
        super().drop_distance(relation_name)
        self._log({"op": "drop_distance", "relation": relation_name})

    # ------------------------------------------------------------------
    # checkpoint / close
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Persist a snapshot and roll the WAL to a fresh epoch.

        Protocol (crash-safe at every step boundary): write segments and
        serialized indexes for the new epoch, create the new epoch's empty
        log, atomically swap the manifest to point at them, and only then
        retire the old log and sweep files the manifest no longer names.
        """
        if self._wal is not None:
            self._wal.flush()
        new_epoch = self._epoch + 1
        relations_manifest: dict[str, Any] = {}
        for name, relation in self._relations.items():
            rows = list(relation.rows())
            kind = relation_kind(relation)
            store = self.columnar_store(name) if kind == "columnar" else None
            directory = self._segment_directory(name)
            segments = []
            for start, stop in partition_spans(len(rows), self.partition_rows):
                segment = ColumnSegment(name, start, stop - start, kind)
                write_segment(directory, segment, rows[start:stop], store)
                segments.append({"start": segment.start,
                                 "count": segment.count})
            index_files = {}
            index_directory = os.path.join(self.path, "indexes", name)
            for index_name, index in self.indexes_on(name).items():
                os.makedirs(index_directory, exist_ok=True)
                file_name = f"{index_name}.json"
                target = os.path.join(index_directory, file_name)
                with open(target + ".tmp", "w", encoding="utf-8") as handle:
                    json.dump(serialize_index(index), handle,
                              separators=(",", ":"))
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(target + ".tmp", target)
                index_files[index_name] = file_name
            provider = self._distance_providers.get(name)
            relations_manifest[name] = {
                "kind": kind, "count": len(rows),
                "version": relation.version, "segments": segments,
                "indexes": index_files,
                "provider": provider.name if provider is not None else None}
        new_wal_path = os.path.join(self.path, wal_filename(new_epoch))
        with open(new_wal_path, "ab") as handle:
            os.fsync(handle.fileno())
        write_manifest(self.path, {
            "epoch": new_epoch, "catalog_version": self._catalog_version,
            "watermark": self._watermark(), "wal": wal_filename(new_epoch),
            "relations": relations_manifest})
        old_wal = self._wal
        self._epoch = new_epoch
        self._wal = WriteAheadLog(new_wal_path, sync=self.wal_sync,
                                  batch_size=self.wal_batch_size,
                                  batch_interval_ms=self.wal_batch_interval_ms)
        if old_wal is not None:
            old_wal.close()
            self._remove_quietly(old_wal.path)
        self._sweep(relations_manifest)
        self._load_backends(relations_manifest)

    def close(self) -> None:
        """Flush and close the WAL (the manifest on disk stays whatever the
        last checkpoint installed; the log tail covers the rest)."""
        if self._wal is not None:
            self._wal.close()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _recover(self, manifest: dict[str, Any]) -> None:
        self._replaying = True
        try:
            self._epoch = int(manifest["epoch"])
            for name, entry in manifest["relations"].items():
                self._recover_relation(name, entry)
            records = WriteAheadLog.replay(
                os.path.join(self.path, manifest["wal"]))
            for record in records:
                self._apply(record)
            self.replayed_wal_records = len(records)
        finally:
            self._replaying = False
        # The reopened catalog's state token must sort after every token
        # the previous process handed out at this catalog version.
        self._catalog_version = max(self._catalog_version,
                                    int(manifest["catalog_version"])) + 1
        _DEFAULT_ALLOCATOR.advance_past(max(int(manifest["watermark"]),
                                            self._watermark()))
        self.recovered = True
        self._load_backends(manifest["relations"])

    def _recover_relation(self, name: str, entry: dict[str, Any]) -> None:
        directory = self._segment_directory(name)
        loaded = [load_segment(directory,
                               ColumnSegment(name, segment["start"],
                                             segment["count"], entry["kind"]))
                  for segment in entry["segments"]]
        rows = [row for segment in loaded for row in segment.rows]
        if len(rows) != int(entry["count"]):
            raise StorageError(
                f"relation {name!r} recovered {len(rows)} rows, manifest "
                f"says {entry['count']}")
        relation = self.create_relation(name, rows)
        relation.version = max(relation.version, int(entry.get("version", 0)))
        store: ColumnarRecordStore | None = None
        if entry["kind"] == "columnar":
            # Rebuild the shared record store from the saved spectra — the
            # append path with explicit coefficients never runs an FFT.
            store = ColumnarRecordStore()
            for segment in loaded:
                store.bulk_load([row.obj for row in segment.rows],
                                segment.coefficients, segment.lengths,
                                segment.means, segment.stds)
            # Prime the catalog's store cache: scans, samplers and adopted
            # k-indexes all read these arrays (and these series objects).
            self._columnar[name] = (relation, relation.version, store, True)
        elif not rows:
            # A relation checkpointed empty is of kind "objects", yet may
            # carry a k-index, whose decoder adopts a store: an empty one.
            store = ColumnarRecordStore()
        if entry.get("provider"):
            factory = PROVIDER_FACTORIES.get(entry["provider"])
            if factory is None:
                raise StorageError(
                    f"manifest names distance provider {entry['provider']!r} "
                    "but no factory is registered for it")
            self.register_distance(name, factory())
        for index_name, file_name in entry["indexes"].items():
            path = os.path.join(self.path, "indexes", name, file_name)
            distance = (self._distance_providers[name].distance
                        if name in self._distance_providers else None)
            # The page is outside input: whatever is wrong with it — cut
            # short, not JSON, a field missing or of the wrong type, a
            # structure the decoder's checks refuse — is one typed error
            # naming the file, raised before the index is registered.
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                index = deserialize_index(payload, store=store,
                                          objects=relation.objects(),
                                          distance=distance)
            except (OSError, ValueError, LookupError, TypeError, AttributeError,
                    StorageError) as error:
                raise StorageError(
                    f"index page {path!r} is unreadable or inconsistent: "
                    f"{error}") from error
            self.register_index(name, index, index_name)
            self.deserialized_indexes += 1

    def _apply(self, record: dict[str, Any]) -> None:
        """Replay one WAL record (mirrors the live mutation paths)."""
        op = record.get("op")
        if op == "create_relation":
            self.create_relation(record["name"],
                                 [self._decode_row(encoded)
                                  for encoded in record["rows"]])
        elif op == "drop_relation":
            self.drop_relation(record["name"])
        elif op == "insert":
            relation = self.relation(record["relation"])
            rows = [self._decode_row(encoded) for encoded in record["rows"]]
            prepared = relation._prepare_batch(rows)
            for index in self.indexes_on(record["relation"]).values():
                index.extend([row.obj for row in prepared])
            relation._commit_batch(prepared)
        elif op == "register_index":
            relation = self.relation(record["relation"])
            distance = (self._distance_providers[record["relation"]].distance
                        if record["relation"] in self._distance_providers
                        else None)
            index = build_index_from_spec(record["spec"], relation.objects(),
                                          distance)
            self.cold_index_builds += 1
            self.register_index(record["relation"], index,
                                record["index_name"])
        elif op == "drop_index":
            self.drop_index(record["relation"], record["index_name"])
        elif op == "register_distance":
            factory = PROVIDER_FACTORIES.get(record["factory"])
            if factory is None:
                raise StorageError(
                    f"WAL names distance provider {record['factory']!r} but "
                    "no factory is registered for it")
            self.register_distance(record["relation"], factory())
        elif op == "drop_distance":
            self.drop_distance(record["relation"])
        else:
            raise StorageError(f"unknown WAL operation {op!r}")

    @staticmethod
    def _decode_row(encoded: dict[str, Any]) -> Row:
        return Row(decode_object(encoded), encoded.get("attributes"))

    # ------------------------------------------------------------------
    # measured scan I/O
    # ------------------------------------------------------------------
    def scan_backend(self, relation_name: str) -> dict[str, Any] | None:
        """Scan-construction keywords for a relation with on-disk segments.

        Each call hands out a *fresh* page store over the shared mappings
        plus a fresh bounded buffer pool, so a scan's counters are its own
        (the executor builds a scan per relation version); the pool is
        also remembered so EXPLAIN consumers and benchmarks can read the
        cumulative hit rate via :meth:`buffer_pool`.
        """
        arrays = self._segment_arrays.get(relation_name)
        if not arrays:
            return None
        record_bytes = self.columnar_store(relation_name).record_bytes()
        page_store = SegmentPageStore(arrays, record_bytes)
        pool = BufferPool(page_store, capacity=self.buffer_pages)
        self._backends[relation_name] = {"page_store": page_store,
                                         "buffer": pool}
        return {"page_store": page_store, "buffer": pool,
                "records_per_page": page_store.records_per_page}

    def buffer_pool(self, relation_name: str) -> BufferPool | None:
        """The most recently issued scan buffer pool for a relation."""
        backend = self._backends.get(relation_name)
        return backend["buffer"] if backend else None

    def page_io(self, relation_name: str) -> Any:
        """The most recent backend's device-side I/O statistics."""
        backend = self._backends.get(relation_name)
        return backend["page_store"].stats if backend else None

    def _load_backends(self, relations_manifest: dict[str, Any]) -> None:
        self._segment_arrays.clear()
        self._backends.clear()
        for name, entry in relations_manifest.items():
            if entry["kind"] != "columnar":
                continue
            directory = self._segment_directory(name)
            arrays = []
            for segment in entry["segments"]:
                stem = ColumnSegment(name, segment["start"],
                                     segment["count"], "columnar").stem
                arrays.append(np.load(os.path.join(directory,
                                                   f"{stem}-coeffs.npy"),
                                      mmap_mode="r"))
            if arrays:
                self._segment_arrays[name] = arrays

    # ------------------------------------------------------------------
    # housekeeping
    # ------------------------------------------------------------------
    def _segment_directory(self, relation_name: str) -> str:
        return os.path.join(self.path, "segments", relation_name)

    def _watermark(self) -> int:
        """The highest object id the catalog currently holds."""
        highest = -1
        for relation in self._relations.values():
            for row in relation.rows():
                highest = max(highest, int(row.obj.object_id))
        return highest

    def _sweep(self, relations_manifest: dict[str, Any]) -> None:
        """Best-effort removal of files the new manifest no longer names
        (stale tail segments, dropped relations/indexes, old WAL epochs)."""
        for area, live in (("segments", self._live_segment_files(relations_manifest)),
                           ("indexes", self._live_index_files(relations_manifest))):
            root = os.path.join(self.path, area)
            if not os.path.isdir(root):
                continue
            for relation_dir in os.listdir(root):
                directory = os.path.join(root, relation_dir)
                if not os.path.isdir(directory):
                    continue
                keep = live.get(relation_dir, set())
                for file_name in os.listdir(directory):
                    if file_name not in keep:
                        self._remove_quietly(os.path.join(directory, file_name))
        current = wal_filename(self._epoch)
        for file_name in os.listdir(self.path):
            if file_name.startswith("wal-") and file_name.endswith(".log") \
                    and file_name != current:
                self._remove_quietly(os.path.join(self.path, file_name))

    @staticmethod
    def _remove_quietly(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    @staticmethod
    def _live_segment_files(relations_manifest: dict[str, Any]
                            ) -> dict[str, set[str]]:
        live: dict[str, set[str]] = {}
        for name, entry in relations_manifest.items():
            files: set[str] = set()
            for segment in entry["segments"]:
                files.update(ColumnSegment(name, segment["start"],
                                           segment["count"],
                                           entry["kind"]).files())
            live[name] = files
        return live

    @staticmethod
    def _live_index_files(relations_manifest: dict[str, Any]
                          ) -> dict[str, set[str]]:
        return {name: set(entry["indexes"].values())
                for name, entry in relations_manifest.items()}

    def __repr__(self) -> str:
        return (f"DurableDatabase(path={self.path!r}, epoch={self._epoch}, "
                f"relations={len(self._relations)}, "
                f"recovered={self.recovered})")
