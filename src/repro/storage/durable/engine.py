"""The durable catalog engine: WAL-logged mutations, checkpoints, recovery.

:class:`DurableDatabase` is a :class:`~repro.core.database.Database` whose
catalog lives in a directory::

    <path>/
      MANIFEST.json                    # atomically-swapped recovery root (JSON)
      wal-<epoch>.log                  # the current epoch's write-ahead log
      segments/<relation>/seg-*        # partition-aligned segments
      indexes/<relation>/<name>.bin    # serialized index structures

The log and every ``.bin`` file are :func:`repro.storage.codec.frame` frames.

Every write runs :class:`~repro.core.database.Database`'s one order; this
module supplies the journal it logs to: the write-ahead log (fsync policy
per ``wal_sync``) plus the rules for what a reopen can reconstruct, checked
before a write changes anything.  :meth:`checkpoint` persists segments and
serialized indexes, rolls the log to a new epoch, and swaps the manifest
atomically — a crash at any instant recovers to the last acknowledged state
by loading the manifest's snapshot and replaying the named log's intact
tail: the same catalog writes, before the journal is attached.  Reopen
deserializes indexes instead of rebuilding them and re-populates each
columnar relation's record store from the segments' saved spectra (no
FFT), so recovery cost is I/O-shaped, not build-shaped.

Real reads: each columnar relation's scan gets a bounded
:class:`~repro.storage.buffer.BufferPool` over a :class:`~repro.storage
.durable.mmapstore.SegmentPageStore` on its memory-mapped segments, handed
out by :meth:`scan_backend`, so scan I/O — and the buffer-pool hit rate
the cost model consumes — is measured against the mappings.
"""

from __future__ import annotations

import os
import weakref
from typing import Any, Callable

import numpy as np

from ...core.database import Database, DistanceProvider, Relation
from ...core.errors import StorageError
from ...core.objects import _DEFAULT_ALLOCATOR
from .. import codec
from ..buffer import BufferPool
from ..columnar import ColumnarRecordStore
from ..partition import DEFAULT_PARTITION_ROWS, partition_spans
from .manifest import MANIFEST_NAME, load_manifest, replace_atomically, write_manifest
from .mmapstore import SegmentPageStore
from .segments import (ColumnSegment, decode_row, encode_row, load_segments,
                       relation_kind, write_segment)
from .serde import build_index_from_spec, index_spec, load_index_page, serialize_index
from .wal import SYNC_MODES, WriteAheadLog, wal_filename

__all__ = ["DurableDatabase", "register_provider_factory"]


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


def _rebuilt_provider(name: str, named_by: str) -> DistanceProvider:
    """The provider the factory registered under ``name`` builds."""
    factory = PROVIDER_FACTORIES.get(name)
    if factory is None:
        raise StorageError(f"{named_by} names distance provider {name!r} but "
                           "no factory is registered for it")
    return factory()


def _segments(name: str, entry: dict[str, Any]) -> list[ColumnSegment]:
    """The segments a relation's manifest entry names: of half spectra
    unless the entry was written at format version 5, which has no
    ``"spectrum"`` key."""
    half = entry.get("spectrum") == "half"
    return [ColumnSegment(name, segment["start"], segment["count"], entry["kind"], half)
            for segment in entry["segments"]]


class _WalJournal:
    """A durable catalog's journal: what a reopen can reconstruct, and the
    log.  Only the catalog holds it strongly (its relations and it hold weak
    references), so a dropped durable session is no reference cycle."""

    def __init__(self, catalog: DurableDatabase) -> None:
        self._catalog = weakref.ref(catalog)

    def record(self, op: str, relation_name: str, subject: Any) -> bytes:
        """The framed WAL record of one catalog write, or a
        :class:`StorageError` when a reopen could not reconstruct what the
        write would leave, the record is not encodable or the log is closed:
        every refusal comes before the write applies."""
        if op.endswith("_relation"):
            record: dict[str, Any] = {"op": op, "name": relation_name}
        else:
            record = {"op": op, "relation": relation_name}
        if op in ("create_relation", "insert"):
            record["rows"] = [encode_row(row) for row in subject]
        elif op == "register_index":
            index_name, index = subject
            spec = index_spec(index)
            if spec["kind"] == "metric" \
                    and not self._catalog().has_distance_provider(relation_name):
                raise StorageError(
                    f"a durable metric index on {relation_name!r} needs the "
                    "relation's distance provider registered first (recovery "
                    "rebinds the index to it)")
            record.update(index_name=index_name, spec=spec)
        elif op == "drop_index":
            record["index_name"] = subject
        elif op == "register_distance":
            if subject.name not in PROVIDER_FACTORIES:
                raise StorageError(
                    f"distance provider {subject.name!r} is not reconstructible "
                    "on reopen; register a factory under that name with "
                    "repro.storage.durable.register_provider_factory first")
            record["factory"] = subject.name
        return self._catalog()._wal.frame(record)

    def append(self, record: bytes) -> None:
        """Log a write the catalog has applied."""
        self._catalog()._wal.append_framed(record)


class DurableDatabase(Database):
    """A catalog persisted under a directory, with crash-safe recovery.

    Parameters
    ----------
    path:
        Directory holding the database (created if missing; reopened and
        recovered if it holds a manifest).
    wal_sync / wal_batch_interval_ms:
        The write-ahead log's fsync policy (see
        :class:`~repro.storage.durable.wal.WriteAheadLog`, whose default
        batch size it keeps).
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
                 wal_batch_interval_ms: float = 50.0,
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
        self.wal_batch_interval_ms = float(wal_batch_interval_ms)
        self.buffer_pages = int(buffer_pages)
        self.partition_rows = int(partition_rows)
        self._epoch = 0
        #: relation name -> (the relation mapped, its mmapped segment
        #: coefficient arrays); a dropped or recreated relation has none.
        self._segment_arrays: dict[str, tuple[Relation, list[np.ndarray]]] = {}
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
            sync=self.wal_sync, batch_interval_ms=self.wal_batch_interval_ms)
        self._attach_journal(_WalJournal(self), reopened_at=(
            None if manifest is None else manifest["catalog_version"]))

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
                file_name = f"{index_name}.bin"
                replace_atomically(os.path.join(index_directory, file_name),
                                   codec.frame(serialize_index(index)))
                index_files[index_name] = file_name
            provider = self._distance_providers.get(name)
            relations_manifest[name] = {
                "kind": kind, "count": len(rows), "spectrum": "half",
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
                                  batch_interval_ms=self.wal_batch_interval_ms)
        old_wal.close()
        self._remove_quietly(old_wal.path)
        self._sweep(relations_manifest)
        self._map_segments(relations_manifest)

    def close(self) -> None:
        """Flush and close the WAL (the manifest on disk stays whatever the
        last checkpoint installed; the log tail covers the rest)."""
        self._wal.close()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _recover(self, manifest: dict[str, Any]) -> None:
        """Load the manifest's snapshot and replay the log's intact tail —
        the ordinary catalog writes, before the journal is attached, so
        nothing is refused or logged again."""
        self._epoch = manifest["epoch"]
        for name, entry in manifest["relations"].items():
            try:
                self._recover_relation(name, entry)
            except StorageError as error:
                # The manifest named these files and their shape: say so.
                raise StorageError(
                    f"relation {name!r} of {os.path.join(self.path, MANIFEST_NAME)!r} "
                    f"cannot be recovered: {error}") from error
        self._map_segments(manifest["relations"])
        records = WriteAheadLog.replay(os.path.join(self.path, manifest["wal"]))
        for record in records:
            self._apply(record)
        self.replayed_wal_records = len(records)
        _DEFAULT_ALLOCATOR.advance_past(max(manifest["watermark"], self._watermark()))
        self.recovered = True

    def _recover_relation(self, name: str, entry: dict[str, Any]) -> None:
        directory = self._segment_directory(name)
        # Segment files are outside input, like index pages: whatever is
        # wrong with them is one typed error naming the files (load_segments
        # names the very file where it can tell), raised before anything is
        # registered.
        try:
            rows, store = load_segments(directory, _segments(name, entry))
        except (ValueError, LookupError, TypeError, AttributeError) as error:
            raise StorageError(f"segment files of {name!r} in {directory!r} are "
                               f"inconsistent: {error}") from error
        if len(rows) != entry["count"]:
            raise StorageError(
                f"relation {name!r} recovered {len(rows)} rows, manifest "
                f"says {entry['count']}")
        relation = self.create_relation(name, rows)
        relation.version = max(relation.version, entry["version"])
        if store is not None:
            # Prime the catalog's store cache: scans, samplers and adopted
            # k-indexes all read these arrays (and these series objects).
            self._columnar[name] = (relation, relation.version, store, True)
        elif not rows:
            # A relation checkpointed empty is of kind "objects", yet may
            # carry a k-index, whose decoder adopts a store: an empty one.
            store = ColumnarRecordStore()
        if entry.get("provider"):
            self.register_distance(name, _rebuilt_provider(entry["provider"], "manifest"))
        for index_name, file_name in entry["indexes"].items():
            path = os.path.join(self.path, "indexes", name, file_name)
            distance = (self._distance_providers[name].distance
                        if name in self._distance_providers else None)
            index = load_index_page(path, store=store, objects=relation.objects(),
                                    distance=distance)
            self.register_index(name, index, index_name)
            self.deserialized_indexes += 1

    def _apply(self, record: dict[str, Any]) -> None:
        """Replay one WAL record through the catalog write it records."""
        op = record.get("op")
        if op == "create_relation":
            self.create_relation(record["name"], [decode_row(row) for row in record["rows"]])
        elif op == "drop_relation":
            self.drop_relation(record["name"])
        elif op == "insert":
            self.insert_rows(record["relation"],
                             [decode_row(encoded) for encoded in record["rows"]])
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
            self.register_distance(record["relation"],
                                   _rebuilt_provider(record["factory"], "WAL"))
        elif op == "drop_distance":
            self.drop_distance(record["relation"])
        else:
            raise StorageError(f"unknown WAL operation {op!r}")

    # ------------------------------------------------------------------
    # measured scan I/O
    # ------------------------------------------------------------------
    def scan_backend(self, relation_name: str) -> dict[str, BufferPool] | None:
        """Scan-construction keywords for a relation with on-disk segments:
        ``{"buffer": pool}``, a *fresh* bounded buffer pool over a fresh
        page store on the shared mappings, so a scan's counters are its own
        (the executor builds a scan per relation version); ``None`` for a
        relation without segments.
        """
        mapped = self._segment_arrays.get(relation_name)
        if mapped is None or mapped[0] is not self._relations.get(relation_name):
            return None
        arrays = mapped[1]
        record_bytes = self.columnar_store(relation_name).record_bytes()
        store = SegmentPageStore(arrays, record_bytes)
        return {"buffer": BufferPool(store, capacity=self.buffer_pages)}

    def _map_segments(self, relations_manifest: dict[str, Any]) -> None:
        """Map every columnar relation's segment coefficient files."""
        self._segment_arrays.clear()
        for name, entry in relations_manifest.items():
            if entry["kind"] != "columnar":
                continue
            directory = self._segment_directory(name)
            arrays = [np.load(os.path.join(directory, f"{segment.stem}-coeffs.npy"),
                              mmap_mode="r") for segment in _segments(name, entry)]
            if arrays:
                self._segment_arrays[name] = (self._relations[name], arrays)

    # ------------------------------------------------------------------
    # housekeeping
    # ------------------------------------------------------------------
    def _segment_directory(self, relation_name: str) -> str:
        return os.path.join(self.path, "segments", relation_name)

    def _watermark(self) -> int:
        """The highest object id the catalog currently holds."""
        return max((int(row.obj.object_id) for relation in self._relations.values()
                    for row in relation.rows()), default=-1)

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
        return {name: {file for segment in _segments(name, entry) for file in segment.files()}
                for name, entry in relations_manifest.items()}

    @staticmethod
    def _live_index_files(relations_manifest: dict[str, Any]
                          ) -> dict[str, set[str]]:
        return {name: set(entry["indexes"].values())
                for name, entry in relations_manifest.items()}

    def __repr__(self) -> str:
        return (f"DurableDatabase(path={self.path!r}, epoch={self._epoch}, "
                f"relations={len(self._relations)}, "
                f"recovered={self.recovered})")
