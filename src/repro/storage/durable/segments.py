"""Persistent columnar segments: the on-disk form of a relation.

A relation persists as a sequence of **partition-aligned segments** — one
per ``[start, stop)`` span of :func:`repro.storage.partition.partition_spans`
— so the on-disk layout mirrors the partition-parallel execution layout:
full spans are immutable once written (relations are append-only and the
span layout is a pure function of ``(count, partition_rows)``), and only
the tail span is ever rewritten, under a *new* stem, when it grows.  A
checkpoint therefore re-serialises at most one partition's worth of rows.

Two formats cover the catalog's relation kinds:

``columnar`` (relations of :class:`~repro.timeseries.TimeSeries`)
    The natural serialisation of :class:`~repro.storage.columnar
    .ColumnarRecordStore`'s contiguous arrays, one ``.npy`` file per
    column (loaded back with ``mmap_mode="r"`` so reads are demand-paged):

    * ``<stem>-coeffs.npy`` — complex DFT coefficient rows, span-local width
    * ``<stem>-lengths.npy`` / ``-means.npy`` / ``-stds.npy`` — per-row stats
    * ``<stem>-values.npy`` — the raw observations, one float64 blob
    * ``<stem>-offsets.npy`` — prefix offsets into the blob (``count + 1``)
    * ``<stem>-meta.json`` — per-row metadata (id, name, start, payload,
      row attributes)

    Reopening reconstructs each series bit-exactly from the blob and
    re-populates the shared record store from the saved coefficients —
    **no FFT is recomputed on recovery**.

``objects`` (every relation that is not all series: strings, generic
feature objects, mixed rows)
    One ``<stem>-objects.bin`` holding the fully encoded rows as one
    :mod:`repro.storage.codec` message.

The row codecs (:func:`encode_object` / :func:`decode_object`) are also
what WAL insert records and wire messages carry, so log replay, segment
load and the server agree on object identity (ids are explicit, never
re-allocated) and on every value's bits: a series' values and a generic
object's features stay float64 arrays, which the codec writes as
little-endian blocks.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any

import numpy as np

from ...core.database import Relation, Row
from ...core.errors import StorageError
from ...core.objects import DataObject, GenericObject
from ...strings.objects import StringObject
from ...timeseries.series import TimeSeries
from .. import codec
from ..columnar import ColumnarRecordStore

__all__ = ["ColumnSegment", "encode_object", "decode_object",
           "write_segment", "load_segment", "segment_stem"]


# ----------------------------------------------------------------------
# row codecs
# ----------------------------------------------------------------------
def _json_safe(value: Any, what: str) -> Any:
    """Reject metadata that would not survive a JSON round trip, loudly.

    The record codec refuses what JSON cannot carry too, but it carries a
    numpy array as a block, so only this check keeps an array out of a
    payload, a start or an attribute dict (and it names the object)."""
    try:
        json.dumps(value)
    except (TypeError, ValueError) as error:
        raise StorageError(
            f"{what} is not JSON-serialisable and cannot be persisted: "
            f"{error}") from error
    return value


def encode_object(obj: DataObject) -> dict[str, Any]:
    """One object as a codec record (explicit id — never re-allocated):
    JSON-safe metadata, and the values or features as a float64 array."""
    base = {"id": int(obj.object_id), "name": obj.name,
            "payload": _json_safe(obj.payload, f"payload of object {obj.object_id}")}
    if isinstance(obj, TimeSeries):
        base.update(type="timeseries", values=obj.values,
                    start=_json_safe(obj.start, f"start of object {obj.object_id}"))
        return base
    if isinstance(obj, StringObject):
        base.update(type="string", text=obj.text)
        return base
    if isinstance(obj, GenericObject):
        base.update(type="generic", features=obj.feature_vector().values)
        return base
    raise StorageError(
        f"objects of type {type(obj).__name__} have no durable encoding; "
        "durable relations hold TimeSeries, StringObject or GenericObject rows")


def decode_object(record: dict[str, Any]) -> DataObject:
    """Reconstruct an object from :func:`encode_object`'s record."""
    kind = record.get("type")
    if kind == "timeseries":
        return TimeSeries(record["values"], name=record["name"],
                          start=record.get("start"), object_id=record["id"],
                          payload=record.get("payload"))
    if kind == "string":
        return StringObject(record["text"], name=record["name"],
                            object_id=record["id"], payload=record.get("payload"))
    if kind == "generic":
        return GenericObject(record["features"], name=record["name"],
                             object_id=record["id"], payload=record.get("payload"))
    raise StorageError(f"unknown durable object type {kind!r}")


def encode_row(row: Row) -> dict[str, Any]:
    """A full relation row (object + attributes) as a codec record."""
    record = encode_object(row.obj)
    if row.attributes:
        record["attributes"] = _json_safe(
            row.attributes, f"attributes of object {row.obj.object_id}")
    return record


def relation_kind(relation: Relation) -> str:
    """``"columnar"`` when every row is a series, else ``"objects"``."""
    rows = list(relation.rows())
    if rows and all(isinstance(row.obj, TimeSeries) for row in rows):
        return "columnar"
    return "objects"


# ----------------------------------------------------------------------
# segments
# ----------------------------------------------------------------------
def segment_stem(start: int, count: int) -> str:
    """File-name stem of a span's segment (count in the name means a grown
    tail span lands under a fresh stem instead of mutating files in place)."""
    return f"seg-{int(start):08d}-{int(count):06d}"


@dataclass(frozen=True)
class ColumnSegment:
    """Descriptor of one persisted row span of a relation."""

    relation: str
    start: int
    count: int
    kind: str  # "columnar" | "objects"

    @property
    def stem(self) -> str:
        return segment_stem(self.start, self.count)

    def files(self) -> list[str]:
        """The file names (relative to the relation directory) this segment
        owns — what a checkpoint's garbage sweep keeps."""
        if self.kind == "objects":
            return [f"{self.stem}-objects.bin"]
        return [f"{self.stem}-{part}.npy"
                for part in ("coeffs", "lengths", "means", "stds",
                             "values", "offsets")] + [f"{self.stem}-meta.json"]


def _write_json(path: str, value: Any) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(value, handle, separators=(",", ":"))


def write_segment(directory: str, segment: ColumnSegment,
                  rows: list[Row], store: ColumnarRecordStore | None) -> None:
    """Persist one span.  Existing files under the segment's stem are
    trusted: full spans are immutable (same stem ⇒ same contents by
    construction) and a grown tail has a new stem, so rewriting is skipped
    whenever the marker file is already present."""
    os.makedirs(directory, exist_ok=True)
    marker = os.path.join(directory, segment.files()[-1] if segment.kind == "columnar"
                          else segment.files()[0])
    if os.path.exists(marker):
        return
    start, stop = segment.start, segment.start + segment.count
    if segment.kind == "objects":
        try:
            payload = codec.encode({"rows": [encode_row(row) for row in rows]})
        except codec.CodecError as error:
            raise StorageError(
                f"rows of {segment.relation!r} are not encodable: {error}") from error
        with open(os.path.join(directory, f"{segment.stem}-objects.bin"), "wb") as handle:
            handle.write(payload)
        return
    if store is None or len(store) < stop:
        raise StorageError(
            f"columnar segment [{start}, {stop}) of {segment.relation!r} "
            "has no backing record store")
    lengths = store.lengths[start:stop]
    width = int(lengths.max()) if segment.count else 0
    np.save(os.path.join(directory, f"{segment.stem}-coeffs.npy"),
            np.ascontiguousarray(store.coefficients[start:stop, :width]))
    np.save(os.path.join(directory, f"{segment.stem}-lengths.npy"),
            np.ascontiguousarray(lengths))
    np.save(os.path.join(directory, f"{segment.stem}-means.npy"),
            np.ascontiguousarray(store.means[start:stop]))
    np.save(os.path.join(directory, f"{segment.stem}-stds.npy"),
            np.ascontiguousarray(store.stds[start:stop]))
    blobs = [row.obj.values for row in rows]
    offsets = np.zeros(len(blobs) + 1, dtype=np.intp)
    np.cumsum([blob.shape[0] for blob in blobs], out=offsets[1:])
    np.save(os.path.join(directory, f"{segment.stem}-values.npy"),
            np.concatenate(blobs) if blobs else np.zeros(0, dtype=np.float64))
    np.save(os.path.join(directory, f"{segment.stem}-offsets.npy"), offsets)
    # Metadata is columnar too — flat parallel lists parse an order of
    # magnitude faster than one dict per row, and recovery latency is
    # exactly this file's parse time plus array loads.
    meta = {
        "ids": [int(row.obj.object_id) for row in rows],
        "names": [row.obj.name for row in rows],
        "starts": [_json_safe(row.obj.start,
                              f"start of object {row.obj.object_id}")
                   for row in rows],
        "payloads": [_json_safe(row.obj.payload,
                                f"payload of object {row.obj.object_id}")
                     for row in rows],
        "attributes": [_json_safe(row.attributes,
                                  f"attributes of object {row.obj.object_id}")
                       if row.attributes else None for row in rows],
    }
    _write_json(os.path.join(directory, f"{segment.stem}-meta.json"), meta)


@dataclass
class LoadedSegment:
    """One segment's rows back in memory (arrays still memory-mapped)."""

    segment: ColumnSegment
    rows: list[Row]
    #: Memory-mapped coefficient rows (``None`` for object segments); kept
    #: alive by the engine's page store so scans charge real device reads.
    coefficients: np.ndarray | None
    lengths: np.ndarray | None
    means: np.ndarray | None
    stds: np.ndarray | None


def load_segment(directory: str, segment: ColumnSegment) -> LoadedSegment:
    """Reconstruct a span's rows (bit-exact values, original ids — and for
    columnar segments, the saved spectra, so no FFT is recomputed)."""
    if segment.kind == "objects":
        path = os.path.join(directory, f"{segment.stem}-objects.bin")
        with open(path, "rb") as handle:
            payload = handle.read()
        try:
            records = codec.decode(payload)["rows"]
        except (codec.CodecError, TypeError, LookupError) as error:
            raise StorageError(f"object segment {path!r} does not decode: {error}") from error
        rows = [Row(decode_object(record), record.get("attributes"))
                for record in records]
        return LoadedSegment(segment, rows, None, None, None, None)
    stem = os.path.join(directory, segment.stem)
    coefficients = np.load(f"{stem}-coeffs.npy", mmap_mode="r")
    lengths = np.load(f"{stem}-lengths.npy")
    means = np.load(f"{stem}-means.npy")
    stds = np.load(f"{stem}-stds.npy")
    # Values are loaded eagerly: every row's array is materialized below
    # anyway, and slicing a memmap 10^3 times costs more than one read.
    values = np.load(f"{stem}-values.npy")
    offsets = np.load(f"{stem}-offsets.npy")
    with open(f"{stem}-meta.json", "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    ids = meta["ids"]
    if len(ids) != segment.count:
        raise StorageError(
            f"segment {segment.stem} of {segment.relation!r} holds "
            f"{len(ids)} rows, manifest says {segment.count}")
    names, starts = meta["names"], meta["starts"]
    payloads, attributes = meta["payloads"], meta["attributes"]
    rows = []
    for position in range(segment.count):
        series = TimeSeries(
            np.asarray(values[offsets[position]:offsets[position + 1]]),
            name=names[position], start=starts[position],
            object_id=ids[position], payload=payloads[position])
        rows.append(Row(series, attributes[position]))
    return LoadedSegment(segment, rows, coefficients, lengths, means, stds)
