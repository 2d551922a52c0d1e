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
    The two data-sized arrays of :class:`~repro.storage.columnar
    .ColumnarRecordStore` as ``.npy`` files (loaded back with
    ``mmap_mode="r"`` where reads are demand-paged), and everything else in
    one framed codec message:

    * ``<stem>-coeffs.npy`` — complex DFT coefficient rows, span-local width
    * ``<stem>-values.npy`` — the raw observations, one float64 blob
    * ``<stem>-rows.bin`` — per-row ids (an int64 block), names, starts,
      payloads and attributes, and the ``lengths`` / ``means`` / ``stds``
      columns and the ``offsets`` of each row's values in the blob
      (``count + 1`` prefix offsets)

    Reopening reconstructs each series bit-exactly from the blob and
    re-populates the shared record store from the saved coefficients —
    **no FFT is recomputed on recovery**.

``objects`` (every relation that is not all series: strings, generic
feature objects, mixed rows)
    One ``<stem>-objects.bin`` holding the fully encoded rows as one framed
    codec message.

Every ``.bin`` file is one :func:`repro.storage.codec.frame`, read back
through :func:`read_framed`: a file that is missing, torn, longer than its
frame or does not decode is a :class:`~repro.core.errors.StorageError`
naming it.  The row codecs (:func:`encode_object` / :func:`decode_object`)
are also what WAL insert records and wire messages carry, so log replay,
segment load and the server agree on object identity (ids are explicit,
never re-allocated) and on every value's bits: a series' values and a
generic object's features stay float64 arrays, which the codec writes as
little-endian blocks.
"""

from __future__ import annotations

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
from ..columnar import ColumnarRecordStore, record_matrix

__all__ = ["ColumnSegment", "encode_object", "decode_object", "write_segment", "load_segments"]


# ----------------------------------------------------------------------
# row codecs
# ----------------------------------------------------------------------
def _metadata(value: Any, what: str, obj: DataObject) -> Any:
    """``value`` (``obj``'s payload, start or attributes), refused naming the
    object when a numpy array hides in it: the codec would carry the array
    as a block and hand back a read-only array where a list was meant.
    Anything else the codec cannot carry it refuses itself, at encode."""
    if isinstance(value, np.ndarray):
        raise StorageError(
            f"{what} of object {obj.object_id} holds a numpy array and cannot be persisted"
        )
    if isinstance(value, dict):
        for item in value.values():
            _metadata(item, what, obj)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _metadata(item, what, obj)
    return value


def encode_object(obj: DataObject) -> dict[str, Any]:
    """One object as a codec record (explicit id — never re-allocated):
    JSON-safe metadata, and the values or features as a float64 array."""
    base = {
        "id": int(obj.object_id),
        "name": obj.name,
        "payload": _metadata(obj.payload, "payload", obj),
    }
    if isinstance(obj, TimeSeries):
        base.update(type="timeseries", values=obj.values, start=_metadata(obj.start, "start", obj))
        return base
    if isinstance(obj, StringObject):
        base.update(type="string", text=obj.text)
        return base
    if isinstance(obj, GenericObject):
        base.update(type="generic", features=obj.feature_vector().values)
        return base
    raise StorageError(
        f"objects of type {type(obj).__name__} have no durable encoding; "
        "durable relations hold TimeSeries, StringObject or GenericObject rows"
    )


def decode_object(record: dict[str, Any]) -> DataObject:
    """Reconstruct an object from :func:`encode_object`'s record."""
    kind = record.get("type")
    if kind not in ("timeseries", "string", "generic"):
        raise StorageError(f"unknown durable object type {kind!r}")
    common = {"name": record["name"], "object_id": record["id"], "payload": record.get("payload")}
    if kind == "timeseries":
        return TimeSeries(record["values"], start=record.get("start"), **common)
    if kind == "string":
        return StringObject(record["text"], **common)
    return GenericObject(record["features"], **common)


def encode_row(row: Row) -> dict[str, Any]:
    """A full relation row (object + attributes) as a codec record."""
    record = encode_object(row.obj)
    if row.attributes:
        record["attributes"] = _metadata(row.attributes, "attributes", row.obj)
    return record


def decode_row(record: dict[str, Any]) -> Row:
    """Invert :func:`encode_row`."""
    return Row(decode_object(record), record.get("attributes"))


def relation_kind(relation: Relation) -> str:
    """``"columnar"`` when every row is a series, else ``"objects"``."""
    rows = list(relation.rows())
    if rows and all(isinstance(row.obj, TimeSeries) for row in rows):
        return "columnar"
    return "objects"


# ----------------------------------------------------------------------
# framed files
# ----------------------------------------------------------------------
def read_framed(path: str) -> Any:
    """The one message a framed file holds.  A file that cannot be read, is
    torn, holds bytes after its frame or does not decode is a
    :class:`StorageError` naming it."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        message, stop = codec.unframe(data)
    except (OSError, codec.CodecError) as error:
        raise StorageError(f"{path!r} is unreadable: {error}") from error
    if stop != len(data):
        raise StorageError(f"{path!r} holds {len(data) - stop} bytes after its frame")
    return message


def _write_framed(path: str, message: dict[str, Any], relation: str) -> None:
    try:
        framed = codec.frame(message)
    except codec.CodecError as error:
        raise StorageError(f"rows of {relation!r} are not encodable: {error}") from error
    with open(path, "wb") as handle:
        handle.write(framed)


def _load_array(path: str, **options: Any) -> np.ndarray:
    try:
        return np.load(path, allow_pickle=False, **options)
    except (OSError, ValueError, EOFError) as error:
        raise StorageError(f"{path!r} is unreadable: {error}") from error


# ----------------------------------------------------------------------
# segments
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ColumnSegment:
    """Descriptor of one persisted row span of a relation."""

    relation: str
    start: int
    count: int
    kind: str  # "columnar" | "objects"

    @property
    def stem(self) -> str:
        """File-name stem (the count in the name makes a grown tail span land
        under a fresh stem instead of mutating files in place)."""
        return f"seg-{int(self.start):08d}-{int(self.count):06d}"

    def files(self) -> list[str]:
        """The file names (relative to the relation directory) this segment
        owns — what a checkpoint's garbage sweep keeps.  The last one is
        written last: once it exists, the segment is whole."""
        if self.kind == "objects":
            return [f"{self.stem}-objects.bin"]
        return [f"{self.stem}-coeffs.npy", f"{self.stem}-values.npy", f"{self.stem}-rows.bin"]


def write_segment(
    directory: str, segment: ColumnSegment, rows: list[Row], store: ColumnarRecordStore | None
) -> None:
    """Persist one span.  Existing files under the segment's stem are
    trusted: full spans are immutable (same stem ⇒ same contents by
    construction) and a grown tail has a new stem, so rewriting is skipped
    whenever the segment's last file is already there *and its frame
    verifies* — a checkpoint killed while writing it leaves a torn marker,
    and the segment is written again."""
    os.makedirs(directory, exist_ok=True)
    *arrays, marker = (os.path.join(directory, name) for name in segment.files())
    try:
        read_framed(marker)
    except StorageError:
        pass  # missing or torn: write the whole segment
    else:
        return
    if segment.kind == "objects":
        _write_framed(marker, {"rows": [encode_row(row) for row in rows]}, segment.relation)
        return
    start, stop = segment.start, segment.start + segment.count
    if store is None or len(store) < stop:
        raise StorageError(
            f"columnar segment [{start}, {stop}) of {segment.relation!r} "
            "has no backing record store"
        )
    lengths = store.lengths[start:stop]
    width = int(lengths.max()) if segment.count else 0
    objects = [row.obj for row in rows]
    values = [obj.values for obj in objects]
    offsets = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum([len(blob) for blob in values], out=offsets[1:])
    coeffs_path, values_path = arrays
    np.save(coeffs_path, np.ascontiguousarray(store.coefficients[start:stop, :width]))
    np.save(values_path, np.concatenate(values) if values else np.zeros(0, dtype=np.float64))
    # Metadata is columnar: flat parallel lists and blocks decode an order
    # of magnitude faster than one dict per row, and recovery latency is
    # this file's decode time plus the array loads.  (Column by column, not
    # from ``encode_row`` records: a dict per row made peak RSS bimodal.)
    columns = {
        "ids": np.array([obj.object_id for obj in objects], dtype=np.int64),
        "names": [obj.name for obj in objects],
        "starts": [_metadata(obj.start, "start", obj) for obj in objects],
        "payloads": [_metadata(obj.payload, "payload", obj) for obj in objects],
        "attributes": [_metadata(row.attributes, "attributes", row.obj) or None for row in rows],
        "lengths": lengths,
        "means": store.means[start:stop],
        "stds": store.stds[start:stop],
        "offsets": offsets,
    }
    _write_framed(marker, columns, segment.relation)


def load_segments(
    directory: str, segments: list[ColumnSegment]
) -> tuple[list[Row], ColumnarRecordStore | None]:
    """A relation's rows, segment after segment (bit-exact values, original
    ids), and for columnar segments the record store of their saved spectra,
    so no FFT is recomputed.  A file that is damaged, or that disagrees with
    the others or with the manifest's row count, is a :class:`StorageError`
    naming it."""
    loaded = [_load_segment(directory, segment) for segment in segments]
    rows = [row for segment_rows, _ in loaded for row in segment_rows]
    spectra = [spectrum for _, spectrum in loaded if spectrum is not None]
    if not spectra:
        return rows, None
    # One matrix at its final size, which the store keeps: a store grown a
    # segment at a time doubles, and the blocks it frees among the rows'
    # small arrays left peak RSS different from one run to the next.
    width = max(coefficients.shape[1] for coefficients, *_ in spectra)
    matrix = record_matrix(len(rows), width)
    start = 0
    for coefficients, *_ in spectra:
        matrix[start : start + len(coefficients), : coefficients.shape[1]] = coefficients
        start += len(coefficients)
    lengths, means, stds = (np.concatenate(column) for column in list(zip(*spectra))[1:])
    store = ColumnarRecordStore()
    store.bulk_load([row.obj for row in rows], matrix, lengths, means, stds)
    return rows, store


def _load_segment(directory: str, segment: ColumnSegment) -> tuple[list[Row], tuple | None]:
    """One segment's rows and, when it is columnar, its saved
    ``(coefficients, lengths, means, stds)``."""
    paths = [os.path.join(directory, name) for name in segment.files()]
    count = segment.count
    if segment.kind == "objects":
        (path,) = paths
        records = read_framed(path)["rows"]
        if len(records) != count:
            raise StorageError(f"{path!r} does not hold {count} rows")
        return [decode_row(record) for record in records], None
    coeffs_path, values_path, rows_path = paths
    columns = read_framed(rows_path)
    keys = ("ids", "names", "starts", "payloads", "attributes", "lengths", "means", "stds")
    listed = [columns[key] for key in keys]
    ids, names, starts, payloads, attributes, lengths, means, stds = listed
    offsets = columns["offsets"].tolist()
    # The offsets rise strictly from 0: every series holds at least one value.
    partition = offsets[:1] == [0] and sorted(set(offsets)) == offsets
    if not partition or len(offsets) != count + 1 or any(len(c) != count for c in listed):
        raise StorageError(f"{rows_path!r} does not hold the columns of {count} rows")
    coefficients = _load_array(coeffs_path, mmap_mode="r")
    if coefficients.dtype != np.complex128 or coefficients.ndim != 2 or len(coefficients) != count:
        raise StorageError(f"{coeffs_path!r} does not hold {count} rows of complex spectra")
    # Values are loaded eagerly: every row's array is materialized below
    # anyway, and slicing a memmap 10^3 times costs more than one read.
    values = _load_array(values_path)
    if values.dtype != np.float64 or values.shape != (offsets[-1],):
        raise StorageError(f"{values_path!r} does not hold the {offsets[-1]} values of its rows")
    try:
        series = [
            TimeSeries(values[a:b], name=name, start=start, object_id=object_id, payload=payload)
            for a, b, name, start, object_id, payload in zip(
                offsets, offsets[1:], names, starts, ids.tolist(), payloads
            )
        ]
    except ValueError as error:  # a value that is not finite
        raise StorageError(f"{values_path!r} holds a row that is not a series: {error}") from error
    rows = [Row(obj, row_attributes) for obj, row_attributes in zip(series, attributes)]
    return rows, (coefficients, lengths, means, stds)
