"""Serialize / deserialize index structures, so reopen skips rebuilds.

A checkpoint writes each registered index as one codec message — the page,
framed and checksummed like every ``.bin`` file — holding its *construction
configuration* plus its *built structure*: for the R-tree family the
feature points of every row and the level arrays of the index's packed
tree (per level the nodes' entry counts, corners and payloads; a leaf level
holds counts and record ids only, its corners being those rows of the
points; the rows beyond the tree are the index's unindexed tail and come
back as such), all of them little-endian int64 / float64 blocks; for the
vantage-point family the pivot tree with objects referenced by position and
each leaf's pivot distances as a block.  Recovery deserializes the page
instead of re-running ``bulk_load`` / ``_build``: the blocks are the arrays
every probe runs on, with no tree construction and, for k-indexes, zero
FFTs (the feature points are part of the page and the record store is
rebuilt from the segments' saved spectra).

An index page is outside input: :func:`deserialize_index` checks a k-index
page once, in whole-array tests, before anything is built from it — block
types and shapes, finite corners, points equal to the features of the
recovered store's rows, node sizes, that every internal entry names a node
of the next level (each exactly once) and that its box encloses that node's
entries, that the leaves hold the rows ``0 … n − 1`` — and every
inconsistency is a :class:`~repro.core.errors.StorageError` at open, never
an out-of-bounds gather or a wrong answer at a later probe.

Object identity is preserved by construction: deserialized k-indexes are
handed the relation's recovered :class:`~repro.storage.columnar
.ColumnarRecordStore` (the same series objects the relation's rows hold,
so ``Database.columnar_store`` adoption still fires), and metric indexes
reference the relation's objects by insertion position.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ...core.errors import StorageError
from ...index.kindex import KIndex
from ...index.metric import MetricIndex, _Inner, _Leaf
from ...index.rtree import PackedRTree, _PackedLevel
from ...storage.columnar import ColumnarRecordStore
from ...timeseries.features import SeriesFeatureExtractor
from .manifest import FORMAT_VERSION
from .segments import read_framed

__all__ = [
    "serialize_index",
    "deserialize_index",
    "load_index_page",
    "index_spec",
    "build_index_from_spec",
]


# ----------------------------------------------------------------------
# R-tree family
# ----------------------------------------------------------------------
def _serialize_tree(tree: PackedRTree) -> dict[str, Any]:
    """Every level's counts and payloads, and an internal level's corners."""
    fields = ("counts", "payloads", "lows", "highs")
    levels = [
        {name: getattr(level, name).ravel() for name in fields[: 2 if level.is_leaf else 4]}
        for level in tree.levels
    ]
    return {"size": len(tree), "levels": levels}


def _block(record: dict[str, Any], key: str, dtype: str, columns: int | None = None) -> np.ndarray:
    """``record[key]``, a block of ``dtype`` items — given ``columns``, viewed
    as an ``(n, columns)`` array, and then every item finite."""
    block = record.get(key)
    if not isinstance(block, np.ndarray) or block.dtype != np.dtype(dtype):
        raise StorageError(f"{key!r} is not a block of {dtype} items")
    if columns is None:
        return block
    if len(block) % columns or not np.isfinite(block).all():
        raise StorageError(f"{key!r} is not rows of {columns} finite numbers")
    return block.reshape(-1, columns)


def _deserialize_tree(tree: dict[str, Any], points: np.ndarray, max_entries: int) -> PackedRTree:
    """Rebuild one packed tree over ``points`` (every row of the index),
    checking what the kernels take on trust: node sizes, that an internal
    level's payloads name every node of the next exactly once, that leaf
    payloads are rows of ``points``, and that every internal entry's box
    encloses the entries of the node it names — a box cut short would
    prune that node's rows from every probe it should have reached."""
    levels: list[_PackedLevel] = []
    nodes = 1  # the root level holds one node
    for depth, level in enumerate(tree["levels"]):
        is_leaf = depth == len(tree["levels"]) - 1
        counts = _block(level, "counts", "<i8")
        payloads = _block(level, "payloads", "<i8")
        empty_root = is_leaf and not depth and counts.tolist() == [0]
        if (
            len(counts) != nodes
            or counts.sum() != len(payloads)
            or np.any(counts > max_entries)
            or (np.any(counts < 1) and not empty_root)
        ):
            raise StorageError(
                f"level {depth} does not hold {nodes} nodes of 1 to {max_entries} entries"
            )
        if is_leaf:
            if np.any(payloads < 0) or np.any(payloads >= len(points)):
                raise StorageError("a leaf entry names a row the index does not hold")
            lows = highs = points[payloads]
        else:
            lows = _block(level, "lows", "<f8", points.shape[1])
            highs = _block(level, "highs", "<f8", points.shape[1])
            nodes = len(payloads)
            if (
                len(lows) != nodes
                or len(highs) != nodes
                or not np.array_equal(np.sort(payloads), np.arange(nodes))
            ):
                raise StorageError(
                    f"level {depth} does not name every node of level {depth + 1} "
                    "exactly once, with its corners"
                )
        levels.append(_PackedLevel(is_leaf, counts, lows, highs, payloads))
    if not levels or len(levels[-1].payloads) != tree["size"]:
        raise StorageError("the leaf level does not hold the tree's recorded size")
    for depth, (level, child) in enumerate(zip(levels, levels[1:])):
        child_lows = np.minimum.reduceat(child.lows, child.starts)[level.payloads]
        child_highs = np.maximum.reduceat(child.highs, child.starts)[level.payloads]
        if np.any(level.lows > child_lows) or np.any(level.highs < child_highs):
            raise StorageError(f"a box of level {depth} does not enclose its child node")
    return PackedRTree(points.shape[1], max_entries, levels)


# ----------------------------------------------------------------------
# metric family
# ----------------------------------------------------------------------
def _serialize_metric_structure(index: MetricIndex) -> dict[str, Any]:
    index._ensure_built()
    positions = {id(obj): position for position, obj in enumerate(index._objects)}

    def encode(node: Any) -> dict[str, Any] | None:
        if node is None:
            return None
        if isinstance(node, _Leaf):
            return {
                "leaf": True,
                "pivot": positions[id(node.pivot)],
                "objects": [positions[id(obj)] for obj in node.objects],
                "to_pivot": node.to_pivot,
            }
        return {
            "leaf": False,
            "pivot": positions[id(node.pivot)],
            "inside": encode(node.inside),
            "outside": encode(node.outside),
            "inside_interval": [node.inside_min, node.inside_max],
            "outside_interval": [node.outside_min, node.outside_max],
        }

    return {
        "leaf_capacity": index.leaf_capacity,
        "object_ids": [int(obj.object_id) for obj in index._objects],
        "root": encode(index._root),
    }


def _restore_metric(
    payload: dict[str, Any], distance: Callable[[Any, Any], float], objects: Sequence[Any]
) -> MetricIndex:
    by_id = {int(obj.object_id): obj for obj in objects}
    try:
        ordered = [by_id[object_id] for object_id in payload["object_ids"]]
    except KeyError as error:
        raise StorageError(
            f"serialized metric index references unknown object id {error.args[0]}"
        ) from None
    index = MetricIndex(distance, leaf_capacity=payload["leaf_capacity"])
    index._objects = ordered

    def decode(record: dict[str, Any] | None) -> Any:
        if record is None:
            return None
        if record["leaf"]:
            members = [ordered[position] for position in record["objects"]]
            to_pivot = _block(record, "to_pivot", "<f8")
            if len(to_pivot) != len(members):
                raise StorageError("a leaf's pivot distances do not match its objects")
            return _Leaf(ordered[record["pivot"]], members, to_pivot)
        return _Inner(
            ordered[record["pivot"]],
            decode(record["inside"]),
            decode(record["outside"]),
            tuple(record["inside_interval"]),
            tuple(record["outside_interval"]),
        )

    index._root = decode(payload["root"])
    index._dirty = False
    return index


# ----------------------------------------------------------------------
# whole indexes
# ----------------------------------------------------------------------
def serialize_index(index: Any) -> dict[str, Any]:
    """An index as a codec message (configuration + built structure)."""
    if isinstance(index, KIndex):
        # The points of every row, and the tree: the rows beyond it are the
        # unindexed tail, on disk as in memory.
        tree = index.tree  # read once: a seal replaces it
        return {
            **index_spec(index),
            "format_version": FORMAT_VERSION,
            "point_rows": index._points[: len(index)].ravel(),
            "trees": [_serialize_tree(tree)],
        }
    if isinstance(index, MetricIndex):
        return {
            "kind": "metric",
            "format_version": FORMAT_VERSION,
            "structure": _serialize_metric_structure(index),
        }
    raise StorageError(f"indexes of type {type(index).__name__} have no durable serialization")


def deserialize_index(
    payload: dict[str, Any],
    *,
    store: ColumnarRecordStore | None = None,
    objects: Sequence[Any] = (),
    distance: Callable[[Any, Any], float] | None = None,
) -> Any:
    """Rebuild an index from :func:`serialize_index`'s message.

    ``store`` (k-index family) is the relation's recovered record store —
    shared, not copied.  ``objects`` (metric family) are the relation's
    recovered objects; ``distance`` is the relation's provider distance.
    """
    kind = payload.get("kind")
    if payload.get("format_version") != FORMAT_VERSION:
        raise StorageError(
            f"index page has format version {payload.get('format_version')!r}; "
            f"this build reads version {FORMAT_VERSION}"
        )
    if kind == "kindex":
        if store is None:
            raise StorageError("deserializing a k-index needs the relation's record store")
        index = _empty_kindex(payload)
        index.store = store
        points = _block(payload, "point_rows", "<f8", index.space.dimension)
        # The points must be the features of the store's rows, bit for bit: a
        # point moved inside its leaf's box would pass every check of the
        # tree and then hide its row from the probes that should reach it,
        # and the page's points are what ties it to the segments' spectra,
        # whose data carries no checksum of its own.  The derived array is
        # also the one the index writes into (its next append lands there);
        # the tree's blocks stay read-only views.
        index._points = index.extractor.points_of(store.coefficients, store.means, store.stds)
        if not np.array_equal(points, index._points):
            raise StorageError(
                f"the page's {len(points)} points are not the features of the "
                f"{len(store)} rows of the recovered store"
            )
        if len(payload["trees"]) != 1:
            raise StorageError(f"a k-index has one tree, not {len(payload['trees'])}")
        index.tree = _deserialize_tree(payload["trees"][0], index._points, index.max_entries)
        # The tail is the rows beyond the tree, so it holds rows 0 … n - 1.
        packed = np.sort(index.tree.levels[-1].payloads)
        if not np.array_equal(packed, np.arange(len(packed))):
            raise StorageError(
                f"the {len(packed)} leaf entries of the serialized k-index are not "
                f"its rows 0 … {len(packed) - 1}, each once"
            )
        return index
    if kind == "metric":
        if distance is None:
            raise StorageError(
                "deserializing a metric index needs the relation's distance provider"
            )
        return _restore_metric(payload["structure"], distance, objects)
    raise StorageError(f"unknown serialized index kind {kind!r}")


def load_index_page(path: str, **relation: Any) -> Any:
    """:func:`deserialize_index` (``relation`` its keywords) of the page file
    at ``path``.  The page is outside input: whatever is wrong with it —
    torn, not a codec message, a field missing or of the wrong type, a
    structure the decoder's checks refuse — is one :class:`StorageError`
    naming the file."""
    try:
        return deserialize_index(read_framed(path), **relation)
    except (ValueError, LookupError, TypeError, AttributeError, StorageError) as error:
        raise StorageError(f"index page {path!r} is unreadable or inconsistent: {error}") from error


# ----------------------------------------------------------------------
# WAL index specs (rebuild-from-relation, for the uncheckpointed tail)
# ----------------------------------------------------------------------
def index_spec(index: Any) -> dict[str, Any]:
    """The construction recipe a WAL ``register_index`` record carries.

    A spec names only configuration — replay rebuilds the structure from
    the relation's contents at that point in the log.  (Checkpointed
    indexes never take this path; they deserialize.)
    """
    if isinstance(index, KIndex):
        options = ("num_coefficients", "representation", "include_stats")
        extractor = {option: getattr(index.extractor, option) for option in options}
        return {"kind": "kindex", "extractor": extractor, "max_entries": index.max_entries}
    if isinstance(index, MetricIndex):
        return {"kind": "metric", "leaf_capacity": index.leaf_capacity}
    raise StorageError(f"indexes of type {type(index).__name__} have no durable spec")


def _empty_kindex(spec: dict[str, Any]) -> KIndex:
    """An empty k-index of the configuration a spec (or a serialized
    page, which embeds one) names."""
    return KIndex(SeriesFeatureExtractor(**spec["extractor"]), max_entries=spec["max_entries"])


def build_index_from_spec(
    spec: dict[str, Any], objects: Sequence[Any], distance: Callable[[Any, Any], float] | None
) -> Any:
    """Cold-build an index per a WAL spec from the relation's objects."""
    kind = spec.get("kind")
    if kind == "kindex":
        index = _empty_kindex(spec)
        index.extend(objects)
        return index
    if kind == "metric":
        if distance is None:
            raise StorageError("rebuilding a metric index needs the relation's provider")
        index = MetricIndex(distance, leaf_capacity=spec["leaf_capacity"])
        index.extend(objects)
        return index
    raise StorageError(f"unknown index spec kind {kind!r}")
