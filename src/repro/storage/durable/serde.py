"""Serialize / deserialize index structures, so reopen skips rebuilds.

A checkpoint writes each registered index as a JSON document holding its
*construction configuration* plus its *built structure* — for the R-tree
family the feature points of every row and the full node/entry graph of the
tree(s) the index has (the pages an STR bulk load would have packed; the
rows beyond them are the index's unindexed tail and come back as such), for
the vantage-point family the pivot tree with objects referenced by position.
Recovery deserializes the document instead of re-running ``bulk_load`` /
``_build``: an ``O(pages)`` decode in place of tree construction and, for
k-indexes, zero FFTs (the feature points are part of the document and the
record store is rebuilt from the segments' saved spectra).

Object identity is preserved by construction: deserialized k-indexes are
handed the relation's recovered :class:`~repro.storage.columnar
.ColumnarRecordStore` (the same series objects the relation's rows hold,
so ``Database.columnar_store`` adoption still fires), and metric indexes
reference the relation's objects by insertion position.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Sequence

import numpy as np

from ...core.errors import StorageError
from ...index.geometry import Rect
from ...index.kindex import KIndex
from ...index.metric import MetricIndex, _Inner, _Leaf
from ...index.partitioned import (PartitionedIndex, PartitionedMetricIndex,
                                  _PartitionForest)
from ...index.rstar import RStarTree
from ...index.rtree import RTree, RTreeEntry, RTreeNode
from ...storage.columnar import ColumnarRecordStore
from ...storage.pages import PageStore
from ...timeseries.features import SeriesFeatureExtractor

__all__ = ["serialize_index", "deserialize_index", "index_spec",
           "build_index_from_spec"]


# ----------------------------------------------------------------------
# configuration helpers
# ----------------------------------------------------------------------
def _extractor_config(extractor: SeriesFeatureExtractor) -> dict[str, Any]:
    return {"num_coefficients": extractor.num_coefficients,
            "representation": extractor.representation,
            "include_stats": extractor.include_stats}


def _restore_extractor(config: dict[str, Any]) -> SeriesFeatureExtractor:
    return SeriesFeatureExtractor(config["num_coefficients"],
                                  representation=config["representation"],
                                  include_stats=config["include_stats"])


def _tree_kind_of(tree: RTree) -> str:
    """The ``KIndex`` ``tree_kind`` string a tree was built with."""
    if isinstance(tree, RStarTree):
        return "rstar"
    return f"rtree-{tree.split_policy}"


# ----------------------------------------------------------------------
# R-tree family
# ----------------------------------------------------------------------
def _serialize_rtree(tree: RTree) -> dict[str, Any]:
    nodes = []
    for node in tree._nodes.values():
        nodes.append({
            "id": node.node_id, "leaf": node.is_leaf, "parent": node.parent_id,
            "entries": [[entry.rect.low.tolist(), entry.rect.high.tolist(),
                         entry.child_id, entry.record]
                        for entry in node.entries]})
    return {"kind": _tree_kind_of(tree), "dimension": tree.dimension,
            "max_entries": tree.max_entries, "min_entries": tree.min_entries,
            "root_id": tree.root_id, "size": tree._size, "nodes": nodes}


def _deserialize_rtree(payload: dict[str, Any],
                       page_store: PageStore | None) -> RTree:
    """Rebuild a tree; a paged one re-allocates its node pages in
    ``page_store``, one per node, same as a live build."""
    kind = payload["kind"]
    if kind == "rstar":
        tree: RTree = RStarTree(payload["dimension"],
                                max_entries=payload["max_entries"],
                                min_entries=payload["min_entries"],
                                page_store=page_store)
    elif kind in ("rtree-quadratic", "rtree-linear"):
        tree = RTree(payload["dimension"], max_entries=payload["max_entries"],
                     min_entries=payload["min_entries"],
                     split=kind.removeprefix("rtree-"), page_store=page_store)
    else:
        raise StorageError(f"unknown serialized tree kind {kind!r}")
    # Drop the constructor's placeholder root, then rebuild the node graph.
    tree.release_pages()
    tree._nodes.clear()
    tree._entry_arrays_cache.clear()
    max_id = -1
    for record in payload["nodes"]:
        node = RTreeNode(
            node_id=record["id"], is_leaf=record["leaf"],
            parent_id=record["parent"],
            entries=[RTreeEntry(Rect.trusted(low, high), child_id=child_id,
                                record=stored)
                     for low, high, child_id, stored in record["entries"]])
        tree._nodes[node.node_id] = node
        if page_store is not None:
            tree._node_pages[node.node_id] = page_store.allocate(node)
        max_id = max(max_id, node.node_id)
    tree._node_counter = itertools.count(max_id + 1)
    tree.root_id = payload["root_id"]
    tree._size = payload["size"]
    return tree


# ----------------------------------------------------------------------
# metric family
# ----------------------------------------------------------------------
def _serialize_metric_structure(index: MetricIndex) -> dict[str, Any]:
    index._ensure_built()
    positions = {id(obj): position
                 for position, obj in enumerate(index._objects)}

    def encode(node: Any) -> dict[str, Any] | None:
        if node is None:
            return None
        if isinstance(node, _Leaf):
            return {"leaf": True, "pivot": positions[id(node.pivot)],
                    "objects": [positions[id(obj)] for obj in node.objects],
                    "to_pivot": node.to_pivot.tolist()}
        return {"leaf": False, "pivot": positions[id(node.pivot)],
                "inside": encode(node.inside), "outside": encode(node.outside),
                "inside_interval": [node.inside_min, node.inside_max],
                "outside_interval": [node.outside_min, node.outside_max]}

    return {"leaf_capacity": index.leaf_capacity,
            "object_ids": [int(obj.object_id) for obj in index._objects],
            "root": encode(index._root)}


def _restore_metric(payload: dict[str, Any],
                    distance: Callable[[Any, Any], float],
                    objects: Sequence[Any]) -> MetricIndex:
    by_id = {int(obj.object_id): obj for obj in objects}
    try:
        ordered = [by_id[object_id] for object_id in payload["object_ids"]]
    except KeyError as error:
        raise StorageError(
            f"serialized metric index references unknown object id "
            f"{error.args[0]}") from None
    index = MetricIndex(distance, leaf_capacity=payload["leaf_capacity"])
    index._objects = ordered

    def decode(record: dict[str, Any] | None) -> Any:
        if record is None:
            return None
        if record["leaf"]:
            return _Leaf(ordered[record["pivot"]],
                         [ordered[position] for position in record["objects"]],
                         np.array(record["to_pivot"], dtype=np.float64))
        return _Inner(ordered[record["pivot"]], decode(record["inside"]),
                      decode(record["outside"]),
                      tuple(record["inside_interval"]),
                      tuple(record["outside_interval"]))

    index._root = decode(payload["root"])
    index._dirty = False
    return index


# ----------------------------------------------------------------------
# whole indexes
# ----------------------------------------------------------------------
def serialize_index(index: Any) -> dict[str, Any]:
    """An index as a JSON-safe document (configuration + built structure)."""
    if isinstance(index, KIndex):
        # The points of every row, and the tree(s) the index has: the rows
        # beyond them are its unindexed tail, on disk as in memory.
        forest = isinstance(index, PartitionedIndex)
        tree = index.tree  # read once: a seal replaces it
        return {**index_spec(index), "paged": index._tree_options[2] is not None,
                "point_rows": index._points[:len(index)].tolist(),
                "trees": [_serialize_rtree(part)
                          for part in (tree.trees if forest else [tree])]}
    if isinstance(index, PartitionedMetricIndex):
        return {"kind": "partitioned-metric",
                "leaf_capacity": index.leaf_capacity,
                "partition_rows": index.partition_rows,
                "workers": index.workers,
                "count": len(index),
                "partitions": [_serialize_metric_structure(partition)
                               for partition in index._partitions]}
    if isinstance(index, MetricIndex):
        return {"kind": "metric",
                "structure": _serialize_metric_structure(index)}
    raise StorageError(
        f"indexes of type {type(index).__name__} have no durable serialization")


def deserialize_index(payload: dict[str, Any], *,
                      store: ColumnarRecordStore | None = None,
                      objects: Sequence[Any] = (),
                      distance: Callable[[Any, Any], float] | None = None) -> Any:
    """Rebuild an index from :func:`serialize_index`'s document.

    ``store`` (k-index family) is the relation's recovered record store —
    shared, not copied.  ``objects`` (metric family) are the relation's
    recovered objects; ``distance`` is the relation's provider distance.
    """
    kind = payload.get("kind")
    if kind == "kindex" or kind == "partitioned-kindex":
        if store is None:
            raise StorageError(
                "deserializing a k-index needs the relation's record store")
        page_store = PageStore() if payload["paged"] else None
        index: KIndex = _empty_kindex(payload, page_store)
        trees = [_deserialize_rtree(tree, page_store) for tree in payload["trees"]]
        index.tree = (_PartitionForest(trees, index.workers)
                      if kind == "partitioned-kindex" else trees[0])
        index.store = store
        index._points = np.array(payload["point_rows"], dtype=np.float64
                                 ).reshape(-1, index.space.dimension)
        if len(index._points) != len(store) or len(index.tree) > len(store):
            raise StorageError(
                f"serialized k-index holds {len(index._points)} points "
                f"({len(index.tree)} of them packed) but the recovered store "
                f"holds {len(store)} records")
        return index
    if kind == "metric" or kind == "partitioned-metric":
        if distance is None:
            raise StorageError(
                "deserializing a metric index needs the relation's "
                "distance provider")
        if kind == "metric":
            return _restore_metric(payload["structure"], distance, objects)
        index = PartitionedMetricIndex(
            distance, leaf_capacity=payload["leaf_capacity"],
            partition_rows=payload["partition_rows"],
            workers=payload["workers"])
        index._partitions = [_restore_metric(part, distance, objects)
                             for part in payload["partitions"]]
        index._count = payload["count"]
        return index
    raise StorageError(f"unknown serialized index kind {kind!r}")


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
        tree_kind, max_entries, _ = index._tree_options
        spec = {"kind": "kindex", "extractor": _extractor_config(index.extractor),
                "tree_kind": tree_kind, "max_entries": max_entries}
        if isinstance(index, PartitionedIndex):
            spec.update(kind="partitioned-kindex",
                        partition_rows=index.partition_rows, workers=index.workers)
        return spec
    if isinstance(index, PartitionedMetricIndex):
        return {"kind": "partitioned-metric",
                "leaf_capacity": index.leaf_capacity,
                "partition_rows": index.partition_rows,
                "workers": index.workers}
    if isinstance(index, MetricIndex):
        return {"kind": "metric", "leaf_capacity": index.leaf_capacity}
    raise StorageError(
        f"indexes of type {type(index).__name__} have no durable spec")


def _empty_kindex(spec: dict[str, Any],
                  page_store: PageStore | None = None) -> KIndex:
    """An empty k-index of the configuration a spec (or a serialized
    document, which embeds one) names."""
    options = {"tree_kind": spec["tree_kind"], "max_entries": spec["max_entries"],
               "page_store": page_store}
    if spec["kind"] == "partitioned-kindex":
        return PartitionedIndex(_restore_extractor(spec["extractor"]), **options,
                                partition_rows=spec["partition_rows"],
                                workers=spec["workers"])
    return KIndex(_restore_extractor(spec["extractor"]), **options)


def build_index_from_spec(spec: dict[str, Any], objects: Sequence[Any],
                          distance: Callable[[Any, Any], float] | None) -> Any:
    """Cold-build an index per a WAL spec from the relation's objects."""
    kind = spec.get("kind")
    if kind == "kindex" or kind == "partitioned-kindex":
        index = _empty_kindex(spec)
        index.extend(objects)
        return index
    if kind == "metric":
        if distance is None:
            raise StorageError(
                "rebuilding a metric index needs the relation's provider")
        index = MetricIndex(distance, leaf_capacity=spec["leaf_capacity"])
        index.extend(objects)
        return index
    if kind == "partitioned-metric":
        if distance is None:
            raise StorageError(
                "rebuilding a metric index needs the relation's provider")
        index = PartitionedMetricIndex(
            distance, leaf_capacity=spec["leaf_capacity"],
            partition_rows=spec["partition_rows"], workers=spec["workers"])
        index.extend(objects)
        return index
    raise StorageError(f"unknown index spec kind {kind!r}")
