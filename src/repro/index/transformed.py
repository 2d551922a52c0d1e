"""Searching an R-tree *under a transformation* (Algorithms 1 and 2).

Given an index ``I`` built over a data set ``D`` and a safe transformation
``T``, an equivalent index for ``T(D)`` can be obtained by applying ``T`` to
every bounding rectangle and every data point of ``I`` — and, crucially, this
can be done lazily while searching, so one physical index serves every safe
transformation with no extra storage:

* :func:`materialize_transformed_tree` builds the transformed index
  explicitly (Algorithm 1) — mainly useful for testing and for callers that
  will reuse the transformed index many times;
* :func:`transformed_range_search` descends the original index level by
  level, transforming each level's rectangles on the fly and keeping those
  that intersect the query window (Algorithm 2; a thin call into the tree's
  frontier kernel, :meth:`~repro.index.rtree.RTree.window_search`);
* :func:`transformed_nearest_neighbors` is the analogous nearest-neighbour
  search (MINDIST pruning on the image rectangles; a thin call into the
  blocked best-first kernel, :func:`~repro.index.rtree.nearest_search`);
* :func:`transformed_join` pairs up entries of two indexes (or one index with
  itself) whose transformed rectangles intersect — the spatial-join building
  block behind the all-pairs experiments.

Callers working in spaces with wrap-around dimensions (the polar
representation's phase angles) pass the range search and the join a
``periodic_dims`` mask so those dimensions are intersected modulo ``2*pi``.
"""

from __future__ import annotations

from functools import partial
from typing import Any

import numpy as np

from ..core.transformations import RealLinearTransformation
from .geometry import Rect, mindist_batch, rects_overlap
from .rtree import RTree

__all__ = [
    "materialize_transformed_tree",
    "transformed_range_search",
    "transformed_nearest_neighbors",
    "transformed_join",
]


def materialize_transformed_tree(tree: RTree,
                                 transformation: RealLinearTransformation) -> RTree:
    """Algorithm 1: build a new R-tree whose rectangles are ``T`` applied to
    the original's, preserving the tree structure node for node.

    The returned tree has the same fan-out and the same parent/child shape as
    the input (it is *not* re-inserted), so search performance over it is the
    same as searching the original under the on-the-fly transformation.
    """
    clone = RTree(dimension=tree.dimension, max_entries=tree.max_entries,
                  min_entries=tree.min_entries, split=tree.split_policy)
    # Rebuild nodes with the same ids/topology, transforming every rectangle.
    clone._nodes.clear()  # noqa: SLF001 - intentional structural clone
    clone._size = len(tree)  # noqa: SLF001
    for node_id, node in tree._nodes.items():  # noqa: SLF001
        new_entries = []
        for entry in node.entries:
            new_rect = Rect(*transformation.apply_bounds(entry.rect.low, entry.rect.high))
            new_entries.append(type(entry)(rect=new_rect, child_id=entry.child_id,
                                           record=entry.record))
        clone._nodes[node_id] = type(node)(node_id=node_id, is_leaf=node.is_leaf,  # noqa: SLF001
                                           entries=new_entries, parent_id=node.parent_id)
    clone.root_id = tree.root_id
    return clone


def transformed_range_search(tree: RTree, window: Rect,
                             transformation: RealLinearTransformation | None = None,
                             periodic_dims: np.ndarray | None = None) -> list[Any]:
    """Algorithm 2: records whose transformed rectangle intersects ``window``.

    ``transformation`` is applied to the rectangles of every level visited;
    ``None`` degenerates to a plain window query.  ``periodic_dims`` marks
    wrap-around dimensions, intersected modulo ``2*pi``.
    """
    return tree.window_search(window.low[None, :], window.high[None, :],
                              transformation, periodic_dims)[0].tolist()


def transformed_nearest_neighbors(tree: RTree, point: np.ndarray, k: int = 1,
                                  transformation: RealLinearTransformation | None = None
                                  ) -> list[tuple[float, Any]]:
    """The ``k`` nearest records of the transformed data set.

    Distances are measured from ``point`` to the *transformed* rectangles
    (exact for point data).  Returns ``(distance, record)`` pairs in
    ascending distance order, integer records at equal distance by
    ascending record.
    """
    point = np.asarray(point, dtype=np.float64).reshape(-1)
    distances, records = tree.nearest_search(k, partial(mindist_batch, point),
                                             transformation=transformation)
    return list(zip(distances[:k].tolist(), records[:k].tolist()))


def transformed_join(left: RTree, right: RTree, *,
                     left_transformation: RealLinearTransformation | None = None,
                     right_transformation: RealLinearTransformation | None = None,
                     expand: float = 0.0,
                     periodic_dims: np.ndarray | None = None
                     ) -> list[tuple[Any, Any]]:
    """Spatial join: record pairs whose transformed rectangles come within
    ``expand`` of each other.

    The join descends both trees simultaneously, pruning subtree pairs whose
    transformed bounding rectangles (grown by ``expand``) do not intersect;
    each node pair's entries are tested against each other in one call.
    When ``left is right`` the join is a self-join and each unordered pair is
    still reported twice (once in each order), matching the accounting of the
    original experiment's method (d).
    """
    grow = max(expand, 0.0)

    def corners(tree: RTree, node, transformation) -> tuple[np.ndarray, np.ndarray]:
        lows, highs = tree._entry_arrays(node)  # noqa: SLF001
        if transformation is not None:
            lows, highs = transformation.apply_bounds(lows, highs)
        return lows - grow, highs + grow

    results: list[tuple[Any, Any]] = []
    stack = [(left.root_id, right.root_id)]
    visited_pairs: set[tuple[int, int]] = set()
    while stack:
        left_id, right_id = stack.pop()
        if (left_id, right_id) in visited_pairs:
            continue
        visited_pairs.add((left_id, right_id))
        left_node = left.visit(left_id)
        right_node = right.visit(right_id)
        left_lows, left_highs = corners(left, left_node, left_transformation)
        right_lows, right_highs = corners(right, right_node, right_transformation)
        hits = rects_overlap(left_lows[:, None, :], left_highs[:, None, :],
                             right_lows[None, :, :], right_highs[None, :, :],
                             periodic_dims)
        for left_index, right_index in np.argwhere(hits).tolist():
            left_entry = left_node.entries[left_index]
            right_entry = right_node.entries[right_index]
            if left_node.is_leaf and right_node.is_leaf:
                results.append((left_entry.record, right_entry.record))
            elif left_node.is_leaf:
                stack.append((left_id, right_entry.child_id))
            elif right_node.is_leaf:
                stack.append((left_entry.child_id, right_id))
            else:
                stack.append((left_entry.child_id, right_entry.child_id))
    return results
