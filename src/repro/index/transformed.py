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
* :func:`transformed_nearest_neighbors` is the analogous best-first
  nearest-neighbour search (MINDIST pruning on transformed rectangles);
* :func:`transformed_join` pairs up entries of two indexes (or one index with
  itself) whose transformed rectangles intersect — the spatial-join building
  block behind the all-pairs experiments.

Callers working in spaces with wrap-around dimensions (the polar
representation's phase angles) pass the range search and the join a
``periodic_dims`` mask so those dimensions are intersected modulo ``2*pi``.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from typing import Any

import numpy as np

from ..core.transformations import RealLinearTransformation
from .geometry import Rect, mindist, rects_overlap
from .rtree import RTree

__all__ = [
    "materialize_transformed_tree",
    "transformed_range_search",
    "transformed_nearest_neighbors",
    "transformed_nearest_neighbors_iter",
    "transformed_join",
]

def _transform_rect(rect: Rect, transformation: RealLinearTransformation | None) -> Rect:
    if transformation is None:
        return rect
    low, high = transformation.apply_bounds(rect.low, rect.high)
    return Rect(low, high)


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
            new_rect = _transform_rect(entry.rect, transformation)
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


def transformed_nearest_neighbors_iter(tree: RTree, point: np.ndarray,
                                        transformation: RealLinearTransformation | None = None,
                                        distance_to_rect: Callable[[np.ndarray, Rect], float]
                                        | None = None):
    """Yield ``(filter_distance, record)`` pairs in ascending filter distance.

    This is the incremental form of the branch-and-bound search: callers that
    need exact nearest neighbours after postprocessing can keep pulling
    candidates until the next yielded lower bound exceeds their current k-th
    exact distance, at which point the exact answer is guaranteed.

    ``distance_to_rect`` overrides the lower-bound metric (default: Euclidean
    MINDIST); the polar feature space substitutes its annular-sector bound so
    that yielded values remain valid lower bounds on true distances.
    """
    point = np.asarray(point, dtype=np.float64).reshape(-1)
    if distance_to_rect is None:
        distance_to_rect = mindist
    counter = itertools.count()
    heap: list[tuple[float, int, bool, Any]] = [(0.0, next(counter), False, tree.root_id)]
    while heap:
        distance, _, is_record, payload = heapq.heappop(heap)
        if is_record:
            yield distance, payload
            continue
        node = tree.visit(payload)
        for entry in node.entries:
            image = _transform_rect(entry.rect, transformation)
            d = distance_to_rect(point, image)
            if node.is_leaf:
                heapq.heappush(heap, (d, next(counter), True, entry.record))
            else:
                heapq.heappush(heap, (d, next(counter), False, entry.child_id))


def transformed_nearest_neighbors(tree: RTree, point: np.ndarray, k: int = 1,
                                  transformation: RealLinearTransformation | None = None
                                  ) -> list[tuple[float, Any]]:
    """Best-first k-nearest-neighbour search under a transformation.

    Distances are measured from ``point`` to the *transformed* rectangles, so
    the result is the k nearest records of the transformed data set.  Returns
    ``(distance, record)`` pairs in ascending distance order; for leaf
    entries the distance is to the transformed data rectangle (exact for
    point data).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    point = np.asarray(point, dtype=np.float64).reshape(-1)
    counter = itertools.count()
    heap: list[tuple[float, int, bool, Any]] = [(0.0, next(counter), False, tree.root_id)]
    results: list[tuple[float, Any]] = []
    while heap:
        distance, _, is_record, payload = heapq.heappop(heap)
        if len(results) >= k and distance > results[-1][0]:
            break
        if is_record:
            results.append((distance, payload))
            results.sort(key=lambda pair: pair[0])
            results = results[:k]
            continue
        node = tree.visit(payload)
        for entry in node.entries:
            image = _transform_rect(entry.rect, transformation)
            d = mindist(point, image)
            if node.is_leaf:
                heapq.heappush(heap, (d, next(counter), True, entry.record))
            else:
                heapq.heappush(heap, (d, next(counter), False, entry.child_id))
    return results


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
