"""Searching an R-tree *under a transformation* (Algorithms 1 and 2).

Given an index ``I`` built over a data set ``D`` and a safe transformation
``T``, an equivalent index for ``T(D)`` can be obtained by applying ``T`` to
every bounding rectangle and every data point of ``I`` — and, crucially, this
can be done lazily while searching, so one physical index serves every safe
transformation with no extra storage:

* :func:`materialize_transformed_tree` builds the transformed index
  explicitly (Algorithm 1; :meth:`~repro.index.rtree.PackedRTree.transformed`)
  — mainly useful for testing and for callers that will reuse the
  transformed index many times;
* :func:`transformed_range_search` descends the original index level by
  level, transforming each level's rectangles on the fly and keeping those
  that intersect the query window (Algorithm 2; a thin call into the tree's
  frontier kernel, :meth:`~repro.index.rtree.PackedRTree.window_search`);
* :func:`transformed_nearest_neighbors` is the analogous nearest-neighbour
  search (MINDIST pruning on the image rectangles; a thin call into the
  blocked best-first kernel, :func:`~repro.index.rtree.nearest_search`);
* :func:`transformed_join` pairs up entries of two indexes (or one index with
  itself) whose transformed rectangles intersect — the spatial-join building
  block behind the all-pairs experiments.

Every function takes a :class:`~repro.index.rtree.PackedRTree` or a grower
(:class:`~repro.index.rtree.RTree`), which is probed through its packed form.
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
from .rtree import PackedRTree, RTree

__all__ = [
    "materialize_transformed_tree",
    "transformed_range_search",
    "transformed_nearest_neighbors",
    "transformed_join",
]


def _packed(tree: PackedRTree | RTree) -> PackedRTree:
    return tree.packed() if isinstance(tree, RTree) else tree


def materialize_transformed_tree(tree: PackedRTree | RTree,
                                 transformation: RealLinearTransformation) -> PackedRTree:
    """Algorithm 1: a new tree whose rectangles are ``T`` applied to the
    original's, preserving the tree structure node for node.

    The returned tree has the same fan-out and the same parent/child shape as
    the input (it is *not* re-built), so search performance over it is the
    same as searching the original under the on-the-fly transformation.
    """
    return _packed(tree).transformed(transformation)


def transformed_range_search(tree: PackedRTree | RTree, window: Rect,
                             transformation: RealLinearTransformation | None = None,
                             periodic_dims: np.ndarray | None = None) -> list[Any]:
    """Algorithm 2: records whose transformed rectangle intersects ``window``.

    ``transformation`` is applied to the rectangles of every level visited;
    ``None`` degenerates to a plain window query.  ``periodic_dims`` marks
    wrap-around dimensions, intersected modulo ``2*pi``.
    """
    return tree.window_search(window.low[None, :], window.high[None, :],
                              transformation, periodic_dims)[0].tolist()


def transformed_nearest_neighbors(tree: PackedRTree | RTree, point: np.ndarray,
                                  k: int = 1,
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


def transformed_join(left: PackedRTree | RTree, right: PackedRTree | RTree, *,
                     left_transformation: RealLinearTransformation | None = None,
                     right_transformation: RealLinearTransformation | None = None,
                     expand: float = 0.0,
                     periodic_dims: np.ndarray | None = None
                     ) -> list[tuple[Any, Any]]:
    """Spatial join: record pairs whose transformed rectangles come within
    ``expand`` of each other.

    The join descends both trees simultaneously, pruning subtree pairs whose
    transformed bounding rectangles (grown by ``expand``) do not intersect;
    each node pair's entries are tested against each other in one call, and a
    leaf facing an internal node waits while the other side descends.
    When ``left is right`` the join is a self-join and each unordered pair is
    still reported twice (once in each order), matching the accounting of the
    original experiment's method (d).
    """
    grow = max(expand, 0.0)
    left, right = _packed(left), _packed(right)

    def open_node(tree: PackedRTree, depth: int, slot: int, transformation
                  ) -> tuple[bool, list[Any], np.ndarray, np.ndarray]:
        level = tree.levels[depth]
        tree._charge(level, slot)  # noqa: SLF001
        rows = slice(level.starts[slot], level.starts[slot] + level.counts[slot])
        lows, highs = level.lows[rows], level.highs[rows]
        if transformation is not None:
            lows, highs = transformation.apply_bounds(lows, highs)
        return level.is_leaf, level.payloads[rows].tolist(), lows - grow, highs + grow

    results: list[tuple[Any, Any]] = []
    stack = [(0, 0, 0, 0)]  # (left depth, left slot, right depth, right slot)
    # A waiting leaf is paired with a child of the other side once per entry
    # of its own that overlaps the child's rectangle: open each pair once.
    opened: set[tuple[int, int, int, int]] = set()
    while stack:
        pair = left_depth, left_slot, right_depth, right_slot = stack.pop()
        if pair in opened:
            continue
        opened.add(pair)
        left_leaf, left_payloads, left_lows, left_highs = open_node(
            left, left_depth, left_slot, left_transformation)
        right_leaf, right_payloads, right_lows, right_highs = open_node(
            right, right_depth, right_slot, right_transformation)
        hits = rects_overlap(left_lows[:, None, :], left_highs[:, None, :],
                             right_lows[None, :, :], right_highs[None, :, :],
                             periodic_dims)
        for left_index, right_index in np.argwhere(hits).tolist():
            left_payload = left_payloads[left_index]
            right_payload = right_payloads[right_index]
            if left_leaf and right_leaf:
                results.append((left_payload, right_payload))
            elif left_leaf:
                stack.append((left_depth, left_slot, right_depth + 1, right_payload))
            elif right_leaf:
                stack.append((left_depth + 1, left_payload, right_depth, right_slot))
            else:
                stack.append((left_depth + 1, left_payload, right_depth + 1, right_payload))
    return results
