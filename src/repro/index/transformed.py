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
  blocked best-first kernel, :meth:`~repro.index.rtree.PackedRTree.nearest_search`).

Every function takes a :class:`~repro.index.rtree.PackedRTree` or a grower
(:class:`~repro.index.rtree.RTree`), which is probed through its packed form.
Callers working in spaces with wrap-around dimensions (the polar
representation's phase angles) pass the range search a
``periodic_dims`` mask so those dimensions are intersected modulo ``2*pi``.
"""

from __future__ import annotations

from functools import partial
from typing import Any

import numpy as np

from ..core.transformations import RealLinearTransformation
from .geometry import Rect, mindist_batch
from .rtree import PackedRTree, RTree

__all__ = [
    "materialize_transformed_tree",
    "transformed_range_search",
    "transformed_nearest_neighbors",
]


def materialize_transformed_tree(tree: PackedRTree | RTree,
                                 transformation: RealLinearTransformation) -> PackedRTree:
    """Algorithm 1: a new tree whose rectangles are ``T`` applied to the
    original's, preserving the tree structure node for node.

    The returned tree has the same fan-out and the same parent/child shape as
    the input (it is *not* re-built), so search performance over it is the
    same as searching the original under the on-the-fly transformation.
    """
    return (tree.packed() if isinstance(tree, RTree) else tree).transformed(transformation)


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
