"""A pivot-based metric index (vantage-point tree) for non-spatial domains.

The R-tree family indexes objects through feature *points*, which assumes the
domain embeds in a vector space.  Domains such as strings compare through a
metric (the weighted edit distance) with no useful low-dimensional embedding;
there the classic route to sublinear search is **triangle-inequality
pruning**: having computed ``d(q, p)`` for a pivot ``p``, every object ``o``
with a known ``d(p, o)`` satisfies ``d(q, o) >= |d(q, p) - d(p, o)|``, so
whole subtrees (and individual leaf entries) are dismissed without computing
their exact distances.

:class:`MetricIndex` is a vantage-point tree:

* internal nodes hold a pivot and partition the remaining objects by the
  median distance to it, recording the exact distance interval of each side
  (tighter than the median split alone);
* leaves hold a pivot plus a small bucket of objects with *precomputed*
  distances to the leaf pivot, so bucket entries are pruned by the triangle
  inequality before any exact distance is computed.

The index is domain agnostic — it only calls the injected ``distance`` — and
plugs into the existing catalog machinery: register it with
:meth:`~repro.core.database.Database.register_index`, and ``len(index)``
feeds :meth:`~repro.core.database.Database.state_token` so query caches
invalidate on mutation.  Mutation is handled by marking the tree dirty and
rebulking on the next query (bulk building is ``O(n log n)`` distance
computations, the same regime as STR bulk loading for the R-trees).

Work accounting: ``statistics.postprocessed`` (and ``candidates``) counts
**exact distance computations** — the currency of metric search and what the
benchmark compares against the ``len(relation)`` a brute-force scan spends.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .kindex import NearestNeighborResult, RangeQueryResult

__all__ = ["MetricIndex"]


class _Leaf:
    """Pivot plus a bucket of objects with precomputed pivot distances.

    The bucket's distances-to-pivot live in one contiguous float array, so
    triangle-inequality screening of a whole bucket is a single vectorised
    comparison — only the unpruned entries pay an exact distance call.
    """

    __slots__ = ("pivot", "objects", "to_pivot")

    def __init__(self, pivot: Any, objects: list[Any],
                 to_pivot: np.ndarray) -> None:
        self.pivot = pivot
        self.objects = objects
        self.to_pivot = to_pivot


class _Inner:
    """Pivot with inside/outside children and their exact distance intervals."""

    __slots__ = ("pivot", "inside", "outside", "inside_min", "inside_max",
                 "outside_min", "outside_max")

    def __init__(self, pivot: Any, inside: "_Inner | _Leaf | None",
                 outside: "_Inner | _Leaf | None",
                 inside_interval: tuple[float, float],
                 outside_interval: tuple[float, float]) -> None:
        self.pivot = pivot
        self.inside = inside
        self.outside = outside
        self.inside_min, self.inside_max = inside_interval
        self.outside_min, self.outside_max = outside_interval


class MetricIndex:
    """Vantage-point tree over an arbitrary metric distance.

    Parameters
    ----------
    distance:
        The exact metric ``(x, y) -> float``.  Triangle-inequality pruning is
        only admissible for a true metric; with a non-metric the index may
        produce false dismissals.
    leaf_capacity:
        Maximum bucket size of a leaf (the pivot is stored on top of it).
    """

    def __init__(self, distance: Callable[[Any, Any], float], *,
                 leaf_capacity: int = 8) -> None:
        self.distance = distance
        self.leaf_capacity = max(1, int(leaf_capacity))
        self._objects: list[Any] = []
        self._root: _Inner | _Leaf | None = None
        self._dirty = False

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def insert(self, obj: Any) -> None:
        """Add one object; the tree is rebuilt lazily on the next query."""
        self._objects.append(obj)
        self._dirty = True

    def extend(self, objects: Iterable[Any]) -> None:
        """Add every object of a collection."""
        for obj in objects:
            self.insert(obj)

    def __len__(self) -> int:
        return len(self._objects)

    def _ensure_built(self) -> None:
        if self._dirty or (self._root is None and self._objects):
            self._root = self._build(list(self._objects))
            self._dirty = False

    def structure_summary(self) -> dict[str, float]:
        """Structural facts for the cost model (building the tree if needed —
        the same work the first query would do anyway)."""
        self._ensure_built()

        def walk(node) -> tuple[int, int, int]:
            """(node count, leaf count, height) of a subtree."""
            if node is None:
                return 0, 0, 0
            if isinstance(node, _Leaf):
                return 1, 1, 1
            nodes_in, leaves_in, height_in = walk(node.inside)
            nodes_out, leaves_out, height_out = walk(node.outside)
            return (1 + nodes_in + nodes_out, leaves_in + leaves_out,
                    1 + max(height_in, height_out))

        node_count, leaf_count, height = walk(self._root)
        return {
            "node_count": float(node_count),
            "leaf_count": float(leaf_count),
            "height": float(height),
            "leaf_capacity": float(self.leaf_capacity),
        }

    def _build(self, objects: list[Any]) -> _Inner | _Leaf | None:
        if not objects:
            return None
        pivot, rest = objects[0], objects[1:]
        if len(rest) <= self.leaf_capacity:
            return _Leaf(pivot, list(rest),
                         np.array([float(self.distance(pivot, obj)) for obj in rest],
                                  dtype=np.float64))
        scored = sorted(((float(self.distance(pivot, obj)), position)
                         for position, obj in enumerate(rest)), key=lambda pair: pair[0])
        # Split by *rank*, not by the median value: integer-valued metrics
        # (edit distances) tie heavily, and a value split can degenerate to
        # linear depth.  Pruning uses the recorded per-side distance
        # intervals, so an arbitrary balanced partition stays admissible.
        half = len(scored) // 2
        inside, outside = scored[:half], scored[half:]

        def interval(side: list[tuple[float, int]]) -> tuple[float, float]:
            return (side[0][0], side[-1][0]) if side else (0.0, 0.0)

        return _Inner(pivot,
                      self._build([rest[position] for _, position in inside]),
                      self._build([rest[position] for _, position in outside]),
                      interval(inside), interval(outside))

    # ------------------------------------------------------------------
    # range search
    # ------------------------------------------------------------------
    def range_query(self, query: Any, epsilon: float) -> RangeQueryResult:
        """All objects within ``epsilon`` of ``query`` (exact, no false dismissals)."""
        results = self.range_query_batch([query], [epsilon])
        return results[0]

    def range_query_batch(self, queries: Sequence[Any],
                          epsilons: Sequence[float]) -> list[RangeQueryResult]:
        """Answer several range queries in one shared traversal.

        Each tree node is visited once for the set of queries still active at
        it; per-query statistics count the node accesses and exact distance
        computations attributable to that query, so the counters match a
        one-at-a-time traversal.
        """
        if len(queries) != len(epsilons):
            raise ValueError("one epsilon is required per query")
        for epsilon in epsilons:
            if not epsilon >= 0:  # NaN too
                raise ValueError("epsilon must be non-negative")
        self._ensure_built()
        results = [RangeQueryResult() for _ in queries]

        def visit(node: _Inner | _Leaf | None, active: list[int]) -> None:
            if node is None or not active:
                return
            pivot_distances: dict[int, float] = {}
            for i in active:
                stats = results[i].statistics
                stats.node_accesses += 1
                d = float(self.distance(queries[i], node.pivot))
                stats.candidates += 1
                stats.postprocessed += 1
                pivot_distances[i] = d
                if d <= epsilons[i]:
                    results[i].answers.append((node.pivot, d))
            if isinstance(node, _Leaf):
                for i in active:
                    # Triangle inequality over the whole bucket at once:
                    # |d(q, p) - d(p, o)| > epsilon implies d(q, o) > epsilon.
                    survivors = np.nonzero(
                        np.abs(pivot_distances[i] - node.to_pivot)
                        <= epsilons[i])[0]
                    stats = results[i].statistics
                    for position in survivors.tolist():
                        obj = node.objects[position]
                        d = float(self.distance(queries[i], obj))
                        stats.candidates += 1
                        stats.postprocessed += 1
                        if d <= epsilons[i]:
                            results[i].answers.append((obj, d))
                return
            visit(node.inside,
                  [i for i in active
                   if pivot_distances[i] - epsilons[i] <= node.inside_max
                   and pivot_distances[i] + epsilons[i] >= node.inside_min])
            visit(node.outside,
                  [i for i in active
                   if pivot_distances[i] - epsilons[i] <= node.outside_max
                   and pivot_distances[i] + epsilons[i] >= node.outside_min])

        visit(self._root, list(range(len(queries))))
        for result in results:
            result.answers.sort(key=lambda pair: pair[1])
            result.statistics.record_fetches = result.statistics.postprocessed
        return results

    # ------------------------------------------------------------------
    # nearest neighbours
    # ------------------------------------------------------------------
    def nearest_neighbors(self, query: Any, k: int = 1) -> NearestNeighborResult:
        """The ``k`` objects nearest to ``query``, by best-first search.

        Regions are expanded in order of their lower-bound distance to the
        query; the search stops when the next region's bound exceeds the
        current ``k``-th best exact distance.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        self._ensure_built()
        result = NearestNeighborResult()
        stats = result.statistics
        if self._root is None:
            return result
        # Max-heap (negated distances) of the best k found so far.
        best: list[tuple[float, int, Any]] = []
        tau = float("inf")
        counter = itertools.count()

        def consider(obj: Any, d: float) -> None:
            nonlocal tau
            heapq.heappush(best, (-d, next(counter), obj))
            if len(best) > k:
                heapq.heappop(best)
            if len(best) == k:
                tau = -best[0][0]

        frontier: list[tuple[float, int, Any]] = [(0.0, next(counter), self._root)]
        while frontier:
            bound, _, node = heapq.heappop(frontier)
            if bound > tau:
                break
            stats.node_accesses += 1
            d = float(self.distance(query, node.pivot))
            stats.candidates += 1
            stats.postprocessed += 1
            consider(node.pivot, d)
            if isinstance(node, _Leaf):
                # Rank bucket entries by their (vectorised) triangle lower
                # bound so the most promising are resolved first, shrinking
                # tau early; entries whose bound exceeds tau are never paid.
                lower_bounds = np.abs(d - node.to_pivot)
                for position in np.argsort(lower_bounds, kind="stable").tolist():
                    if lower_bounds[position] > tau:
                        break
                    exact = float(self.distance(query, node.objects[position]))
                    stats.candidates += 1
                    stats.postprocessed += 1
                    consider(node.objects[position], exact)
                continue
            for child, lower_edge, upper_edge in (
                    (node.inside, node.inside_min, node.inside_max),
                    (node.outside, node.outside_min, node.outside_max)):
                if child is None:
                    continue
                lower = max(0.0, d - upper_edge, lower_edge - d)
                if lower <= tau:
                    heapq.heappush(frontier, (lower, next(counter), child))
        result.answers = sorted(((obj, -negated) for negated, _, obj in best),
                                key=lambda pair: pair[1])
        stats.record_fetches = stats.postprocessed
        return result

    def __repr__(self) -> str:
        return (f"MetricIndex(size={len(self)}, leaf_capacity={self.leaf_capacity}, "
                f"distance={getattr(self.distance, '__name__', repr(self.distance))})")
