"""Partitioned index facades: per-partition sub-indexes, one index surface.

Partition-parallel execution wants the index layer shaped like the storage
layer: fixed-size row partitions, each with its own independently bulk-
loaded structure, behind a facade that looks exactly like the monolithic
index to everything above it.

* :class:`PartitionedIndex` is a drop-in :class:`~repro.index.kindex.KIndex`
  whose "tree" is a :class:`_PartitionForest` — one STR-packed
  :class:`~repro.index.rtree.PackedRTree` per ``partition_rows`` block of
  record ids.  The **whole** KIndex query
  surface (three-phase range search, nearest neighbours, batched
  traversals, gathered verification, counters, the unindexed tail) is
  inherited; window searches fan out across sub-trees inside the forest,
  and a nearest-neighbour probe is one best-first search seeded with every
  sub-tree's root.  Appended rows wait in the tail until they complete a
  ``partition_rows`` block, which is then packed into the next sub-tree —
  no sub-tree is ever touched again once built.  One shared
  :class:`~repro.storage.columnar.ColumnarRecordStore` keeps record ids
  global and dense, so ``Database.columnar_store`` adoption, ``len()``, and
  ``state_token`` semantics are unchanged.
* :class:`PartitionedMetricIndex` composes per-partition vantage-point
  trees (:class:`~repro.index.metric.MetricIndex`) the same way for metric
  domains.

Merging is deterministic and independent of the worker count, so answers
are identical at any ``workers`` setting:

* range candidates concatenate in partition order — ascending record id,
  since partitions are id blocks — and flow through the inherited gathered
  verification (final order: stable sort by exact distance);
* a nearest-neighbour probe keeps the sub-trees' pending nodes in one pool
  ordered by filter lower bound, so the kernel's stopping rule sees the
  whole forest at once, and answers are ordered by ``(exact distance,
  record id)`` — no per-partition stream, nothing to merge;
* work counters sum over partitions.  Each sub-structure's counters are
  touched by exactly one worker task, so sums taken after the fan-out
  joins are exact — no shared mutable counter is raced.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..core.parallel import parallel_map, resolve_workers
from ..core.transformations import RealLinearTransformation
from ..storage.partition import DEFAULT_PARTITION_ROWS
from ..timeseries.features import SeriesFeatureExtractor
from .kindex import KIndex, NearestNeighborResult, RangeQueryResult
from .metric import MetricIndex
from .rtree import NodeAccessStats, PackedRTree, nearest_search

__all__ = ["PartitionedIndex", "PartitionedMetricIndex"]


class _PartitionForest:
    """A tuple of per-partition packed R-trees wearing the single-tree
    interface.

    Sub-trees hold consecutive blocks of record ids, in order.  The pieces of
    the :class:`~repro.index.rtree.PackedRTree` surface the
    :class:`~repro.index.kindex.KIndex` relies on — ``window_search``,
    ``nearest_search``, ``reset_stats``, ``access_stats``,
    ``structure_summary``, ``len`` — aggregate over the sub-trees.  A forest
    never changes: sealing a block
    makes a new forest of the old sub-trees plus the new one, so a probe
    that read ``index.tree`` once sees one consistent set of packed rows.
    """

    def __init__(self, trees: Sequence[PackedRTree], workers: int) -> None:
        self.trees = tuple(trees)
        self.workers = workers
        self._size = sum(len(tree) for tree in self.trees)

    def window_search(self, window_lows: np.ndarray, window_highs: np.ndarray,
                      transformation: RealLinearTransformation | None = None,
                      periodic_dims: np.ndarray | None = None) -> list[np.ndarray]:
        """:meth:`PackedRTree.window_search` fanned across sub-trees, merged per
        window in partition order (deterministic at any worker count)."""
        per_tree = parallel_map(
            lambda tree: tree.window_search(window_lows, window_highs,
                                            transformation, periodic_dims),
            [(tree,) for tree in self.trees], workers=self.workers)
        if not per_tree:
            return [np.zeros(0, dtype=np.intp) for _ in window_lows]
        return [np.concatenate(candidates) for candidates in zip(*per_tree)]

    def nearest_search(self, k: int,
                       lower_bound: Callable[[np.ndarray, np.ndarray], np.ndarray],
                       exact: Callable[[np.ndarray], np.ndarray] | None = None,
                       transformation: RealLinearTransformation | None = None,
                       seeds: tuple[np.ndarray, np.ndarray] | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
        """:func:`~repro.index.rtree.nearest_search` seeded with every
        sub-tree's root: one pending pool, one stopping bound."""
        return nearest_search(self.trees, k, lower_bound, exact, transformation,
                              seeds)

    def reset_stats(self) -> None:
        for tree in self.trees:
            tree.reset_stats()

    @property
    def access_stats(self) -> NodeAccessStats:
        return NodeAccessStats(
            internal=sum(tree.access_stats.internal for tree in self.trees),
            leaf=sum(tree.access_stats.leaf for tree in self.trees))

    def __len__(self) -> int:
        return self._size

    def structure_summary(self) -> dict[str, float]:
        """Forest-wide structural facts with the monolithic summary's keys.

        Counts sum; the height is the tallest sub-tree (traversals descend
        sub-trees independently); fanouts and radii are node-count-weighted
        means — the same "expected nodes a query opens" semantics the cost
        model prices a single tree with.
        """
        summaries = [tree.structure_summary() for tree in self.trees]
        if not summaries:
            return PackedRTree.bulk_load(np.zeros((0, 1)), ()).structure_summary()

        def total(key: str) -> float:
            return sum(summary[key] for summary in summaries)

        def weighted(key: str, weight_key: str) -> float:
            weight = total(weight_key)
            if not weight:
                return 0.0
            return sum(summary[key] * summary[weight_key]
                       for summary in summaries) / weight

        return {
            "height": max(summary["height"] for summary in summaries),
            "leaf_count": total("leaf_count"),
            "internal_count": total("internal_count"),
            "node_count": total("node_count"),
            "avg_leaf_fanout": weighted("avg_leaf_fanout", "leaf_count"),
            "avg_internal_fanout": weighted("avg_internal_fanout",
                                            "internal_count"),
            "avg_leaf_radius": weighted("avg_leaf_radius", "leaf_count"),
            "avg_internal_radius": weighted("avg_internal_radius",
                                            "internal_count"),
        }

    def __repr__(self) -> str:
        return f"_PartitionForest(partitions={len(self.trees)}, size={len(self)})"


class PartitionedIndex(KIndex):
    """A :class:`KIndex` over per-partition STR-bulk-loaded sub-trees.

    Behaves exactly like a ``KIndex`` (same query surface, same store and
    counter semantics) while keeping one independently built R-tree per
    ``partition_rows`` block of records and fanning traversals across
    ``workers`` threads.  Where the monolithic index seals its tail by
    re-packing everything, this one packs each completed block into the
    next sub-tree, once; the rows of the last, incomplete block are the
    tail, so it never holds ``partition_rows`` rows.

    Parameters (beyond :class:`KIndex`'s)
    -------------------------------------
    partition_rows:
        Records per partition sub-tree.
    workers:
        Worker threads for fan-out (``None``/1 serial, 0 = all cores).
        Answers are identical at any setting.
    """

    def __init__(self, extractor: SeriesFeatureExtractor | None = None, *,
                 max_entries: int = 8,
                 partition_rows: int = DEFAULT_PARTITION_ROWS,
                 workers: int | None = None) -> None:
        super().__init__(extractor, max_entries=max_entries)
        self.partition_rows = max(1, int(partition_rows))
        self.workers = resolve_workers(workers)
        self.tree = _PartitionForest((), self.workers)

    def _seal(self) -> None:
        """STR-pack every completed block beyond the forest into its own
        sub-tree (in parallel) and publish the grown forest."""
        forest, rows = self.tree, self.partition_rows
        starts = range(len(forest), len(self.store) - rows + 1, rows)
        if starts:
            self.tree = _PartitionForest(
                forest.trees + tuple(parallel_map(
                    self._packed_tree, [(start, start + rows) for start in starts],
                    workers=self.workers)),
                self.workers)

    def __repr__(self) -> str:
        return (f"PartitionedIndex(size={len(self)}, tail_rows={self.tail_rows}, "
                f"partitions={len(self.tree.trees)}, "
                f"partition_rows={self.partition_rows}, workers={self.workers}, "
                f"k={self.extractor.num_coefficients})")


class PartitionedMetricIndex:
    """Per-partition vantage-point trees behind the ``MetricIndex`` surface.

    Objects land in fixed-size partitions in insertion order, each with its
    own independently (lazily) built VP-tree.  Queries fan across the
    partitions on the shared worker pool and merge deterministically, so
    answers are identical at any worker count; per-query counters sum the
    partitions' exact-distance and node-access work, preserving the "exact
    distance computations" currency.
    """

    #: Same planner marker as :class:`MetricIndex`.
    is_metric = True

    def __init__(self, distance: Callable[[Any, Any], float], *,
                 leaf_capacity: int = 8,
                 partition_rows: int = DEFAULT_PARTITION_ROWS,
                 workers: int | None = None) -> None:
        self.distance = distance
        self.leaf_capacity = max(1, int(leaf_capacity))
        self.partition_rows = max(1, int(partition_rows))
        self.workers = resolve_workers(workers)
        self._partitions: list[MetricIndex] = []
        self._count = 0

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def insert(self, obj: Any) -> None:
        """Add one object to the tail partition (new ones open as needed)."""
        if self._count % self.partition_rows == 0:
            self._partitions.append(
                MetricIndex(self.distance, leaf_capacity=self.leaf_capacity))
        self._partitions[-1].insert(obj)
        self._count += 1

    def extend(self, objects: Iterable[Any]) -> None:
        """Add every object of a collection."""
        for obj in objects:
            self.insert(obj)

    def __len__(self) -> int:
        return self._count

    def structure_summary(self) -> dict[str, float]:
        """Aggregated structural facts (monolithic keys: counts sum, the
        height is the tallest partition)."""
        summaries = [partition.structure_summary()
                     for partition in self._partitions]
        if not summaries:
            return {"node_count": 0.0, "leaf_count": 0.0, "height": 0.0,
                    "leaf_capacity": float(self.leaf_capacity)}
        return {
            "node_count": sum(summary["node_count"] for summary in summaries),
            "leaf_count": sum(summary["leaf_count"] for summary in summaries),
            "height": max(summary["height"] for summary in summaries),
            "leaf_capacity": float(self.leaf_capacity),
        }

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def range_query(self, query: Any, epsilon: float) -> RangeQueryResult:
        """All objects within ``epsilon`` of ``query`` (exact)."""
        return self.range_query_batch([query], [epsilon])[0]

    def range_query_batch(self, queries: Sequence[Any],
                          epsilons: Sequence[float]) -> list[RangeQueryResult]:
        """Batched range search fanned across partitions.

        Every partition runs the shared-traversal batch search on its own
        VP-tree; per-query answers concatenate in partition order and are
        stable-sorted by distance (the monolithic order), and counters sum.
        """
        queries = list(queries)
        epsilons = list(epsilons)
        if len(queries) != len(epsilons):
            raise ValueError("one epsilon is required per query")
        started = time.perf_counter()
        per_partition = parallel_map(
            lambda partition: partition.range_query_batch(queries, epsilons),
            [(partition,) for partition in self._partitions],
            workers=self.workers)
        results = [RangeQueryResult() for _ in queries]
        for partition_results in per_partition:
            for merged, part in zip(results, partition_results):
                merged.answers.extend(part.answers)
                merged.statistics.node_accesses += part.statistics.node_accesses
                merged.statistics.candidates += part.statistics.candidates
                merged.statistics.postprocessed += part.statistics.postprocessed
        elapsed = time.perf_counter() - started
        for result in results:
            result.answers.sort(key=lambda pair: pair[1])
            result.statistics.record_fetches = result.statistics.postprocessed
            result.statistics.elapsed_seconds = elapsed / max(1, len(queries))
        return results

    def nearest_neighbors(self, query: Any, k: int = 1) -> NearestNeighborResult:
        """The global ``k`` nearest: union of per-partition top-``k`` lists.

        Every global answer is in its partition's top-``k``, so merging the
        per-partition results loses nothing; ties at the cut sort by
        (distance, partition, rank within partition) — deterministic and
        worker-count independent.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        started = time.perf_counter()
        per_partition = parallel_map(
            lambda partition: partition.nearest_neighbors(query, k),
            [(partition,) for partition in self._partitions],
            workers=self.workers)
        result = NearestNeighborResult()
        ranked: list[tuple[float, int, int, Any]] = []
        for position, part in enumerate(per_partition):
            result.statistics.node_accesses += part.statistics.node_accesses
            result.statistics.candidates += part.statistics.candidates
            result.statistics.postprocessed += part.statistics.postprocessed
            for rank, (obj, distance) in enumerate(part.answers):
                ranked.append((distance, position, rank, obj))
        ranked.sort(key=lambda entry: entry[:3])
        result.answers = [(obj, distance)
                          for distance, _, _, obj in ranked[:k]]
        result.statistics.record_fetches = result.statistics.postprocessed
        result.statistics.elapsed_seconds = time.perf_counter() - started
        return result

    def __repr__(self) -> str:
        return (f"PartitionedMetricIndex(size={len(self)}, "
                f"partitions={len(self._partitions)}, "
                f"partition_rows={self.partition_rows}, workers={self.workers})")
