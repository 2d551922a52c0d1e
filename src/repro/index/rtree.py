"""The packed R-tree every probe runs on.

A :class:`PackedRTree` **is** the index: per level, the entry rectangles of
all nodes stacked node after node into contiguous corner arrays, immutable
once built.  It stores *records* (integer record ids, or any Python objects)
under axis-aligned rectangles — point data as degenerate rectangles — and is
built in one pass by the Sort-Tile-Recursive loader
(:meth:`PackedRTree.bulk_load`).  One level-synchronous *frontier kernel*
(:meth:`PackedRTree.window_search`) tests a whole level per numpy call and
carries the survivors down, for one window or a batch of windows alike; one
*blocked best-first kernel* (:meth:`PackedRTree.nearest_search`) opens the
nearest pending nodes a block at a time and verifies pending records in
blocks — both optionally under a transformation of the rectangles.

A probe does only the work that depends on its query.  The tree's image
under a map (:meth:`PackedRTree.transformed`, Algorithm 1) is built once and
kept with the (immutable) tree, so a probe under the map searches the image
as it is.  A point tree holds each leaf's corners once (``highs is lows``)
and its leaves are tested as points.  Each level keeps its corners, and the
angular centres and half-widths the periodic overlap test needs, in one
coordinate-major table derived on first use: a level is one gather and one
:func:`~repro.index.geometry.rects_overlap` call.  A single window is
broadcast, not repeated per entry.  A nearest-neighbour step keeps its
pending nodes in a heap, slices a node's entries out of its level, and bounds
them from the level's table of what the bound needs of them alone (a point
leaf's coordinates, a rectangle's sector), kept like the corner table.  A
probe returns the internal and leaf nodes it opened with its answer and
changes nothing on the tree, so concurrent readers of one tree each get
their own counts.

The dynamic trees the evaluation's figures were measured on are grown in
:mod:`repro.bench.growers` and handed over as a :class:`PackedRTree`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from ..core.errors import DimensionMismatchError, IndexError_
from ..core.spaces import RectangleBound
from ..core.transformations import RealLinearTransformation
from .geometry import (Rect, angular_dims, box_bound, corner_table, narrowed_windows,
                       rects_overlap)

__all__ = ["PackedRTree"]


def _min_entries(max_entries: int, min_entries: int | None = None) -> int:
    """A node's minimum fill ``m``: ``ceil(0.4 * M)`` unless given, and never
    more than ``M // 2`` (two minimal nodes must fit into one that splits)."""
    if min_entries is None:
        min_entries = math.ceil(0.4 * max_entries)
    return max(1, min(int(min_entries), max_entries // 2))


class _PackedLevel:
    """The nodes of one tree level, their entries stacked node after node.

    Node ``slot`` owns rows ``starts[slot]`` … ``starts[slot] + counts[slot]``
    of the corner and payload arrays.  An internal entry's payload is the
    slot of its child in the next level; a leaf entry's payload is its record.
    A level of points holds its corners once: ``highs is lows``.
    """

    def __init__(self, is_leaf: bool, counts: np.ndarray, lows: np.ndarray,
                 highs: np.ndarray, payloads: np.ndarray) -> None:
        self.is_leaf = is_leaf
        self.counts = counts                        #: (nodes,) entries per node
        self.starts = np.cumsum(counts) - counts    #: (nodes,) first row of each node
        self.lows = lows                            #: (entries, d) low corners
        self.highs = highs                          #: (entries, d) high corners
        self.payloads = payloads                    #: (entries,)
        self._table: tuple[Any, np.ndarray] | None = None  # see corners()
        self._tables: dict[Callable[..., np.ndarray], np.ndarray] = {}  # see table()
        self._nodes: tuple[list[int], list[int], list[int] | None] | None = None

    def corners(self, entries: np.ndarray, angular: slice | np.ndarray | None
                ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
        """``(lows, highs, halves)`` of the given rows, in one gather from
        the level's :func:`~repro.index.geometry.corner_table` (derived on
        first use): what :func:`~repro.index.geometry.rects_overlap` tests
        them by.  A level of points gathers its one corner array — the test
        derives a point's halves for free — and a level of rectangles its
        corners together with the :func:`~repro.index.geometry.angular_halves`
        of its ``angular`` coordinates."""
        table = self._table
        if table is None or table[0] is not angular:
            table = self._table = (angular, corner_table(self.lows, self.highs, angular))
        return _split_corners(table[1].take(entries, axis=1).T, self.lows.shape[1])

    def table(self, build: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
        """``build(lows, highs)`` — a bound's query-independent table of the
        level (:class:`~repro.core.spaces.RectangleBound`) — built on first
        use and kept: the level never changes."""
        table = self._tables.get(build)
        if table is None:
            table = self._tables[build] = build(self.lows, self.highs)
        return table

    def nodes(self) -> tuple[list[int], list[int], list[int] | None]:
        """``(starts, stops, children)`` as Python ints, derived on first use:
        node ``slot`` owns rows ``starts[slot]`` … ``stops[slot]``, and an
        internal row's child slot is ``children[row]`` (``None`` for leaves).
        A best-first step slices nodes by them without a numpy call."""
        if self._nodes is None:
            self._nodes = (self.starts.tolist(), (self.starts + self.counts).tolist(),
                           None if self.is_leaf else self.payloads.tolist())
        return self._nodes

    def distinct(self, slots: np.ndarray) -> int:
        """How many distinct nodes ``slots`` names (a plain int: counts are
        serialized)."""
        opened = np.zeros(len(self.counts), dtype=bool)
        opened[slots] = True
        return int(np.count_nonzero(opened))

    def rows(self, slots: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Row numbers of the ``counts[i]`` entries of each ``slots[i]``."""
        return (np.repeat(self.starts[slots] - np.cumsum(counts) + counts, counts)
                + np.arange(counts.sum()))

    def radii(self) -> np.ndarray:
        """Half the diagonal of every node's bounding rectangle."""
        if not len(self.lows):  # the empty root
            return np.zeros(len(self.counts))
        extents = (np.maximum.reduceat(self.highs, self.starts)
                   - np.minimum.reduceat(self.lows, self.starts))
        return 0.5 * np.sqrt(np.sum(extents * extents, axis=1))


def _split_corners(rows: np.ndarray, dimension: int
                   ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """The ``(lows, highs, halves)`` views of ``(m, k)`` rows of a
    :func:`~repro.index.geometry.corner_table` — points' ``highs`` are their
    ``lows``."""
    if rows.shape[-1] == dimension:
        return rows, rows, None
    lows, highs = rows[..., :dimension], rows[..., dimension:2 * dimension]
    if rows.shape[-1] == 2 * dimension:
        return lows, highs, None
    middle = (rows.shape[-1] + 2 * dimension) // 2
    return lows, highs, (rows[..., 2 * dimension:middle], rows[..., middle:])


#: Most pending nodes one step of :meth:`PackedRTree.nearest_search` opens;
#: the block doubles from 1 up to it.  A wider block means fewer
#: (dispatch-bound) numpy steps per probe but opens nodes a one-at-a-time walk
#: would have pruned, and makes their records pending at once.  On the
#: benchmark's k mix (5 000 walks, the 84 plain k-NN ops of stream seeds 7,
#: 11 and 1501, default 39-entry nodes and the mirror-weighted bound; per op
#: the best of 7 with the blocks interleaved, one core of a 2-vCPU VM),
#: blocks of 1 / 2 / 4 / 8 / 16 verify 90.3 / 92.1 / 96.6 / 103.4 / 119.5
#: records and open 20.0 / 20.7 / 21.0 / 21.2 / 22.1 nodes a probe, at
#: 1.91 / 1.45 / 1.13 / 1 / 0.99 times the time of 8 (median of per-op
#: ratios; 0.46 ms a probe at 8).  No block wins on both records and time;
#: 16 ties 8 in time for 16 % more records.  Under the paper's bound the
#: same ops verify 189.2 … 224.9 records at the same ratios (0.57 ms at 8).
NEAREST_BLOCK = 8

#: Most transformations kept at once: the images :meth:`PackedRTree.transformed`
#: keeps per tree, and the maps
#: :meth:`~repro.index.kindex.KIndex.lower_transformation` keeps per index;
#: one more clears them.  An image is a copy of the tree's rectangles, small
#: beside the relation; the records themselves are mapped row by row as the
#: refine kernels gather them, never held transformed.
KEPT_MAPS = 8


class PackedRTree:
    """An immutable R-tree held as per-level arrays, root level first.

    Built by :meth:`bulk_load` / :meth:`bulk_load_rects` (Sort-Tile-Recursive)
    or handed over by a grower (:mod:`repro.bench.growers`); nothing changes it
    afterwards — an index that outgrows its tree packs a fresh one.

    Attributes
    ----------
    dimension:
        Dimensionality of the indexed space.
    max_entries:
        Node capacity ``M``.
    levels:
        One :class:`_PackedLevel` per tree level; the last one is the leaves.
    """

    def __init__(self, dimension: int, max_entries: int,
                 levels: Sequence[_PackedLevel]) -> None:
        self.dimension = int(dimension)
        self.max_entries = int(max_entries)
        self.levels = tuple(levels)
        self._size = int(self.levels[-1].counts.sum())
        #: id(map) → (map, image): :meth:`transformed`'s images, at most
        #: ``KEPT_MAPS`` of them.
        self._images: dict[int, tuple[RealLinearTransformation, PackedRTree]] = {}

    def __len__(self) -> int:
        return self._size

    def height(self) -> int:
        """Number of levels (1 for a tree that is just a leaf root)."""
        return len(self.levels)

    def structure_summary(self) -> dict[str, float]:
        """Structural facts the cost model estimates node accesses from: node
        counts per kind, average fanout, and the average node "radius" (half
        the MBR diagonal) — the amount a query rectangle is effectively
        enlarged by when testing whether a node must be opened.  One
        ``reduceat`` per level; radii are summed level by level, so they agree
        with a node-at-a-time walk to rounding, not to the bit."""
        *internal, leaves = self.levels
        leaf_count = len(leaves.counts)
        internal_count = sum(len(level.counts) for level in internal)
        return {
            "height": float(self.height()),
            "leaf_count": float(leaf_count),
            "internal_count": float(internal_count),
            "node_count": float(leaf_count + internal_count),
            "avg_leaf_fanout": len(self) / leaf_count,
            "avg_internal_fanout": (sum(len(level.lows) for level in internal)
                                    / internal_count if internal_count else 0.0),
            "avg_leaf_radius": float(leaves.radii().sum()) / leaf_count,
            "avg_internal_radius": (sum(float(level.radii().sum()) for level in internal)
                                    / internal_count if internal_count else 0.0),
        }

    def transformed(self, transformation: RealLinearTransformation) -> "PackedRTree":
        """Algorithm 1: the tree of the transformed data — every rectangle
        mapped, one call per level, the structure kept node for node (a
        level of points stays one: its points are mapped once).

        The tree is immutable, so its image under a map is too: it is built
        on the first call and kept with the tree — keyed by the map object,
        at most ``KEPT_MAPS`` of them — and the probes under that map search
        it as it is."""
        cached = self._images.get(id(transformation))
        if cached is not None and cached[0] is transformation:
            return cached[1]
        image = PackedRTree(self.dimension, self.max_entries, [
            _PackedLevel(level.is_leaf, level.counts,
                         *((transformation.apply(level.lows),) * 2
                           if level.highs is level.lows
                           else transformation.apply_bounds(level.lows, level.highs)),
                         level.payloads)
            for level in self.levels])
        if len(self._images) >= KEPT_MAPS:
            self._images.clear()
        self._images[id(transformation)] = (transformation, image)
        return image

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def window_search(self, window_lows: np.ndarray, window_highs: np.ndarray,
                      transformation: RealLinearTransformation | None = None,
                      periodic_dims: np.ndarray | None = None
                      ) -> tuple[list[np.ndarray], tuple[int, int]]:
        """Range searches for ``(q, d)`` stacked windows in one shared,
        level-synchronous descent (Algorithm 2).

        Under a ``transformation`` the search runs on the tree's image
        (:meth:`transformed`, built once per map).  The frontier starts as
        (root, window) for every window.  Per level the children of the
        whole frontier are gathered in one take from the level's corner
        table and tested against their windows in one call; the survivors —
        their payloads are their child nodes' slots — are the next frontier.
        ``periodic_dims`` marks wrap-around dimensions (phase angles of the
        polar layout) whose overlap test is taken modulo ``2*pi``, but only
        on the coordinates some window narrows, and not at all when every
        window spans the whole circle
        (:func:`~repro.index.geometry.narrowed_windows`); which those are,
        and the windows' angular centres and half-widths, are derived once
        per search.  A node serving several windows is visited (and counted)
        once, which is where batched execution gains over issuing the
        searches one at a time.  A single window is broadcast against every
        entry, and its frontier, holding each node once, is counted by its
        length.

        Returns ``(record arrays, (internal, leaf))``: one record array per
        window — integer record ids ascending (a scan's order), other
        payloads in leaf order — and the internal and leaf nodes the search
        opened.
        """
        try:
            window_lows = np.asarray(window_lows, dtype=np.float64)
            window_highs = np.asarray(window_highs, dtype=np.float64)
            matched = (window_lows.ndim == 2 and window_lows.shape == window_highs.shape
                       and window_lows.shape[1] == self.dimension)
        except ValueError:  # rows of differing lengths
            matched = False
        if not matched:
            raise IndexError_(
                f"windows searched in a tree of dimension {self.dimension} must be "
                f"matching (q, {self.dimension}) corner arrays")
        num_windows = window_lows.shape[0]
        if num_windows == 0:
            return [], (0, 0)
        tree = self if transformation is None else self.transformed(transformation)
        internal = leaf = 0
        angular = angular_dims(periodic_dims)
        window_lows, window_highs, tested = narrowed_windows(window_lows, window_highs,
                                                             periodic_dims)
        # A level's table holds the halves of every angular coordinate; when
        # the windows narrow some of them only, the test reads those columns.
        kept = (None if tested is None or tested is periodic_dims
                else np.flatnonzero(np.asarray(tested)[angular]))
        windows = corner_table(window_lows, window_highs, angular_dims(tested))
        single = num_windows == 1
        if single:
            window = _split_corners(windows.T, self.dimension)
        nodes = np.zeros(num_windows, dtype=np.intp)
        queries = np.arange(num_windows, dtype=np.intp)
        for level in tree.levels:
            counts = level.counts[nodes]
            entries = level.rows(nodes, counts)
            if single:
                # One window opens a node once: the frontier is distinct.
                opened = len(nodes)
            else:
                opened = level.distinct(nodes)
                queries = np.repeat(queries, counts)
                window = _split_corners(windows.take(queries, axis=1).T, self.dimension)
            if level.is_leaf:
                leaf += opened
            else:
                internal += opened
            lows, highs, halves = level.corners(entries, angular)
            if halves is not None and kept is not None:
                halves = (halves[0][:, kept], halves[1][:, kept])
            keep = rects_overlap(lows, highs, window[0], window[1], tested,
                                 halves=halves, window_halves=window[2])
            nodes = level.payloads.take(entries[keep])
            if not single:
                queries = queries[keep]
        records = nodes  # the payloads of the leaf level
        if single:
            return [records if records.dtype == object else np.sort(records)], (internal, leaf)
        order = (np.argsort(queries, kind="stable") if records.dtype == object
                 else np.lexsort((records, queries)))
        cuts = np.searchsorted(queries[order], np.arange(1, num_windows))
        return np.split(records[order], cuts), (internal, leaf)

    def search(self, window: Rect) -> list[Any]:
        """All records whose rectangle intersects ``window``."""
        return self.window_search(window.low[None, :], window.high[None, :])[0][0].tolist()

    def nearest_search(self, k: int, lower_bound: RectangleBound,
                       exact: Callable[[np.ndarray], np.ndarray] | None = None,
                       transformation: RealLinearTransformation | None = None,
                       seeds: tuple[np.ndarray, np.ndarray] | None = None
                       ) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
        """Best-first ``k``-nearest-neighbour search, a block of nodes per step.

        ``lower_bound`` is a :class:`~repro.core.spaces.RectangleBound`
        (:func:`~repro.index.geometry.box_bound` for MINDIST): called as
        ``lower_bound(lows, highs)`` it maps ``(n, d)`` rectangle corners —
        under a ``transformation``, those of the tree's image
        (:meth:`transformed`) — to ``(n,)`` lower bounds on the query's
        distance to anything inside; ``exact(records)`` gives the true
        distances of an array of leaf records (``None``: a leaf entry's bound
        *is* its distance).  ``seeds`` is ``(points, records)``: leaf entries
        the tree does not hold (a k-index's unindexed tail), pending from the
        start at the bound of their mapped points.

        Each step verifies in one ``exact`` call every pending record no
        farther than both the next pending node and the current k-th exact
        distance, and then opens the nearest pending nodes whose bound is at
        most that distance — 1, 2, 4, then :data:`NEAREST_BLOCK` of them —
        bounding the children of the opened nodes of one level in one call.
        The search ends when nothing pending is within the k-th distance.
        Nothing whose bound *equals* that distance is pruned, so records tied
        at the cut are all verified.

        A step does only per-query work.  Pending nodes wait in a heap of
        ``(bound, sequence, level, slot)``: equal bounds leave in the order
        they were pushed, and a node bounded beyond the k-th distance — which
        only falls — is never pushed.  A node's entries are a slice of its
        level (:meth:`_PackedLevel.nodes`), and what a bound needs of them
        that does not depend on the query is one table per level, built on
        first use and kept (:meth:`_PackedLevel.table`): the one the bound's
        ``table`` builds, which its ``of_table`` reads.

        Returns ``(distances, records, (internal, leaf))``: every verified
        record, ascending by distance (integer records at equal distance by
        ascending record — a scan's order), the first ``k`` the answer and
        the length the number of candidates verified; and the internal and
        leaf nodes the search opened.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        tree = self if transformation is None else self.transformed(transformation)
        internal = leaf = 0
        build, bound = lower_bound.table, lower_bound.of_table
        pending = [(0.0, 0, 0, 0)]  # heap of (bound, sequence, level number, slot): the root
        sequence = itertools.count(1)
        record_bounds = np.zeros(0)                   # pending leaf records, any order
        records = np.zeros(0, dtype=np.intp)
        if seeds is not None:
            points = seeds[0] if transformation is None else transformation.apply(seeds[0])
            record_bounds, records = lower_bound(points, points), seeds[1]
        found_distances, found_records = [np.zeros(0)], [records[:0]]
        nearest = np.zeros(0)                         # the k smallest exact distances
        kth = math.inf
        block = 1
        while True:
            if record_bounds.size:
                ready = record_bounds <= (min(pending[0][0], kth) if pending else kth)
                if np.count_nonzero(ready):
                    verified, later = records[ready], ~ready
                    distances = record_bounds[ready] if exact is None else exact(verified)
                    found_distances.append(distances)
                    found_records.append(verified)
                    record_bounds, records = record_bounds[later], records[later]
                    nearest = np.concatenate((nearest, distances))
                    if nearest.size >= k:
                        nearest = np.partition(nearest, k - 1)[:k]
                        kth = float(nearest[k - 1])
            opened: dict[int, list[int]] = {}
            for _ in range(block):
                if not pending or pending[0][0] > kth:
                    break
                _, _, number, slot = heapq.heappop(pending)
                opened.setdefault(number, []).append(slot)
            if not opened:
                break
            block = min(2 * block, NEAREST_BLOCK)
            for number, slots in opened.items():
                level = tree.levels[number]
                starts, stops, children = level.nodes()
                table = level.table(build)
                spans = [(starts[slot], stops[slot]) for slot in slots]
                if len(spans) == 1:
                    (start, stop), = spans
                    columns = table[:, start:stop]
                else:
                    columns = np.concatenate([table[:, start:stop] for start, stop in spans],
                                             axis=1)
                bounds = bound(columns)
                # A pending node is pending once: the slots are distinct.
                if children is None:
                    leaf += len(slots)
                    payloads = level.payloads
                    record_bounds = np.concatenate((record_bounds, bounds))
                    records = np.concatenate(
                        [records] + [payloads[start:stop] for start, stop in spans])
                else:
                    # A node bounded beyond the k-th distance is never opened
                    # (that distance only falls), so it is never pushed.
                    internal += len(slots)
                    below = number + 1
                    for value, child in zip(bounds.tolist(),
                                            [child for start, stop in spans
                                             for child in children[start:stop]]):
                        if value <= kth:
                            heapq.heappush(pending, (value, next(sequence), below, child))
        distances, records = np.concatenate(found_distances), np.concatenate(found_records)
        order = (np.argsort(distances, kind="stable") if records.dtype == object
                 else np.lexsort((records, distances)))
        return distances[order], records[order], (internal, leaf)

    def nearest_neighbors(self, point: Sequence[float] | np.ndarray, k: int = 1
                          ) -> list[tuple[float, Any]]:
        """The ``k`` records nearest to ``point`` (by Euclidean distance to
        their rectangles), as ``(distance, record)`` pairs sorted by distance
        (integer records at equal distance by ascending record)."""
        point = np.asarray(point, dtype=np.float64).reshape(-1)
        if point.shape[0] != self.dimension:
            raise DimensionMismatchError(
                f"point of dimension {point.shape[0]} vs tree of dimension {self.dimension}")
        distances, records, _ = self.nearest_search(k, box_bound(point))
        return list(zip(distances[:k].tolist(), records[:k].tolist()))

    # ------------------------------------------------------------------
    # bulk loading
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load_rects(cls, lows: np.ndarray, highs: np.ndarray,
                        records: Sequence[Any] | np.ndarray, *,
                        max_entries: int = 8) -> "PackedRTree":
        """Bottom-up Sort-Tile-Recursive load of rectangle data.

        Packs the data into leaves tile by tile and then builds each internal
        level by STR-packing the level below — nodes filled to capacity,
        barely overlapping — in linear time: every level is one gather of the
        tiles' rows and one ``reduceat`` for the rectangles of the level
        above.  A node's entries keep their tile order.
        """
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        if max_entries < 2:
            raise IndexError_("max_entries must be at least 2")
        if lows.ndim != 2 or lows.shape != highs.shape or not lows.shape[1]:
            raise IndexError_("bulk load expects matching 2-d corner arrays")
        if len(records) != lows.shape[0]:
            raise IndexError_("number of records must match number of rectangles")
        if not (np.isfinite(lows).all() and np.isfinite(highs).all()):
            raise IndexError_("every rectangle corner must be finite")
        if np.any(lows > highs):
            raise ValueError("every low coordinate must be <= the matching high coordinate")
        min_entries = _min_entries(max_entries)
        payloads = _record_array(records)
        levels: list[_PackedLevel] = []
        while True:
            tiles = (_str_tiles((lows + highs) / 2.0, max_entries, min_entries)
                     if len(lows) else [np.zeros(0, dtype=np.intp)])
            order = np.concatenate(tiles)
            level_lows = lows[order]
            level = _PackedLevel(not levels,
                                 np.array([len(tile) for tile in tiles], dtype=np.intp),
                                 level_lows, level_lows if highs is lows else highs[order],
                                 payloads[order])
            levels.append(level)
            if len(tiles) == 1:
                return cls(lows.shape[1], max_entries, levels[::-1])
            lows = np.minimum.reduceat(level.lows, level.starts)
            highs = np.maximum.reduceat(level.highs, level.starts)
            payloads = np.arange(len(tiles), dtype=np.intp)

    @classmethod
    def bulk_load(cls, points: np.ndarray, records: Sequence[Any] | np.ndarray, *,
                  max_entries: int = 8) -> "PackedRTree":
        """STR load of point data (stored as degenerate rectangles, whose
        leaf level holds one corner array: ``highs is lows``)."""
        points = np.asarray(points, dtype=np.float64)
        return cls.bulk_load_rects(points, points, records, max_entries=max_entries)


def _record_array(records: Sequence[Any] | np.ndarray) -> np.ndarray:
    """Leaf payloads as an array: integer ids stay numeric (sortable,
    gatherable into the columnar store), anything else — bools and integers
    too large for an index included — is held as the objects given."""
    if isinstance(records, np.ndarray) and records.dtype.kind in "iu":
        return records.astype(np.intp, copy=False)
    records = list(records)
    if all(issubclass(kind, (int, np.integer)) and kind is not bool
           for kind in set(map(type, records))):
        try:
            return np.array(records, dtype=np.intp)
        except OverflowError:
            pass
    return np.fromiter(records, dtype=object, count=len(records))


def _str_chunk_sizes(count: int, max_entries: int, min_entries: int) -> list[int]:
    """Split ``count`` entries into node-sized chunks.

    Every chunk is within ``[min_entries, max_entries]`` whenever
    ``count >= min_entries``; a short remainder borrows from the last full
    chunk (possible because ``min_entries <= max_entries // 2``).
    """
    if count <= max_entries:
        return [count]
    sizes = [max_entries] * (count // max_entries)
    remainder = count % max_entries
    if remainder:
        if remainder < min_entries:
            deficit = min_entries - remainder
            sizes[-1] -= deficit
            remainder = min_entries
        sizes.append(remainder)
    return sizes


#: Dimensions whose spread falls below this fraction of the widest
#: dimension's are skipped when tiling: slicing along a nearly flat (or
#: periodic, hence low-spread) coordinate scatters neighbours without
#: buying any pruning power.
STR_SPREAD_CUTOFF = 0.25


def _str_tiles(centers: np.ndarray, max_entries: int, min_entries: int
               ) -> list[np.ndarray]:
    """Sort-Tile-Recursive grouping of ``centers`` into node-sized tiles.

    Recursively slices the data into slabs along each tiling dimension in
    turn — ``ceil(P ** (1/d))`` slabs for ``P`` target nodes over ``d``
    remaining dimensions — then chunks the final dimension's ordering
    into runs of node capacity.  Tiling considers only dimensions with
    significant spread, widest first.  Returns index arrays, one per
    future node.
    """
    spread = centers.max(axis=0) - centers.min(axis=0)
    keep = np.nonzero(spread >= spread.max() * STR_SPREAD_CUTOFF)[0]
    if keep.size == 0:
        keep = np.array([int(np.argmax(spread))])
    centers = centers[:, keep[np.argsort(-spread[keep])]]
    dimension = centers.shape[1]

    def recurse(indices: np.ndarray, dim: int) -> list[np.ndarray]:
        count = indices.shape[0]
        if count <= max_entries:
            return [indices]
        order = indices[np.argsort(centers[indices, dim], kind="stable")]
        if dim == dimension - 1:
            tiles = []
            start = 0
            for size in _str_chunk_sizes(count, max_entries, min_entries):
                tiles.append(order[start:start + size])
                start += size
            return tiles
        target_nodes = math.ceil(count / max_entries)
        num_slabs = math.ceil(target_nodes ** (1.0 / (dimension - dim)))
        slab_size = math.ceil(count / num_slabs / max_entries) * max_entries
        tiles = []
        start = 0
        while start < count:
            end = min(count, start + slab_size)
            # Do not leave a tail slab too small to fill a node's minimum.
            if count - end < min_entries:
                end = count
            tiles.extend(recurse(order[start:end], dim + 1))
            start = end
        return tiles

    return recurse(np.arange(centers.shape[0]), 0)
