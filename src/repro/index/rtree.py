"""R-trees: the packed form every probe runs on, and the trees that grow one.

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
blocks — both optionally under an on-the-fly transformation of the
rectangles.  Node accesses are counted per tree (``tree.access_stats``).

:class:`RTree` (Guttman, 1984: linear and quadratic node splits) and its
subclass :class:`~repro.index.rstar.RStarTree` are *growers*: a graph of
node objects that one :meth:`RTree.insert` at a time shapes with the dynamic
trees' heuristics, for the evaluation's figures and the tree-variant
ablation, which were measured on such trees.  A grower answers no probe
itself — :meth:`RTree.packed` hands over its packed form (built in one pass,
kept until the next insert) and its probe methods are one-line calls into
that.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import Any

import numpy as np

from ..core.errors import IndexError_
from ..core.transformations import RealLinearTransformation
from .geometry import Rect, mindist_batch, rects_overlap

__all__ = ["RTreeEntry", "RTreeNode", "NodeAccessStats", "PackedRTree", "RTree"]


@dataclass
class RTreeEntry:
    """One slot of a node: a bounding rectangle plus either a child node id
    (internal nodes) or a data record (leaf nodes)."""

    rect: Rect
    child_id: int | None = None
    record: Any = None

    @property
    def is_data(self) -> bool:
        """Whether the entry points at a data record rather than a child node."""
        return self.child_id is None


@dataclass
class RTreeNode:
    """A node of a grower: a flat list of entries plus bookkeeping."""

    node_id: int
    is_leaf: bool
    entries: list[RTreeEntry] = field(default_factory=list)
    parent_id: int | None = None

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of all entries."""
        if not self.entries:
            raise IndexError_("an empty node has no bounding rectangle")
        return Rect.union_of(entry.rect for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class NodeAccessStats:
    """Counters for node visits during searches."""

    internal: int = 0
    leaf: int = 0

    def reset(self) -> None:
        """Zero the counters."""
        self.internal = 0
        self.leaf = 0

    @property
    def total(self) -> int:
        """All node visits."""
        return self.internal + self.leaf


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
    """

    def __init__(self, is_leaf: bool, counts: np.ndarray, lows: np.ndarray,
                 highs: np.ndarray, payloads: np.ndarray) -> None:
        self.is_leaf = is_leaf
        self.counts = counts                        #: (nodes,) entries per node
        self.starts = np.cumsum(counts) - counts    #: (nodes,) first row of each node
        self.lows = lows                            #: (entries, d) low corners
        self.highs = highs                          #: (entries, d) high corners
        self.payloads = payloads                    #: (entries,)

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


#: Most pending nodes one step of :meth:`PackedRTree.nearest_search` opens;
#: the block doubles from 1 up to it.  A wider block means fewer
#: (dispatch-bound) numpy steps per probe but opens nodes a one-at-a-time walk
#: would have pruned: on 5000 series, 1 / 8 / 64 take 94 / 15 / 7 steps a
#: probe and open 0 / 5.5 / 15 % more nodes than the fewest possible.
NEAREST_BLOCK = 8

_SLOT_SPAN = 1 << 32  # a pending node is ``packed level number * span + slot``


class PackedRTree:
    """An immutable R-tree held as per-level arrays, root level first.

    Built by :meth:`bulk_load` / :meth:`bulk_load_rects` (Sort-Tile-Recursive)
    or handed over by a grower's :meth:`RTree.packed`; nothing changes it
    afterwards — an index that outgrows its tree packs a fresh one.

    Attributes
    ----------
    dimension:
        Dimensionality of the indexed space.
    max_entries:
        Node capacity ``M``.
    levels:
        One :class:`_PackedLevel` per tree level; the last one is the leaves.
    access_stats:
        Nodes visited by the probes since :meth:`reset_stats`.
    """

    def __init__(self, dimension: int, max_entries: int,
                 levels: Sequence[_PackedLevel]) -> None:
        self.dimension = int(dimension)
        self.max_entries = int(max_entries)
        self.levels = tuple(levels)
        self.access_stats = NodeAccessStats()
        self._size = int(self.levels[-1].counts.sum())

    def __len__(self) -> int:
        return self._size

    def height(self) -> int:
        """Number of levels (1 for a tree that is just a leaf root)."""
        return len(self.levels)

    def reset_stats(self) -> None:
        """Zero the access counters."""
        self.access_stats.reset()

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
        mapped, one call per level, the structure kept node for node."""
        return PackedRTree(self.dimension, self.max_entries, [
            _PackedLevel(level.is_leaf, level.counts,
                         *transformation.apply_bounds(level.lows, level.highs),
                         level.payloads)
            for level in self.levels])

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def window_search(self, window_lows: np.ndarray, window_highs: np.ndarray,
                      transformation: RealLinearTransformation | None = None,
                      periodic_dims: np.ndarray | None = None) -> list[np.ndarray]:
        """Range searches for ``(q, d)`` stacked windows in one shared,
        level-synchronous descent (Algorithm 2).

        The frontier starts as (root, window) for every window.  Per level
        the children of the whole frontier are gathered into one pair of
        corner arrays, mapped by ``transformation`` (the on-the-fly image
        rectangles) and tested against their windows in one call; the
        survivors — their payloads are their child nodes' slots — are the
        next frontier.  ``periodic_dims`` marks wrap-around dimensions
        (phase angles of the polar layout) whose overlap test is taken
        modulo ``2*pi``.  A node serving several windows is visited (and
        counted) once, which is where batched execution gains over issuing
        the searches one at a time.

        Returns one record array per window.  Integer record ids come back
        ascending (a scan's order); other payloads in leaf order.
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
            return []
        nodes = np.zeros(num_windows, dtype=np.intp)
        queries = np.arange(num_windows, dtype=np.intp)
        for level in self.levels:
            self._charge(level, nodes)
            counts = level.counts[nodes]
            entries = level.rows(nodes, counts)
            queries = np.repeat(queries, counts)
            lows, highs = level.lows[entries], level.highs[entries]
            if transformation is not None:
                lows, highs = transformation.apply_bounds(lows, highs)
            keep = rects_overlap(lows, highs, window_lows[queries],
                                 window_highs[queries], periodic_dims)
            nodes, queries = level.payloads[entries[keep]], queries[keep]
        records = nodes  # the payloads of the leaf level
        order = (np.argsort(queries, kind="stable") if records.dtype == object
                 else np.lexsort((records, queries)))
        cuts = np.searchsorted(queries[order], np.arange(1, num_windows))
        return np.split(records[order], cuts)

    def _charge(self, level: _PackedLevel, nodes: np.ndarray) -> None:
        """Count the frontier's nodes as visited: each node once, however
        many windows opened it."""
        opened = np.zeros(len(level.counts), dtype=bool)
        opened[nodes] = True
        count = int(np.count_nonzero(opened))  # a plain int: stats are serialized
        if level.is_leaf:
            self.access_stats.leaf += count
        else:
            self.access_stats.internal += count

    def search(self, window: Rect) -> list[Any]:
        """All records whose rectangle intersects ``window``."""
        return self.window_search(window.low[None, :], window.high[None, :])[0].tolist()

    def search_many(self, windows: Sequence[Rect], *,
                    periodic_dims: np.ndarray | None = None) -> list[list[Any]]:
        """:meth:`window_search` for a sequence of :class:`Rect` windows (a
        thin adapter for callers holding rectangles); one result list per
        window, aligned with the input order."""
        if not windows:
            return []
        found = self.window_search([window.low for window in windows],
                                   [window.high for window in windows],
                                   periodic_dims=periodic_dims)
        return [records.tolist() for records in found]

    def nearest_search(self, k: int,
                       lower_bound: Callable[[np.ndarray, np.ndarray], np.ndarray],
                       exact: Callable[[np.ndarray], np.ndarray] | None = None,
                       transformation: RealLinearTransformation | None = None,
                       seeds: tuple[np.ndarray, np.ndarray] | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Best-first ``k``-nearest-neighbour search, a block of nodes per step.

        ``lower_bound(lows, highs)`` maps ``(n, d)`` rectangle corners —
        already mapped by ``transformation``, the on-the-fly image rectangles
        — to ``(n,)`` lower bounds on the query's distance to anything inside;
        ``exact(records)`` gives the true distances of an array of leaf
        records (``None``: a leaf entry's bound *is* its distance).  ``seeds``
        is ``(points, records)``: leaf entries the tree does not hold (a
        k-index's unindexed tail), pending from the start at the bound of
        their mapped points.

        Each step verifies in one ``exact`` call every pending record no
        farther than both the next pending node and the current k-th exact
        distance, and then opens the nearest pending nodes whose bound is at
        most that distance — 1, 2, 4, then :data:`NEAREST_BLOCK` of them —
        bounding all their children in one ``lower_bound`` call.  The search
        ends when nothing pending is within the k-th distance.  Nothing whose
        bound *equals* that distance is pruned, so records tied at the cut are
        all verified.

        Returns ``(distances, records)`` of every verified record, ascending
        by distance (integer records at equal distance by ascending record — a
        scan's order): the first ``k`` are the answer, the length is the
        number of candidates verified.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        node_bounds = np.zeros(1)                     # pending nodes, ascending bound
        node_refs = np.zeros(1, dtype=np.int64)       # the root: level 0, slot 0
        record_bounds = np.zeros(0)                   # pending leaf records, any order
        records = np.zeros(0, dtype=np.intp)
        if seeds is not None:
            lows, highs = (seeds[0],) * 2 if transformation is None \
                else transformation.apply_bounds(seeds[0], seeds[0])
            record_bounds, records = lower_bound(lows, highs), seeds[1]
        found_distances, found_records = [np.zeros(0)], [records[:0]]
        nearest = np.zeros(0)                         # the k smallest exact distances
        kth = math.inf
        block = 1
        while True:
            ready = record_bounds <= min(node_bounds[0] if node_bounds.size else math.inf, kth)
            if np.count_nonzero(ready):
                distances = (record_bounds[ready] if exact is None
                             else exact(records[ready]))
                found_distances.append(distances)
                found_records.append(records[ready])
                record_bounds, records = record_bounds[~ready], records[~ready]
                nearest = np.concatenate((nearest, distances))
                if nearest.size >= k:
                    nearest = np.partition(nearest, k - 1)[:k]
                    kth = float(nearest[k - 1])
            within = int(np.searchsorted(node_bounds, kth, side="right"))
            node_bounds, node_refs = node_bounds[:within], node_refs[:within]
            if not within:
                break
            opened: dict[int, list[int]] = {}
            for ref in node_refs[:block].tolist():
                opened.setdefault(ref // _SLOT_SPAN, []).append(ref % _SLOT_SPAN)
            node_bounds, node_refs = node_bounds[block:], node_refs[block:]
            block = min(2 * block, NEAREST_BLOCK)
            lows, highs, children = [], [], []
            for number, slots in opened.items():
                level, slots = self.levels[number], np.array(slots, dtype=np.intp)
                self._charge(level, slots)
                rows = level.rows(slots, level.counts[slots])
                lows.append(level.lows[rows])
                highs.append(level.highs[rows])
                children.append((level.payloads[rows],
                                 None if level.is_leaf else (number + 1) * _SLOT_SPAN))
            lows, highs = np.concatenate(lows), np.concatenate(highs)
            if transformation is not None:
                lows, highs = transformation.apply_bounds(lows, highs)
            bounds = lower_bound(lows, highs)
            stop, pending = 0, node_bounds.size
            for payloads, below in children:
                start, stop = stop, stop + payloads.size
                if below is None:
                    record_bounds = np.concatenate((record_bounds, bounds[start:stop]))
                    records = np.concatenate((records, payloads))
                else:
                    node_bounds = np.concatenate((node_bounds, bounds[start:stop]))
                    node_refs = np.concatenate((node_refs, below + payloads))
            if node_bounds.size > pending:
                order = np.argsort(node_bounds, kind="stable")
                node_bounds, node_refs = node_bounds[order], node_refs[order]
        distances, records = np.concatenate(found_distances), np.concatenate(found_records)
        order = (np.argsort(distances, kind="stable") if records.dtype == object
                 else np.lexsort((records, distances)))
        return distances[order], records[order]

    def nearest_neighbors(self, point: Sequence[float] | np.ndarray, k: int = 1
                          ) -> list[tuple[float, Any]]:
        """The ``k`` records nearest to ``point`` (by Euclidean distance to
        their rectangles), as ``(distance, record)`` pairs sorted by distance
        (integer records at equal distance by ascending record)."""
        point = np.asarray(point, dtype=np.float64).reshape(-1)
        distances, records = self.nearest_search(k, partial(mindist_batch, point))
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
            level = _PackedLevel(not levels,
                                 np.array([len(tile) for tile in tiles], dtype=np.intp),
                                 lows[order], highs[order], payloads[order])
            levels.append(level)
            if len(tiles) == 1:
                return cls(lows.shape[1], max_entries, levels[::-1])
            lows = np.minimum.reduceat(level.lows, level.starts)
            highs = np.maximum.reduceat(level.highs, level.starts)
            payloads = np.arange(len(tiles), dtype=np.intp)

    @classmethod
    def bulk_load(cls, points: np.ndarray, records: Sequence[Any] | np.ndarray, *,
                  max_entries: int = 8) -> "PackedRTree":
        """STR load of point data (stored as degenerate rectangles)."""
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


class RTree:
    """A dynamic R-tree: grown by :meth:`insert`, probed through :meth:`packed`.

    Parameters
    ----------
    dimension:
        Dimensionality of the indexed space.
    max_entries:
        Maximum entries per node (``M``); nodes split when it is exceeded.
    min_entries:
        Minimum entries per node (``m``); defaults to ``ceil(0.4 * M)``.
    split:
        Node split policy: ``"linear"`` or ``"quadratic"`` (Guttman's two
        heuristics).
    """

    SPLIT_POLICIES = ("linear", "quadratic")

    def __init__(self, dimension: int, max_entries: int = 8,
                 min_entries: int | None = None, split: str = "quadratic") -> None:
        if dimension <= 0:
            raise IndexError_("dimension must be positive")
        if max_entries < 2:
            raise IndexError_("max_entries must be at least 2")
        if split not in self.SPLIT_POLICIES:
            raise IndexError_(f"unknown split policy {split!r}; choose from {self.SPLIT_POLICIES}")
        self.dimension = int(dimension)
        self.max_entries = int(max_entries)
        self.min_entries = _min_entries(self.max_entries, min_entries)
        self.split_policy = split
        self._nodes: dict[int, RTreeNode] = {}
        self._node_counter = itertools.count()
        self._size = 0
        self._pack: PackedRTree | None = None  # dropped by every insert
        self._pack_lock = threading.Lock()     # concurrent readers pack once
        self.root_id = self._new_node(is_leaf=True).node_id

    # ------------------------------------------------------------------
    # node plumbing
    # ------------------------------------------------------------------
    def _new_node(self, is_leaf: bool) -> RTreeNode:
        node = RTreeNode(node_id=next(self._node_counter), is_leaf=is_leaf)
        self._nodes[node.node_id] = node
        return node

    def node(self, node_id: int) -> RTreeNode:
        """Fetch a node of the graph (structural use: nothing is counted)."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise IndexError_(f"unknown node id {node_id}") from None

    def _depth(self, node: RTreeNode) -> int:
        """Levels between ``node`` and the root."""
        depth = 0
        while node.parent_id is not None:
            node = self.node(node.parent_id)
            depth += 1
        return depth

    @property
    def root(self) -> RTreeNode:
        """The root node."""
        return self.node(self.root_id)

    def __len__(self) -> int:
        return self._size

    def height(self) -> int:
        """Number of levels (1 for a tree that is just a leaf root)."""
        level = 1
        node = self.root
        while not node.is_leaf:
            node = self.node(node.entries[0].child_id)
            level += 1
        return level

    def all_entries(self) -> Iterator[RTreeEntry]:
        """Every leaf entry in the tree (structural traversal, not counted)."""
        stack = [self.root_id]
        while stack:
            node = self.node(stack.pop())
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(entry.child_id for entry in node.entries)

    def __iter__(self) -> Iterator[Any]:
        return (entry.record for entry in self.all_entries())

    # ------------------------------------------------------------------
    # the packed form, and the probes that run on it
    # ------------------------------------------------------------------
    def packed(self) -> PackedRTree:
        """The tree as a :class:`PackedRTree`: one pass over the node graph,
        level by level from the root (a level's nodes in their parents' entry
        order, so an internal entry's child slot is its own row number), kept
        until the next :meth:`insert`.  Readers probing concurrently after a
        write serialize here, so one of them packs and the others find it
        done."""
        with self._pack_lock:
            if self._pack is None:
                levels, nodes = [], [self.root]
                while True:
                    entries = [entry for node in nodes for entry in node.entries]
                    is_leaf = nodes[0].is_leaf
                    levels.append(_PackedLevel(
                        is_leaf,
                        np.array([len(node.entries) for node in nodes], dtype=np.intp),
                        np.array([entry.rect.low for entry in entries]
                                 ).reshape(-1, self.dimension),
                        np.array([entry.rect.high for entry in entries]
                                 ).reshape(-1, self.dimension),
                        _record_array([entry.record for entry in entries]) if is_leaf
                        else np.arange(len(entries), dtype=np.intp)))
                    if is_leaf:
                        break
                    nodes = [self.node(entry.child_id) for entry in entries]
                self._pack = PackedRTree(self.dimension, self.max_entries, levels)
            return self._pack

    @property
    def access_stats(self) -> NodeAccessStats:
        """The packed form's counters (a fresh pack starts from zero)."""
        return self.packed().access_stats

    def reset_stats(self) -> None:
        """Zero the access counters."""
        self.packed().reset_stats()

    def window_search(self, window_lows: np.ndarray, window_highs: np.ndarray,
                      transformation: RealLinearTransformation | None = None,
                      periodic_dims: np.ndarray | None = None) -> list[np.ndarray]:
        """:meth:`PackedRTree.window_search` over :meth:`packed`."""
        return self.packed().window_search(window_lows, window_highs,
                                           transformation, periodic_dims)

    def search(self, window: Rect) -> list[Any]:
        """:meth:`PackedRTree.search` over :meth:`packed`."""
        return self.packed().search(window)

    def search_many(self, windows: Sequence[Rect], *,
                    periodic_dims: np.ndarray | None = None) -> list[list[Any]]:
        """:meth:`PackedRTree.search_many` over :meth:`packed`."""
        return self.packed().search_many(windows, periodic_dims=periodic_dims)

    def nearest_search(self, k: int,
                       lower_bound: Callable[[np.ndarray, np.ndarray], np.ndarray],
                       exact: Callable[[np.ndarray], np.ndarray] | None = None,
                       transformation: RealLinearTransformation | None = None,
                       seeds: tuple[np.ndarray, np.ndarray] | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`PackedRTree.nearest_search` over :meth:`packed`."""
        return self.packed().nearest_search(k, lower_bound, exact, transformation, seeds)

    def nearest_neighbors(self, point: Sequence[float] | np.ndarray, k: int = 1
                          ) -> list[tuple[float, Any]]:
        """:meth:`PackedRTree.nearest_neighbors` over :meth:`packed`."""
        return self.packed().nearest_neighbors(point, k)

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, rect_or_point: Rect | Sequence[float] | np.ndarray, record: Any) -> None:
        """Insert a record under a rectangle (or a point)."""
        rect = rect_or_point if isinstance(rect_or_point, Rect) else Rect.from_point(rect_or_point)
        if rect.dimension != self.dimension:
            raise IndexError_(
                f"rectangle of dimension {rect.dimension} inserted into a tree of "
                f"dimension {self.dimension}"
            )
        if not (np.isfinite(rect.low).all() and np.isfinite(rect.high).all()):
            raise IndexError_("every rectangle corner must be finite")
        self._pack = None
        entry = RTreeEntry(rect=rect, record=record)
        leaf = self._choose_leaf(self.root, entry)
        leaf.entries.append(entry)
        self._size += 1
        if len(leaf.entries) > self.max_entries:
            self._handle_overflow(leaf)
        else:
            self._adjust_upward(leaf)

    def _choose_leaf(self, node: RTreeNode, entry: RTreeEntry) -> RTreeNode:
        while not node.is_leaf:
            best = min(node.entries,
                       key=lambda e: (e.rect.enlargement(entry.rect), e.rect.area()))
            node = self.node(best.child_id)
        return node

    def _handle_overflow(self, node: RTreeNode) -> None:
        self._split(node)

    def _split(self, node: RTreeNode) -> None:
        group_a, group_b = self._split_entries(node.entries)
        sibling = self._new_node(is_leaf=node.is_leaf)
        node.entries = group_a
        sibling.entries = group_b
        if not node.is_leaf:
            for entry in sibling.entries:
                child = self.node(entry.child_id)
                child.parent_id = sibling.node_id
        if node.node_id == self.root_id:
            new_root = self._new_node(is_leaf=False)
            new_root.entries = [
                RTreeEntry(rect=node.mbr(), child_id=node.node_id),
                RTreeEntry(rect=sibling.mbr(), child_id=sibling.node_id),
            ]
            node.parent_id = new_root.node_id
            sibling.parent_id = new_root.node_id
            self.root_id = new_root.node_id
            return
        parent = self.node(node.parent_id)
        for entry in parent.entries:
            if entry.child_id == node.node_id:
                entry.rect = node.mbr()
                break
        sibling.parent_id = parent.node_id
        parent.entries.append(RTreeEntry(rect=sibling.mbr(), child_id=sibling.node_id))
        if len(parent.entries) > self.max_entries:
            self._handle_overflow(parent)
        else:
            self._adjust_upward(parent)

    def _adjust_upward(self, node: RTreeNode) -> None:
        while node.parent_id is not None:
            parent = self.node(node.parent_id)
            for entry in parent.entries:
                if entry.child_id == node.node_id:
                    entry.rect = node.mbr()
                    break
            node = parent

    # -- split heuristics ----------------------------------------------------
    def _split_entries(self, entries: list[RTreeEntry]
                       ) -> tuple[list[RTreeEntry], list[RTreeEntry]]:
        if self.split_policy == "linear":
            seed_a, seed_b = self._linear_seeds(entries)
        else:
            seed_a, seed_b = self._quadratic_seeds(entries)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        rect_a = entries[seed_a].rect
        rect_b = entries[seed_b].rect
        remaining = [e for i, e in enumerate(entries) if i not in (seed_a, seed_b)]
        while remaining:
            # If one group must take everything left to reach the minimum, do so.
            if len(group_a) + len(remaining) == self.min_entries:
                group_a.extend(remaining)
                break
            if len(group_b) + len(remaining) == self.min_entries:
                group_b.extend(remaining)
                break
            entry = self._pick_next(remaining, rect_a, rect_b)
            remaining.remove(entry)
            grow_a = rect_a.enlargement(entry.rect)
            grow_b = rect_b.enlargement(entry.rect)
            if (grow_a, rect_a.area(), len(group_a)) <= (grow_b, rect_b.area(), len(group_b)):
                group_a.append(entry)
                rect_a = rect_a.union(entry.rect)
            else:
                group_b.append(entry)
                rect_b = rect_b.union(entry.rect)
        return group_a, group_b

    def _pick_next(self, remaining: list[RTreeEntry], rect_a: Rect, rect_b: Rect) -> RTreeEntry:
        if self.split_policy == "linear":
            return remaining[0]
        best_entry = remaining[0]
        best_difference = -1.0
        for entry in remaining:
            difference = abs(rect_a.enlargement(entry.rect) - rect_b.enlargement(entry.rect))
            if difference > best_difference:
                best_difference = difference
                best_entry = entry
        return best_entry

    @staticmethod
    def _linear_seeds(entries: list[RTreeEntry]) -> tuple[int, int]:
        dimension = entries[0].rect.dimension
        best_pair = (0, 1)
        best_separation = -1.0
        for dim in range(dimension):
            lows = np.array([e.rect.low[dim] for e in entries])
            highs = np.array([e.rect.high[dim] for e in entries])
            width = float(highs.max() - lows.min())
            if width <= 0:
                continue
            highest_low = int(np.argmax(lows))
            lowest_high = int(np.argmin(highs))
            if highest_low == lowest_high:
                continue
            separation = float(lows[highest_low] - highs[lowest_high]) / width
            if separation > best_separation:
                best_separation = separation
                best_pair = (highest_low, lowest_high)
        return best_pair

    @staticmethod
    def _quadratic_seeds(entries: list[RTreeEntry]) -> tuple[int, int]:
        best_pair = (0, 1)
        worst_waste = -math.inf
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                union = entries[i].rect.union(entries[j].rect)
                waste = union.area() - entries[i].rect.area() - entries[j].rect.area()
                if waste > worst_waste:
                    worst_waste = waste
                    best_pair = (i, j)
        return best_pair
