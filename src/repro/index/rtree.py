"""An R-tree index (Guttman, 1984) with linear and quadratic node splits.

The tree stores *records* (arbitrary Python objects — usually object ids)
under axis-aligned rectangles; point data is stored as degenerate rectangles.
It supports range (window) search and best-first nearest-neighbour search —
both optionally under an on-the-fly transformation of its rectangles — and
exposes its nodes so that :mod:`repro.index.transformed` can traverse the
same structure.

Probes run over the tree's **packed form**: per level, the entry rectangles
of all nodes stacked into contiguous corner arrays.  One level-synchronous
*frontier kernel* (:meth:`RTree.window_search`) tests a whole level per
numpy call and carries the survivors down, for one window or a batch of
windows alike; one *blocked best-first kernel* (:func:`nearest_search`)
opens the nearest pending nodes a block at a time and verifies pending
records in blocks, for one tree or a forest of them.  The packed form is
brought up to date lazily by the first probe after a mutation, restacking
only the nodes that changed (all of them on the first probe and when the
tree grew a level).

Node accesses are counted per tree (``tree.access_stats``), and when a
:class:`~repro.storage.pages.PageStore` is supplied every node occupies one
simulated page, read through an LRU :class:`~repro.storage.buffer.BufferPool`
during searches, so benchmarks can report "disk" accesses.
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
from ..storage.buffer import BufferPool
from ..storage.pages import PageStore
from .geometry import Rect, mindist_batch, rects_overlap

__all__ = ["RTreeEntry", "RTreeNode", "NodeAccessStats", "RTree", "nearest_search"]


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
    """A node of the tree: a flat list of entries plus bookkeeping."""

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


class _PackedLevel:
    """The nodes of one tree level, each in its own slot of ``width`` rows.

    A changed node is restacked in place and a new node takes the next free
    slot (the arrays grow by doubling), so repacking after an insert touches
    the changed nodes only.  An internal entry's payload is the slot of its
    child in the next level; a leaf entry's payload is its record.
    """

    def __init__(self, dimension: int, width: int, is_leaf: bool) -> None:
        self.width = width
        self.is_leaf = is_leaf
        self.node_ids: list[int] = []                 #: slot -> node id
        self.counts = np.zeros(0, dtype=np.intp)      #: (slots,) entries per node
        self.lows = np.zeros((0, dimension))          #: (slots * width, d) low corners
        self.highs = np.zeros((0, dimension))         #: (slots * width, d) high corners
        self.payloads = np.zeros(0, dtype=np.intp)    #: (slots * width,)

    def rows(self, slots: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Row numbers of the first ``counts[i]`` entries of each ``slots[i]``."""
        return (np.repeat(slots * self.width - np.cumsum(counts) + counts, counts)
                + np.arange(counts.sum()))

    def put(self, slots: np.ndarray, counts: np.ndarray, lows: np.ndarray,
            highs: np.ndarray, payloads: np.ndarray) -> None:
        """Restack the nodes in ``slots`` from their concatenated entries."""
        if counts.max() > self.width:
            raise IndexError_(f"a node holds more than {self.width} entries")
        if len(self.node_ids) > self.counts.size:
            capacity = max(len(self.node_ids), 2 * self.counts.size)
            self.counts = _grown(self.counts, capacity)
            self.lows = _grown(self.lows, capacity * self.width)
            self.highs = _grown(self.highs, capacity * self.width)
            self.payloads = _grown(self.payloads, capacity * self.width)
        if payloads.dtype == object != self.payloads.dtype:
            self.payloads = self.payloads.astype(object)
        rows = self.rows(slots, counts)
        self.counts[slots] = counts
        self.lows[rows], self.highs[rows], self.payloads[rows] = lows, highs, payloads


class RTree:
    """A dynamic R-tree.

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
    page_store:
        Optional simulated page store; when given, each node occupies one
        page and search-time node visits are routed through an LRU buffer
        pool so I/O counts can be reported.
    buffer_capacity:
        Size of the buffer pool used when ``page_store`` is given.
    """

    SPLIT_POLICIES = ("linear", "quadratic")

    def __init__(self, dimension: int, max_entries: int = 8,
                 min_entries: int | None = None, split: str = "quadratic",
                 page_store: PageStore | None = None,
                 buffer_capacity: int = 64) -> None:
        if dimension <= 0:
            raise IndexError_("dimension must be positive")
        if max_entries < 2:
            raise IndexError_("max_entries must be at least 2")
        if split not in self.SPLIT_POLICIES:
            raise IndexError_(f"unknown split policy {split!r}; choose from {self.SPLIT_POLICIES}")
        self.dimension = int(dimension)
        self.max_entries = int(max_entries)
        self.min_entries = (int(min_entries) if min_entries is not None
                            else max(1, math.ceil(0.4 * max_entries)))
        if self.min_entries > self.max_entries // 2:
            self.min_entries = max(1, self.max_entries // 2)
        self.split_policy = split
        self.access_stats = NodeAccessStats()
        self._nodes: dict[int, RTreeNode] = {}
        self._node_counter = itertools.count()
        self._size = 0
        self._page_store = page_store
        self._buffer = (BufferPool(page_store, capacity=buffer_capacity)
                        if page_store is not None else None)
        self._node_pages: dict[int, int] = {}
        self._entry_arrays_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._packed_levels: list[_PackedLevel] | None = None
        self._slots: dict[int, int] = {}    # node id -> slot in its packed level
        self._dirty: set[int] = set()       # nodes changed since the last repack
        self._pack_lock = threading.Lock()  # concurrent readers repack once
        self.root_id = self._new_node(is_leaf=True).node_id

    # ------------------------------------------------------------------
    # node plumbing
    # ------------------------------------------------------------------
    def _new_node(self, is_leaf: bool) -> RTreeNode:
        node = RTreeNode(node_id=next(self._node_counter), is_leaf=is_leaf)
        self._nodes[node.node_id] = node
        if self._page_store is not None:
            self._node_pages[node.node_id] = self._page_store.allocate(node)
        return node

    def node(self, node_id: int) -> RTreeNode:
        """Fetch a node without touching the access counters (structural use)."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise IndexError_(f"unknown node id {node_id}") from None

    def visit(self, node_id: int) -> RTreeNode:
        """Fetch a node *during a search*: counts the access and goes through
        the buffer pool when a page store is attached."""
        node = self.node(node_id)
        if node.is_leaf:
            self.access_stats.leaf += 1
        else:
            self.access_stats.internal += 1
        if self._buffer is not None:
            self._buffer.read(self._node_pages[node_id])
        return node

    def release_pages(self) -> None:
        """Free every simulated page this tree's nodes occupy: the tree is
        being discarded (or, in ``serde``, its node graph replaced)."""
        if self._page_store is not None:
            for page_id in self._node_pages.values():
                self._page_store.free(page_id)
        self._node_pages.clear()

    def _mark_dirty(self, node: RTreeNode) -> None:
        self._entry_arrays_cache.pop(node.node_id, None)
        if self._packed_levels is not None:
            self._dirty.add(node.node_id)
        if self._page_store is not None:
            self._page_store.write(self._node_pages[node.node_id], node)

    def _entry_arrays(self, node: RTreeNode) -> tuple[np.ndarray, np.ndarray]:
        """The node's entry rectangles as stacked ``(n, d)`` corner arrays.

        Cached per node (invalidated by :meth:`_mark_dirty` on any mutation)
        so that repacking after an insert restacks the changed nodes only.
        """
        cached = self._entry_arrays_cache.get(node.node_id)
        if cached is None:
            if node.entries:
                cached = (np.vstack([entry.rect.low for entry in node.entries]),
                          np.vstack([entry.rect.high for entry in node.entries]))
            else:
                cached = (np.empty((0, self.dimension)),) * 2
            self._entry_arrays_cache[node.node_id] = cached
        return cached

    def _packed(self) -> list[_PackedLevel]:
        """The packed form, brought up to date: the nodes a mutation marked
        dirty are restacked — every node on the first probe and whenever the
        tree has a new root (which shifts every depth).  Readers probing
        concurrently after a write serialize here, so one of them repacks and
        the others find the form clean."""
        with self._pack_lock:
            levels = self._packed_levels
            if levels is None or levels[0].node_ids[0] != self.root_id:
                stale = [[self.root]]
                while not stale[-1][0].is_leaf:
                    stale.append([self.node(entry.child_id)
                                  for node in stale[-1] for entry in node.entries])
                levels = self._packed_levels = [
                    _PackedLevel(self.dimension, self.max_entries, nodes[0].is_leaf)
                    for nodes in stale]
                self._slots = {}
            else:
                stale = [[] for _ in levels]
                for node in map(self.node, sorted(self._dirty)):
                    stale[self._depth(node)].append(node)
            self._dirty.clear()
            # Deepest level first: a parent's payloads are its children's slots.
            for level, nodes in zip(reversed(levels), reversed(stale)):
                if nodes:
                    self._restack(level, nodes)
            return levels

    def _restack(self, level: _PackedLevel, nodes: list[RTreeNode]) -> None:
        """Write ``nodes`` into their slots of ``level`` (new nodes take the
        next free slots)."""
        for node in nodes:
            if node.node_id not in self._slots:
                self._slots[node.node_id] = len(level.node_ids)
                level.node_ids.append(node.node_id)
        lows, highs = zip(*map(self._entry_arrays, nodes))
        entries = [entry for node in nodes for entry in node.entries]
        level.put(
            np.array([self._slots[node.node_id] for node in nodes], dtype=np.intp),
            np.array([len(low) for low in lows], dtype=np.intp),
            np.concatenate(lows), np.concatenate(highs),
            _record_array([entry.record for entry in entries]) if level.is_leaf
            else np.array([self._slots[entry.child_id] for entry in entries],
                          dtype=np.intp))

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

    @property
    def buffer(self) -> BufferPool | None:
        """The buffer pool (``None`` when no page store was supplied)."""
        return self._buffer

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

    def reset_stats(self) -> None:
        """Zero the access counters (and buffer statistics, if any)."""
        self.access_stats.reset()
        if self._buffer is not None:
            self._buffer.stats.reset()

    def structure_summary(self) -> dict[str, float]:
        """Structural facts the cost model estimates node accesses from.

        Walks the tree through :meth:`node` (no access counting, no buffer
        traffic): node counts per kind, average fanout, and the average node
        "radius" (half the MBR diagonal) — the amount a query rectangle is
        effectively enlarged by when testing whether a node must be opened.
        """
        leaf_count = internal_count = 0
        leaf_entries = internal_entries = 0
        leaf_radius_total = internal_radius_total = 0.0
        pending = [self.root_id]
        while pending:
            node = self.node(pending.pop())
            radius = 0.0
            if node.entries:
                mbr = node.mbr()
                radius = 0.5 * float(np.linalg.norm(mbr.high - mbr.low))
            if node.is_leaf:
                leaf_count += 1
                leaf_entries += len(node.entries)
                leaf_radius_total += radius
            else:
                internal_count += 1
                internal_entries += len(node.entries)
                internal_radius_total += radius
                pending.extend(entry.child_id for entry in node.entries)
        return {
            "height": float(self.height()),
            "leaf_count": float(leaf_count),
            "internal_count": float(internal_count),
            "node_count": float(leaf_count + internal_count),
            "avg_leaf_fanout": leaf_entries / leaf_count if leaf_count else 0.0,
            "avg_internal_fanout": (internal_entries / internal_count
                                    if internal_count else 0.0),
            "avg_leaf_radius": (leaf_radius_total / leaf_count
                                if leaf_count else 0.0),
            "avg_internal_radius": (internal_radius_total / internal_count
                                    if internal_count else 0.0),
        }

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
        entry = RTreeEntry(rect=rect, record=record)
        leaf = self._choose_leaf(self.root, entry)
        leaf.entries.append(entry)
        self._mark_dirty(leaf)
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
        self._mark_dirty(node)
        self._mark_dirty(sibling)
        if node.node_id == self.root_id:
            new_root = self._new_node(is_leaf=False)
            new_root.entries = [
                RTreeEntry(rect=node.mbr(), child_id=node.node_id),
                RTreeEntry(rect=sibling.mbr(), child_id=sibling.node_id),
            ]
            node.parent_id = new_root.node_id
            sibling.parent_id = new_root.node_id
            self.root_id = new_root.node_id
            self._mark_dirty(new_root)
            return
        parent = self.node(node.parent_id)
        for entry in parent.entries:
            if entry.child_id == node.node_id:
                entry.rect = node.mbr()
                break
        sibling.parent_id = parent.node_id
        parent.entries.append(RTreeEntry(rect=sibling.mbr(), child_id=sibling.node_id))
        self._mark_dirty(parent)
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
            self._mark_dirty(parent)
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

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def window_search(self, window_lows: np.ndarray, window_highs: np.ndarray,
                      transformation: RealLinearTransformation | None = None,
                      periodic_dims: np.ndarray | None = None) -> list[np.ndarray]:
        """Range searches for ``(q, d)`` stacked windows in one shared,
        level-synchronous descent of the packed form (Algorithm 2).

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
        for level in self._packed():
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
        """Count the frontier's nodes as visited (and read their pages through
        the buffer pool): each node once, however many windows opened it."""
        opened = np.zeros(len(level.node_ids), dtype=bool)
        opened[nodes] = True
        count = int(np.count_nonzero(opened))  # a plain int: stats are serialized
        if level.is_leaf:
            self.access_stats.leaf += count
        else:
            self.access_stats.internal += count
        if self._buffer is not None:
            for slot in np.flatnonzero(opened).tolist():
                self._buffer.read(self._node_pages[level.node_ids[slot]])

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
        """:func:`nearest_search` over this tree alone."""
        return nearest_search([self], k, lower_bound, exact, transformation, seeds)

    def nearest_neighbors(self, point: Sequence[float] | np.ndarray, k: int = 1
                          ) -> list[tuple[float, Any]]:
        """The ``k`` records nearest to ``point`` (by Euclidean distance to
        their rectangles), as ``(distance, record)`` pairs sorted by distance
        (integer records at equal distance by ascending record)."""
        point = np.asarray(point, dtype=np.float64).reshape(-1)
        distances, records = self.nearest_search(k, partial(mindist_batch, point))
        return list(zip(distances[:k].tolist(), records[:k].tolist()))

    # ------------------------------------------------------------------
    # iteration / bulk loading
    # ------------------------------------------------------------------
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

    def _str_chunk_sizes(self, count: int) -> list[int]:
        """Split ``count`` entries into node-sized chunks.

        Every chunk is within ``[min_entries, max_entries]`` whenever
        ``count >= min_entries``; a short remainder borrows from the last full
        chunk (possible because ``min_entries <= max_entries // 2``).
        """
        if count <= self.max_entries:
            return [count]
        sizes = [self.max_entries] * (count // self.max_entries)
        remainder = count % self.max_entries
        if remainder:
            if remainder < self.min_entries:
                deficit = self.min_entries - remainder
                sizes[-1] -= deficit
                remainder = self.min_entries
            sizes.append(remainder)
        return sizes

    #: Dimensions whose spread falls below this fraction of the widest
    #: dimension's are skipped when tiling: slicing along a nearly flat (or
    #: periodic, hence low-spread) coordinate scatters neighbours without
    #: buying any pruning power.
    STR_SPREAD_CUTOFF = 0.25

    def _str_tiles(self, centers: np.ndarray) -> list[np.ndarray]:
        """Sort-Tile-Recursive grouping of ``centers`` into node-sized tiles.

        Recursively slices the data into slabs along each tiling dimension in
        turn — ``ceil(P ** (1/d))`` slabs for ``P`` target nodes over ``d``
        remaining dimensions — then chunks the final dimension's ordering
        into runs of node capacity.  Tiling considers only dimensions with
        significant spread, widest first.  Returns index arrays, one per
        future node.
        """
        spread = centers.max(axis=0) - centers.min(axis=0)
        keep = np.nonzero(spread >= spread.max() * self.STR_SPREAD_CUTOFF)[0]
        if keep.size == 0:
            keep = np.array([int(np.argmax(spread))])
        centers = centers[:, keep[np.argsort(-spread[keep])]]
        dimension = centers.shape[1]

        def recurse(indices: np.ndarray, dim: int) -> list[np.ndarray]:
            count = indices.shape[0]
            if count <= self.max_entries:
                return [indices]
            order = indices[np.argsort(centers[indices, dim], kind="stable")]
            if dim == dimension - 1:
                tiles = []
                start = 0
                for size in self._str_chunk_sizes(count):
                    tiles.append(order[start:start + size])
                    start += size
                return tiles
            target_nodes = math.ceil(count / self.max_entries)
            num_slabs = math.ceil(target_nodes ** (1.0 / (dimension - dim)))
            slab_size = math.ceil(count / num_slabs / self.max_entries) * self.max_entries
            tiles = []
            start = 0
            while start < count:
                end = min(count, start + slab_size)
                # Do not leave a tail slab too small to fill a node's minimum.
                if count - end < self.min_entries:
                    end = count
                tiles.extend(recurse(order[start:end], dim + 1))
                start = end
            return tiles

        return recurse(np.arange(centers.shape[0]), 0)

    def bulk_load_rects(self, lows: np.ndarray, highs: np.ndarray,
                        records: Sequence[Any]) -> None:
        """Bottom-up Sort-Tile-Recursive bulk load of rectangle data.

        Packs the data into leaves tile by tile and then builds each internal
        level by STR-packing the level below, producing a tighter and
        shallower tree than one-at-a-time insertion.  The tree must be empty.
        """
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        if lows.ndim != 2 or lows.shape != highs.shape:
            raise IndexError_("bulk load expects matching 2-d corner arrays")
        if lows.shape[1] != self.dimension:
            raise IndexError_(
                f"rectangles of dimension {lows.shape[1]} bulk loaded into a tree of "
                f"dimension {self.dimension}"
            )
        if len(records) != lows.shape[0]:
            raise IndexError_("number of records must match number of rectangles")
        if np.any(lows > highs):
            raise ValueError("every low coordinate must be <= the matching high coordinate")
        if self._size or self.root.entries:
            raise IndexError_("bulk load requires an empty tree")
        if lows.shape[0] == 0:
            return
        placeholder_root = self.root_id
        level_lows, level_highs = lows, highs
        payloads: Sequence[Any] = records
        is_leaf = True
        while True:
            tiles = self._str_tiles((level_lows + level_highs) / 2.0)
            nodes: list[RTreeNode] = []
            next_lows = np.empty((len(tiles), self.dimension))
            next_highs = np.empty((len(tiles), self.dimension))
            for tile_index, tile in enumerate(tiles):
                node = self._new_node(is_leaf=is_leaf)
                # The tile's rows become the node's packed-form arrays as they
                # are, and its rects are views of them: nothing is restacked.
                tile_lows, tile_highs = level_lows[tile], level_highs[tile]
                tile_payloads = [payloads[i] for i in tile.tolist()]
                if is_leaf:
                    node.entries = [
                        RTreeEntry(rect=Rect.trusted(low, high), record=record)
                        for low, high, record in zip(tile_lows, tile_highs, tile_payloads)]
                else:
                    node.entries = [
                        RTreeEntry(rect=Rect.trusted(low, high), child_id=child_id)
                        for low, high, child_id in zip(tile_lows, tile_highs, tile_payloads)]
                    for child_id in tile_payloads:
                        self.node(child_id).parent_id = node.node_id
                self._mark_dirty(node)
                self._entry_arrays_cache[node.node_id] = (tile_lows, tile_highs)
                nodes.append(node)
                next_lows[tile_index] = tile_lows.min(axis=0)
                next_highs[tile_index] = tile_highs.max(axis=0)
            if len(nodes) == 1:
                self.root_id = nodes[0].node_id
                nodes[0].parent_id = None
                break
            level_lows, level_highs = next_lows, next_highs
            payloads = [node.node_id for node in nodes]
            is_leaf = False
        del self._nodes[placeholder_root]
        self._size = lows.shape[0]

    def bulk_load_points(self, points: np.ndarray, records: Sequence[Any]) -> None:
        """STR bulk load of point data (stored as degenerate rectangles)."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise IndexError_("bulk_load expects a 2-d array of points")
        self.bulk_load_rects(points, points, records)

    @classmethod
    def bulk_load(cls, points: np.ndarray, records: Sequence[Any], *,
                  max_entries: int = 8, min_entries: int | None = None,
                  split: str = "quadratic",
                  page_store: PageStore | None = None) -> "RTree":
        """Build a tree from point data with the Sort-Tile-Recursive loader.

        Unlike repeated :meth:`insert` this packs nodes bottom-up to full
        fan-out, so benchmark-scale loads are linear-time and the resulting
        tree is shallower with tighter, barely overlapping rectangles.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise IndexError_("bulk_load expects a 2-d array of points")
        tree = cls(dimension=points.shape[1] or 1,
                   max_entries=max_entries, min_entries=min_entries, split=split,
                   page_store=page_store)
        tree.bulk_load_points(points, records)
        return tree


#: Most pending nodes one step of :func:`nearest_search` opens; the block
#: doubles from 1 up to it.  A wider block means fewer (dispatch-bound) numpy
#: steps per probe but opens nodes a one-at-a-time walk would have pruned: on
#: 5000 series, 1 / 8 / 64 take 94 / 15 / 7 steps a probe and open 0 / 5.5 /
#: 15 % more nodes than the fewest possible.
NEAREST_BLOCK = 8

_SLOT_SPAN = 1 << 32  # a pending node is ``packed level number * span + slot``


def nearest_search(trees: Sequence[RTree], k: int,
                   lower_bound: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   exact: Callable[[np.ndarray], np.ndarray] | None = None,
                   transformation: RealLinearTransformation | None = None,
                   seeds: tuple[np.ndarray, np.ndarray] | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Best-first ``k``-nearest-neighbour search over the packed form of one
    tree or several (a partition forest: one pool seeded with every root),
    a block of nodes per step.

    ``lower_bound(lows, highs)`` maps ``(n, d)`` rectangle corners — already
    mapped by ``transformation``, the on-the-fly image rectangles — to ``(n,)``
    lower bounds on the query's distance to anything inside; ``exact(records)``
    gives the true distances of an array of leaf records (``None``: a leaf
    entry's bound *is* its distance).  ``seeds`` is ``(points, records)``:
    leaf entries no tree holds (a k-index's unindexed tail), pending from the
    start at the bound of their mapped points.

    Each step verifies in one ``exact`` call every pending record no farther
    than both the next pending node and the current k-th exact distance, and
    then opens the nearest pending nodes whose bound is at most that
    distance — 1, 2, 4, then :data:`NEAREST_BLOCK` of them — bounding all
    their children in one ``lower_bound`` call.  The search ends when
    nothing pending is within the k-th distance.  Nothing whose bound
    *equals* that distance is pruned, so records tied at the cut are all
    verified.

    Returns ``(distances, records)`` of every verified record, ascending by
    distance (integer records at equal distance by ascending record — a
    scan's order): the first ``k`` are the answer, the length is the number
    of candidates verified.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    levels: list[tuple[RTree, _PackedLevel]] = []
    roots = []
    for tree in trees:
        roots.append(len(levels) * _SLOT_SPAN)
        levels.extend((tree, level) for level in tree._packed())  # noqa: SLF001
    node_bounds = np.zeros(len(roots))            # pending nodes, ascending bound
    node_refs = np.array(roots, dtype=np.int64)
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
            (tree, level), slots = levels[number], np.array(slots, dtype=np.intp)
            tree._charge(level, slots)  # noqa: SLF001
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


def _record_array(records: list[Any]) -> np.ndarray:
    """Leaf payloads as an array: integer ids stay numeric (sortable,
    gatherable into the columnar store), anything else — bools and integers
    too large for an index included — is held as the objects given."""
    if all(issubclass(kind, (int, np.integer)) and kind is not bool
           for kind in set(map(type, records))):
        try:
            return np.array(records, dtype=np.intp)
        except OverflowError:
            pass
    return np.fromiter(records, dtype=object, count=len(records))


def _grown(array: np.ndarray, rows: int) -> np.ndarray:
    """``array`` extended with zero rows to ``rows`` rows."""
    grown = np.zeros((rows,) + array.shape[1:], dtype=array.dtype)
    grown[:len(array)] = array
    return grown
