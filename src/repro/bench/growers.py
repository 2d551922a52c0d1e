"""The dynamic trees of the evaluation: R-trees grown by insertion.

:class:`RTree` (Guttman, 1984: linear and quadratic node splits) and its
subclass :class:`RStarTree` (Beckmann, Kriegel, Schneider, Seeger, 1990) are
*growers*: a graph of node objects that one :meth:`RTree.insert` at a time
shapes with the dynamic trees' heuristics.  The evaluation's figures and the
tree-variant ablation were measured on such trees, and nothing else grows
one.  A grower answers no probe: :meth:`RTree.packed` hands over its packed
form, a :class:`~repro.index.rtree.PackedRTree`, built in one pass each time
it is called, so a caller packs once after its last insert.
:func:`insertion_built` is the k-index whose tree an :class:`RStarTree`
grew.

The R*-tree improvements implemented here are:

* **choose-subtree** — at the level just above the leaves the child with the
  least *overlap enlargement* is chosen (ties broken by area enlargement then
  area); higher levels fall back to least area enlargement.
* **split** — the split axis is the one minimising total margin over all
  candidate distributions, and the distribution along that axis minimises
  overlap (then area).
* **forced reinsertion** — on the first overflow at each level, the 30% of
  entries farthest from the node centre are reinserted rather than splitting
  immediately, which tightens the tree over time.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.errors import IndexError_
from ..index.geometry import Rect
from ..index.kindex import KIndex
from ..index.rtree import PackedRTree, _min_entries, _PackedLevel, _record_array
from ..timeseries.features import SeriesFeatureExtractor
from ..timeseries.series import TimeSeries

__all__ = ["RTreeEntry", "RTreeNode", "RTree", "RStarTree", "insertion_built"]


@dataclass
class RTreeEntry:
    """One slot of a node: a bounding rectangle plus either a child node id
    (internal nodes) or a data record (leaf nodes)."""

    rect: Rect
    child_id: int | None = None
    record: Any = None


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


class RTree:
    """A dynamic R-tree: grown by :meth:`insert`, handed over by :meth:`packed`.

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

    def __init__(
        self,
        dimension: int,
        max_entries: int = 8,
        min_entries: int | None = None,
        split: str = "quadratic",
    ) -> None:
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

    def packed(self) -> PackedRTree:
        """The tree as a :class:`~repro.index.rtree.PackedRTree`: one pass
        over the node graph, level by level from the root (a level's nodes
        in their parents' entry order, so an internal entry's child slot is
        its own row number).  Every call packs afresh."""
        levels, nodes = [], [self.root]
        while True:
            entries = [entry for node in nodes for entry in node.entries]
            is_leaf = nodes[0].is_leaf
            levels.append(
                _PackedLevel(
                    is_leaf,
                    np.array([len(node.entries) for node in nodes], dtype=np.intp),
                    np.array([entry.rect.low for entry in entries]).reshape(-1, self.dimension),
                    np.array([entry.rect.high for entry in entries]).reshape(-1, self.dimension),
                    _record_array([entry.record for entry in entries])
                    if is_leaf
                    else np.arange(len(entries), dtype=np.intp),
                )
            )
            if is_leaf:
                return PackedRTree(self.dimension, self.max_entries, levels)
            nodes = [self.node(entry.child_id) for entry in entries]

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
            best = min(node.entries, key=lambda e: (e.rect.enlargement(entry.rect), e.rect.area()))
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
    def _split_entries(
        self, entries: list[RTreeEntry]
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


class RStarTree(RTree):
    """R*-tree: an :class:`RTree` with improved insertion heuristics."""

    #: Fraction of a node's entries removed during forced reinsertion.
    REINSERT_FRACTION = 0.3

    def __init__(
        self, dimension: int, max_entries: int = 8, min_entries: int | None = None
    ) -> None:
        super().__init__(
            dimension, max_entries=max_entries, min_entries=min_entries, split="quadratic"
        )
        self._reinserting = False
        self._overflow_handled_levels: set[int] = set()

    # ------------------------------------------------------------------
    # insertion overrides
    # ------------------------------------------------------------------
    def insert(self, rect_or_point, record) -> None:  # noqa: D102 - inherits docstring
        self._overflow_handled_levels = set()
        super().insert(rect_or_point, record)

    def _choose_leaf(self, node: RTreeNode, entry: RTreeEntry) -> RTreeNode:
        while not node.is_leaf:
            children_are_leaves = self.node(node.entries[0].child_id).is_leaf
            if children_are_leaves:
                best = self._least_overlap_child(node, entry)
            else:
                best = min(
                    node.entries, key=lambda e: (e.rect.enlargement(entry.rect), e.rect.area())
                )
            node = self.node(best.child_id)
        return node

    def _least_overlap_child(self, node: RTreeNode, entry: RTreeEntry) -> RTreeEntry:
        best_entry = node.entries[0]
        best_key = (math.inf, math.inf, math.inf)
        for candidate in node.entries:
            enlarged = candidate.rect.union(entry.rect)
            overlap_before = sum(
                candidate.rect.overlap_area(other.rect)
                for other in node.entries
                if other is not candidate
            )
            overlap_after = sum(
                enlarged.overlap_area(other.rect)
                for other in node.entries
                if other is not candidate
            )
            key = (
                overlap_after - overlap_before,
                candidate.rect.enlargement(entry.rect),
                candidate.rect.area(),
            )
            if key < best_key:
                best_key = key
                best_entry = candidate
        return best_entry

    def _handle_overflow(self, node: RTreeNode) -> None:
        level = self._depth(node)
        can_reinsert = (
            node.node_id != self.root_id
            and not self._reinserting
            and level not in self._overflow_handled_levels
        )
        if can_reinsert:
            self._overflow_handled_levels.add(level)
            self._forced_reinsert(node)
        else:
            self._split(node)

    def _forced_reinsert(self, node: RTreeNode) -> None:
        center = node.mbr().center()
        ranked = sorted(
            node.entries,
            key=lambda e: float(np.linalg.norm(e.rect.center() - center)),
            reverse=True,
        )
        count = max(1, int(self.REINSERT_FRACTION * len(node.entries)))
        to_reinsert = ranked[:count]
        node.entries = [entry for entry in node.entries if entry not in to_reinsert]
        self._adjust_upward(node)
        self._reinserting = True
        try:
            for entry in reversed(to_reinsert):
                if node.is_leaf:
                    leaf = self._choose_leaf(self.root, entry)
                    leaf.entries.append(entry)
                    if len(leaf.entries) > self.max_entries:
                        self._split(leaf)
                    else:
                        self._adjust_upward(leaf)
                else:
                    # Internal-node reinsertion: reattach the subtree at the
                    # same level by choosing the best internal parent.
                    target = self._choose_internal(self.root, entry, self._depth(node))
                    entry_child = self.node(entry.child_id)
                    entry_child.parent_id = target.node_id
                    target.entries.append(entry)
                    if len(target.entries) > self.max_entries:
                        self._split(target)
                    else:
                        self._adjust_upward(target)
        finally:
            self._reinserting = False

    def _choose_internal(self, root: RTreeNode, entry: RTreeEntry, target_level: int) -> RTreeNode:
        node = root
        level = self._depth(node)
        while level > target_level and not node.is_leaf:
            best = min(node.entries, key=lambda e: (e.rect.enlargement(entry.rect), e.rect.area()))
            node = self.node(best.child_id)
            level -= 1
        return node

    # ------------------------------------------------------------------
    # R* split
    # ------------------------------------------------------------------
    def _split_entries(
        self, entries: list[RTreeEntry]
    ) -> tuple[list[RTreeEntry], list[RTreeEntry]]:
        dimension = entries[0].rect.dimension
        m = self.min_entries
        best_axis = 0
        best_axis_margin = math.inf
        # Choose the axis with the minimum total margin over all distributions.
        for axis in range(dimension):
            margin_total = 0.0
            for ordering in self._axis_orderings(entries, axis):
                for split_point in range(m, len(entries) - m + 1):
                    left = Rect.union_of(e.rect for e in ordering[:split_point])
                    right = Rect.union_of(e.rect for e in ordering[split_point:])
                    margin_total += left.margin() + right.margin()
            if margin_total < best_axis_margin:
                best_axis_margin = margin_total
                best_axis = axis
        # Along the chosen axis, pick the distribution with minimum overlap
        # (resolve ties by minimum total area).
        best_split: tuple[list[RTreeEntry], list[RTreeEntry]] | None = None
        best_key = (math.inf, math.inf)
        for ordering in self._axis_orderings(entries, best_axis):
            for split_point in range(m, len(entries) - m + 1):
                left_entries = ordering[:split_point]
                right_entries = ordering[split_point:]
                left = Rect.union_of(e.rect for e in left_entries)
                right = Rect.union_of(e.rect for e in right_entries)
                key = (left.overlap_area(right), left.area() + right.area())
                if key < best_key:
                    best_key = key
                    best_split = (list(left_entries), list(right_entries))
        assert best_split is not None  # len(entries) > max_entries >= 2m guarantees a split
        return best_split

    @staticmethod
    def _axis_orderings(entries: list[RTreeEntry], axis: int) -> list[list[RTreeEntry]]:
        by_low = sorted(entries, key=lambda e: (e.rect.low[axis], e.rect.high[axis]))
        by_high = sorted(entries, key=lambda e: (e.rect.high[axis], e.rect.low[axis]))
        return [by_low, by_high]


def insertion_built(
    collection: Iterable[TimeSeries],
    extractor: SeriesFeatureExtractor | None = None,
    **options: Any,
) -> KIndex:
    """A k-index whose tree was grown from empty by one
    :meth:`RStarTree.insert` per series, in record-id order — the paper's
    *dynamic* R*-tree (choose-subtree, split, forced reinsertion) — and then
    handed over as its packed form.

    It exists for what compares against such a tree: the evaluation's
    figures (whose node-access numbers were measured on one) and the
    insert-built side of differential tests.  ``options`` are
    :class:`~repro.index.kindex.KIndex`'s keyword arguments.  Rows appended
    later join the tail like any others, and the first seal re-packs the
    index by STR.
    """
    index = KIndex.bulk_load(collection, extractor, **options)
    grower = RStarTree(index.space.dimension, max_entries=index.max_entries)
    for record_id, point in enumerate(index.points(np.arange(len(index)))):
        grower.insert(point, record_id)
    index.tree = grower.packed()
    return index
