"""The R*-tree (Beckmann, Kriegel, Schneider, Seeger, 1990).

The companion evaluation was implemented on top of Beckmann's R*-tree; this
module provides the variant as a subclass of the plain
:class:`~repro.index.rtree.RTree` so the two share the node graph and the
hand-over to the packed form every probe runs on.  The R*-tree improvements
implemented here are:

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

import math

import numpy as np

from .geometry import Rect
from .rtree import RTree, RTreeEntry, RTreeNode

__all__ = ["RStarTree"]


class RStarTree(RTree):
    """R*-tree: an :class:`RTree` with improved insertion heuristics."""

    #: Fraction of a node's entries removed during forced reinsertion.
    REINSERT_FRACTION = 0.3

    def __init__(self, dimension: int, max_entries: int = 8,
                 min_entries: int | None = None) -> None:
        super().__init__(dimension, max_entries=max_entries, min_entries=min_entries,
                         split="quadratic")
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
                best = min(node.entries,
                           key=lambda e: (e.rect.enlargement(entry.rect), e.rect.area()))
            node = self.node(best.child_id)
        return node

    def _least_overlap_child(self, node: RTreeNode, entry: RTreeEntry) -> RTreeEntry:
        best_entry = node.entries[0]
        best_key = (math.inf, math.inf, math.inf)
        for candidate in node.entries:
            enlarged = candidate.rect.union(entry.rect)
            overlap_before = sum(candidate.rect.overlap_area(other.rect)
                                 for other in node.entries if other is not candidate)
            overlap_after = sum(enlarged.overlap_area(other.rect)
                                for other in node.entries if other is not candidate)
            key = (overlap_after - overlap_before,
                   candidate.rect.enlargement(entry.rect),
                   candidate.rect.area())
            if key < best_key:
                best_key = key
                best_entry = candidate
        return best_entry

    def _handle_overflow(self, node: RTreeNode) -> None:
        level = self._depth(node)
        can_reinsert = (node.node_id != self.root_id
                        and not self._reinserting
                        and level not in self._overflow_handled_levels)
        if can_reinsert:
            self._overflow_handled_levels.add(level)
            self._forced_reinsert(node)
        else:
            self._split(node)

    def _forced_reinsert(self, node: RTreeNode) -> None:
        center = node.mbr().center()
        ranked = sorted(node.entries,
                        key=lambda e: float(np.linalg.norm(e.rect.center() - center)),
                        reverse=True)
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

    def _choose_internal(self, root: RTreeNode, entry: RTreeEntry, target_level: int
                         ) -> RTreeNode:
        node = root
        level = self._depth(node)
        while level > target_level and not node.is_leaf:
            best = min(node.entries,
                       key=lambda e: (e.rect.enlargement(entry.rect), e.rect.area()))
            node = self.node(best.child_id)
            level -= 1
        return node

    # ------------------------------------------------------------------
    # R* split
    # ------------------------------------------------------------------
    def _split_entries(self, entries: list[RTreeEntry]
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
