"""Tests for the growers — the dynamic R-tree and its R* subclass — probed
through the packed form they hand over (``tree.packed()``)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import IndexError_
from repro.index.geometry import Rect
from repro.bench.growers import RStarTree, RTree
from repro.index.rtree import PackedRTree


def _brute_force_range(points: np.ndarray, window: Rect) -> set[int]:
    return {i for i, point in enumerate(points)
            if np.all(point >= window.low) and np.all(point <= window.high)}


def _visits(tree, window: Rect) -> int:
    """The nodes one search of ``window`` opened."""
    return sum(tree.window_search(window.low[None, :], window.high[None, :])[1])


def _build(cls, points: np.ndarray, **kwargs):
    tree = cls(points.shape[1], **kwargs)
    for i, point in enumerate(points):
        tree.insert(point, i)
    return tree


TREE_CLASSES = [
    pytest.param(lambda dim, **kw: RTree(dim, split="linear", **kw), id="linear"),
    pytest.param(lambda dim, **kw: RTree(dim, split="quadratic", **kw), id="quadratic"),
    pytest.param(lambda dim, **kw: RStarTree(dim, **kw), id="rstar"),
]


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(IndexError_):
            RTree(0)
        with pytest.raises(IndexError_):
            RTree(2, max_entries=1)
        with pytest.raises(IndexError_):
            RTree(2, split="weird")

    def test_dimension_enforced_on_insert(self):
        tree = RTree(3)
        with pytest.raises(IndexError_):
            tree.insert([1.0, 2.0], 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_corners_are_refused(self, bad):
        """No window can ever find a ``nan`` point: taking one would be a
        silent false dismissal, so it is an error at the door — of a grower
        and of the loader alike — and nothing is stored."""
        tree = RTree(2)
        tree.insert([1.0, 2.0], 0)
        for corner in ([bad, 2.0], Rect([0.0, 0.0], [1.0, np.inf])):
            with pytest.raises(IndexError_, match="finite"):
                tree.insert(corner, 1)
        assert len(tree) == 1 and tree.packed().search(Rect([0.0, 0.0], [5.0, 5.0])) == [0]
        points = np.array([[1.0, 2.0], [3.0, bad]])
        with pytest.raises(IndexError_, match="finite"):
            PackedRTree.bulk_load(points, [0, 1])
        with pytest.raises(IndexError_, match="finite"):
            PackedRTree.bulk_load_rects(np.zeros((2, 2)), np.abs(points), [0, 1])

    def test_empty_tree(self):
        tree = RTree(2)
        assert len(tree) == 0
        assert tree.height() == 1
        assert tree.packed().search(Rect([0.0, 0.0], [1.0, 1.0])) == []

    def test_unknown_node_id(self):
        with pytest.raises(IndexError_):
            RTree(2).node(999)


@pytest.mark.parametrize("factory", TREE_CLASSES)
class TestRangeSearch:
    def test_matches_brute_force_uniform(self, factory):
        rng = np.random.default_rng(21)
        points = rng.uniform(0, 100, size=(800, 3))
        tree = factory(3)
        for i, point in enumerate(points):
            tree.insert(point, i)
        pack = tree.packed()
        for _ in range(20):
            low = rng.uniform(0, 80, size=3)
            window = Rect(low, low + rng.uniform(1, 30, size=3))
            assert set(pack.search(window)) == _brute_force_range(points, window)

    def test_matches_brute_force_clustered(self, factory):
        rng = np.random.default_rng(22)
        centers = rng.uniform(0, 100, size=(5, 2))
        points = np.vstack([center + rng.normal(0, 1.5, size=(60, 2)) for center in centers])
        tree = factory(2)
        for i, point in enumerate(points):
            tree.insert(point, i)
        pack = tree.packed()
        for center in centers:
            window = Rect(center - 3, center + 3)
            assert set(pack.search(window)) == _brute_force_range(points, window)

    def test_duplicate_points_all_returned(self, factory):
        tree = factory(2)
        for i in range(10):
            tree.insert([1.0, 1.0], i)
        assert sorted(tree.packed().search(Rect([0.0, 0.0], [2.0, 2.0]))) == list(range(10))

    def test_all_records_preserved(self, factory):
        rng = np.random.default_rng(23)
        points = rng.uniform(0, 10, size=(300, 4))
        tree = factory(4)
        for i, point in enumerate(points):
            tree.insert(point, i)
        assert len(tree) == 300
        assert sorted(tree) == list(range(300))

    def test_node_capacity_respected(self, factory):
        tree = factory(2, max_entries=4)
        rng = np.random.default_rng(24)
        for i in range(200):
            tree.insert(rng.uniform(0, 100, size=2), i)
        stack = [tree.root_id]
        while stack:
            node = tree.node(stack.pop())
            assert len(node.entries) <= tree.max_entries
            if node.node_id != tree.root_id:
                assert len(node.entries) >= 1
            if not node.is_leaf:
                stack.extend(entry.child_id for entry in node.entries)

    def test_parent_mbrs_cover_children(self, factory):
        tree = factory(3)
        rng = np.random.default_rng(25)
        for i in range(300):
            tree.insert(rng.uniform(0, 50, size=3), i)
        stack = [tree.root_id]
        while stack:
            node = tree.node(stack.pop())
            if node.is_leaf:
                continue
            for entry in node.entries:
                child = tree.node(entry.child_id)
                assert entry.rect.contains(child.mbr())
                stack.append(entry.child_id)


@pytest.mark.parametrize("factory", TREE_CLASSES)
class TestNearestNeighbors:
    def test_matches_brute_force(self, factory):
        rng = np.random.default_rng(26)
        points = rng.uniform(0, 100, size=(500, 3))
        tree = factory(3)
        for i, point in enumerate(points):
            tree.insert(point, i)
        pack = tree.packed()
        for _ in range(10):
            query = rng.uniform(0, 100, size=3)
            got = [record for _, record in pack.nearest_neighbors(query, k=5)]
            want = [i for _, i in sorted((np.linalg.norm(points[i] - query), i)
                                         for i in range(len(points)))[:5]]
            assert got == want

    def test_k_validation(self, factory):
        with pytest.raises(ValueError):
            factory(2).packed().nearest_neighbors([0.0, 0.0], k=0)


class TestAccessAccounting:
    def test_search_counts_node_visits(self):
        tree = RTree(2, max_entries=4)
        rng = np.random.default_rng(27)
        for i in range(200):
            tree.insert(rng.uniform(0, 100, size=2), i)
        window = (np.zeros((1, 2)), np.full((1, 2), 10.0))
        pack = tree.packed()
        internal, leaf = pack.window_search(*window)[1]
        assert internal + leaf >= 1
        assert internal >= 1
        # A probe returns its own visits: the next one counts from zero.
        assert pack.window_search(*window)[1] == (internal, leaf)

    def test_counters_are_the_packed_forms(self):
        """A grower counts nothing itself: the visits are its pack's, and
        every pack holds every insert made before it."""
        tree = RTree(2, max_entries=4)
        rng = np.random.default_rng(28)
        for i in range(100):
            tree.insert(rng.uniform(0, 100, size=2), i)
        window = (np.zeros((1, 2)), np.full((1, 2), 50.0))
        _, visits = tree.packed().window_search(*window)
        assert tree.packed().window_search(*window)[1] == visits and sum(visits) > 1
        for option in ({"page_store": None}, {"buffer_capacity": 8}):
            with pytest.raises(TypeError):
                RTree(2, **option)
        tree.insert([1.0, 1.0], 100)
        assert len(tree.packed()) == len(tree) == 101

    def test_bulk_load_equivalent_answers(self):
        rng = np.random.default_rng(29)
        points = rng.uniform(0, 100, size=(400, 2))
        loaded = PackedRTree.bulk_load(points, list(range(400)), max_entries=8)
        window = Rect([10.0, 10.0], [40.0, 40.0])
        assert set(loaded.search(window)) == _brute_force_range(points, window)
        with pytest.raises(IndexError_):
            PackedRTree.bulk_load(points, list(range(5)))


class TestRStarSpecifics:
    def test_rstar_never_worse_height_than_much(self):
        rng = np.random.default_rng(30)
        points = rng.uniform(0, 100, size=(1000, 4))
        plain = _build(RTree, points, split="quadratic")
        star = _build(RStarTree, points)
        assert star.height() <= plain.height() + 1

    def test_rstar_fewer_or_equal_node_accesses_on_clustered_data(self):
        rng = np.random.default_rng(31)
        centers = rng.uniform(0, 100, size=(8, 4))
        points = np.vstack([center + rng.normal(0, 1.0, size=(100, 4))
                            for center in centers])
        plain = _build(RTree, points, split="linear").packed()
        star = _build(RStarTree, points).packed()
        windows = [Rect(center - 2, center + 2) for center in centers]
        for window in windows:
            assert set(plain.search(window)) == set(star.search(window))
        assert (sum(_visits(star, window) for window in windows)
                <= sum(_visits(plain, window) for window in windows))

    @given(st.integers(min_value=20, max_value=120), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_property_rstar_range_queries_correct(self, count, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(0, 50, size=(count, 2))
        tree = _build(RStarTree, points, max_entries=5)
        low = rng.uniform(0, 40, size=2)
        window = Rect(low, low + rng.uniform(1, 15, size=2))
        assert set(tree.packed().search(window)) == _brute_force_range(points, window)
