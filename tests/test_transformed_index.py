"""Tests for searching an R-tree under an on-the-fly transformation: the
packed tree's own kernels, :meth:`PackedRTree.window_search` (Algorithm 2),
:meth:`PackedRTree.transformed` (Algorithm 1) and
:meth:`PackedRTree.nearest_search`, probed on what a grown R*-tree hands
over."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.growers import RStarTree
from repro.core.transformations import RealLinearTransformation
from repro.index.geometry import Rect, box_bound
from repro.index.rtree import PackedRTree


@pytest.fixture(scope="module")
def points() -> np.ndarray:
    rng = np.random.default_rng(41)
    return rng.uniform(-50, 50, size=(400, 3))


@pytest.fixture(scope="module")
def tree(points) -> PackedRTree:
    tree = RStarTree(3, max_entries=6)
    for i, point in enumerate(points):
        tree.insert(point, i)
    return tree.packed()


@pytest.fixture(scope="module")
def transformation() -> RealLinearTransformation:
    # A mix of positive scale, negative scale and shifts.
    return RealLinearTransformation([2.0, -0.5, 1.0], [10.0, 0.0, -3.0], name="mixed")


def _range(tree, window: Rect, transformation=None, periodic_dims=None) -> list[int]:
    """The records one window finds, through the frontier kernel."""
    lows, highs = window.low[None, :], window.high[None, :]
    (records,), _ = tree.window_search(lows, highs, transformation, periodic_dims)
    return records.tolist()


def _nearest(tree, point: np.ndarray, k: int, transformation) -> list[int]:
    """The ``k`` nearest records of the transformed data, nearest first."""
    _, records, _ = tree.nearest_search(k, box_bound(point), transformation=transformation)
    return records[:k].tolist()


def _brute_force(
    points: np.ndarray, window: Rect, transformation: RealLinearTransformation | None
) -> set[int]:
    result = set()
    for i, point in enumerate(points):
        image = transformation.apply(point) if transformation is not None else point
        if np.all(image >= window.low) and np.all(image <= window.high):
            result.add(i)
    return result


class TestTransformedRangeSearch:
    def test_identity_equals_plain_search(self, tree, points):
        window = Rect([-10.0, -10.0, -10.0], [10.0, 10.0, 10.0])
        identity = RealLinearTransformation.identity(3)
        assert set(_range(tree, window, identity)) == set(tree.search(window))

    def test_matches_brute_force_under_transformation(self, tree, points, transformation):
        rng = np.random.default_rng(42)
        for _ in range(15):
            low = rng.uniform(-80, 60, size=3)
            window = Rect(low, low + rng.uniform(5, 40, size=3))
            got = set(_range(tree, window, transformation))
            assert got == _brute_force(points, window, transformation)

    def test_none_transformation_is_plain_search(self, tree, points):
        window = Rect([0.0, 0.0, 0.0], [25.0, 25.0, 25.0])
        assert set(_range(tree, window)) == _brute_force(points, window, None)

    def test_periodic_dims_wrap_the_window(self, tree, points):
        # A window one turn away along a periodic dimension finds what the
        # window itself finds; as a plain dimension it finds nothing.
        window = Rect([-20.0, -1.0, -20.0], [20.0, 1.0, 20.0])
        turned = Rect(window.low + [0.0, 2 * np.pi, 0.0], window.high + [0.0, 2 * np.pi, 0.0])
        periodic = np.array([False, True, False])
        wrapped = _range(tree, turned, periodic_dims=periodic)
        inside = np.abs((points[:, 1] + np.pi) % (2 * np.pi) - np.pi) <= 1.0
        inside &= np.all(np.abs(points[:, [0, 2]]) <= 20.0, axis=1)
        assert set(wrapped) == set(np.nonzero(inside)[0])
        assert set(wrapped) >= set(_range(tree, window))
        # The mask is read as booleans whatever sequence carries it.
        for mask in ([False, True, False], (0, 1, 0), np.array([0, 1, 0])):
            assert _range(tree, turned, periodic_dims=mask) == wrapped
        assert _range(tree, Rect([-20.0, 60.0, -20.0], [20.0, 62.0, 20.0])) == []

    def test_candidates_come_back_in_ascending_record_id(self, tree, transformation):
        window = Rect([-60.0] * 3, [60.0] * 3)
        found = _range(tree, window, transformation)
        assert len(found) > 10 and found == sorted(found)


class TestMaterializedTree:
    def test_same_answers_as_lazy_search(self, tree, points, transformation):
        clone = tree.transformed(transformation)
        rng = np.random.default_rng(43)
        for _ in range(10):
            low = rng.uniform(-80, 60, size=3)
            window = Rect(low, low + rng.uniform(5, 40, size=3))
            assert set(clone.search(window)) == set(_range(tree, window, transformation))

    def test_same_structure(self, tree, transformation):
        """Algorithm 1 maps the rectangles and keeps the structure: level for
        level the same nodes, the same payloads, every corner the image of
        the original's (a negative scale swaps low and high)."""
        clone = tree.transformed(transformation)
        packed = tree
        assert clone is not packed and len(clone) == len(packed) == len(tree)
        assert clone.height() == tree.height()
        for mapped, level in zip(clone.levels, packed.levels):
            assert mapped.is_leaf == level.is_leaf
            assert np.array_equal(mapped.counts, level.counts)
            assert np.array_equal(mapped.payloads, level.payloads)
            images = np.stack([transformation.apply(level.lows), transformation.apply(level.highs)])
            assert np.array_equal(mapped.lows, images.min(axis=0))
            assert np.array_equal(mapped.highs, images.max(axis=0))
        # Mapping the packed form again gives the same tree; the original is
        # left alone.
        again = packed.transformed(transformation)
        for a, b in zip(again.levels, clone.levels):
            assert np.array_equal(a.lows, b.lows) and np.array_equal(a.highs, b.highs)
        assert np.array_equal(packed.levels[-1].lows, packed.levels[-1].highs)


class TestTransformedNearestNeighbors:
    def test_matches_brute_force(self, tree, points, transformation):
        rng = np.random.default_rng(44)
        for _ in range(8):
            query = rng.uniform(-60, 60, size=3)
            got = _nearest(tree, query, 4, transformation)
            ranked = sorted(
                (np.linalg.norm(transformation.apply(points[i]) - query), i)
                for i in range(len(points))
            )
            assert got == [i for _, i in ranked[:4]]

    def test_k_validation(self, tree):
        with pytest.raises(ValueError):
            _nearest(tree, np.zeros(3), 0, None)
