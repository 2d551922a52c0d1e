"""Tests for rectangle geometry, MINDIST and MINMAXDIST."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DimensionMismatchError
from repro.index.geometry import Rect, mindist

coords = st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
                  min_size=2, max_size=4)


def _random_rect(rng: np.random.Generator, dimension: int) -> Rect:
    low = rng.uniform(-10, 10, size=dimension)
    return Rect(low, low + rng.uniform(0, 10, size=dimension))


class TestRect:
    def test_construction_validates_bounds(self):
        with pytest.raises(ValueError):
            Rect([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            Rect([0.0], [1.0, 1.0])

    def test_from_point_is_degenerate(self):
        rect = Rect.from_point([1.0, 2.0])
        assert rect.is_point()
        assert rect.area() == 0.0

    def test_area_and_margin(self):
        rect = Rect([0.0, 0.0], [2.0, 3.0])
        assert rect.area() == 6.0
        assert rect.margin() == 5.0
        assert np.allclose(rect.center(), [1.0, 1.5])

    def test_intersects_and_contains(self):
        a = Rect([0.0, 0.0], [2.0, 2.0])
        b = Rect([1.0, 1.0], [3.0, 3.0])
        c = Rect([5.0, 5.0], [6.0, 6.0])
        inner = Rect([0.5, 0.5], [1.0, 1.0])
        assert a.intersects(b)
        assert not a.intersects(c)
        assert a.contains(inner)
        assert not a.contains(b)
        assert a.contains_point([1.0, 1.0])
        assert not a.contains_point([3.0, 0.0])

    def test_touching_rectangles_intersect(self):
        a = Rect([0.0], [1.0])
        b = Rect([1.0], [2.0])
        assert a.intersects(b)

    def test_intersection_and_overlap_area(self):
        a = Rect([0.0, 0.0], [2.0, 2.0])
        b = Rect([1.0, 1.0], [3.0, 3.0])
        region = a.intersection(b)
        assert region == Rect([1.0, 1.0], [2.0, 2.0])
        assert a.overlap_area(b) == 1.0
        assert a.intersection(Rect([5.0, 5.0], [6.0, 6.0])) is None

    def test_union_and_enlargement(self):
        a = Rect([0.0, 0.0], [1.0, 1.0])
        b = Rect([2.0, 2.0], [3.0, 3.0])
        union = a.union(b)
        assert union == Rect([0.0, 0.0], [3.0, 3.0])
        assert a.enlargement(b) == union.area() - a.area()

    def test_union_of_many(self):
        rects = [Rect.from_point([float(i), float(-i)]) for i in range(4)]
        assert Rect.union_of(rects) == Rect([0.0, -3.0], [3.0, 0.0])
        with pytest.raises(ValueError):
            Rect.union_of([])

    def test_expanded(self):
        assert Rect([0.0], [1.0]).expanded(0.5) == Rect([-0.5], [1.5])

    def test_equality_and_hash(self):
        assert Rect([0.0], [1.0]) == Rect([0.0], [1.0])
        assert hash(Rect([0.0], [1.0])) == hash(Rect([0.0], [1.0]))
        assert Rect([0.0], [1.0]) != Rect([0.0], [2.0])

    @given(coords, coords)
    @settings(max_examples=50)
    def test_union_contains_both(self, a, b):
        size = min(len(a), len(b))
        ra = Rect.from_point(a[:size])
        rb = Rect.from_point(b[:size])
        union = ra.union(rb)
        assert union.contains(ra) and union.contains(rb)


class TestNearestMetrics:
    def test_mindist_zero_inside(self):
        rect = Rect([0.0, 0.0], [2.0, 2.0])
        assert mindist([1.0, 1.0], rect) == 0.0

    def test_mindist_outside(self):
        rect = Rect([0.0, 0.0], [1.0, 1.0])
        assert mindist([4.0, 5.0], rect) == pytest.approx(5.0)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            mindist([1.0], Rect([0.0, 0.0], [1.0, 1.0]))

    def test_mindist_lower_bounds_distance_to_contained_points(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            rect = _random_rect(rng, 3)
            point = rng.uniform(-15, 15, size=3)
            inside = rng.uniform(rect.low, rect.high)
            assert mindist(point, rect) <= np.linalg.norm(point - inside) + 1e-9
