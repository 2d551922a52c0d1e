"""Tests for the rectangular and polar feature spaces."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DimensionMismatchError
from repro.core.spaces import PolarSpace, RectangularSpace

complex_features = st.lists(
    st.complex_numbers(min_magnitude=0.0, max_magnitude=1e3, allow_nan=False,
                       allow_infinity=False),
    min_size=1, max_size=4)


class TestRectangularSpace:
    def test_dimension(self):
        assert RectangularSpace(3, 2).dimension == 8

    def test_encode_layout(self):
        space = RectangularSpace(2, 1)
        point = space.encode([1 + 2j, 3 - 4j], [7.0])
        assert point.as_tuple() == (7.0, 1.0, 2.0, 3.0, -4.0)

    def test_roundtrip(self):
        space = RectangularSpace(2, 2)
        extra, feats = space.decode(space.encode([1 + 1j, -2j], [0.5, 1.5]))
        assert np.allclose(extra, [0.5, 1.5])
        assert np.allclose(feats, [1 + 1j, -2j])

    def test_encode_arity_checks(self):
        space = RectangularSpace(2, 1)
        with pytest.raises(DimensionMismatchError):
            space.encode([1 + 1j], [0.0])
        with pytest.raises(DimensionMismatchError):
            space.encode([1 + 1j, 2j], [])

    def test_search_rectangle_is_symmetric_box(self):
        space = RectangularSpace(1, 0)
        low, high = space.search_rectangle(space.encode([3 + 4j]), 0.5)
        assert np.allclose(low, [2.5, 3.5])
        assert np.allclose(high, [3.5, 4.5])

    def test_search_rectangle_rejects_negative_epsilon(self):
        space = RectangularSpace(1, 0)
        with pytest.raises(ValueError):
            space.search_rectangle(space.encode([1 + 1j]), -1.0)

    def test_distance_matches_complex_distance(self):
        space = RectangularSpace(2, 0)
        a = space.encode([1 + 1j, 2 + 2j])
        b = space.encode([1 - 1j, 2 + 2j])
        assert space.distance(a, b) == pytest.approx(2.0)

    @given(complex_features)
    @settings(max_examples=50)
    def test_roundtrip_property(self, feats):
        space = RectangularSpace(len(feats), 0)
        _, decoded = space.decode(space.encode(feats))
        assert np.allclose(decoded, feats)

    def test_equality_and_hash(self):
        assert RectangularSpace(2, 1) == RectangularSpace(2, 1)
        assert RectangularSpace(2, 1) != RectangularSpace(2, 0)
        assert RectangularSpace(2, 1) != PolarSpace(2, 1)
        assert hash(RectangularSpace(2, 1)) == hash(RectangularSpace(2, 1))


class TestPolarSpace:
    def test_encode_layout(self):
        space = PolarSpace(1, 0)
        point = space.encode([1j])
        assert point[0] == pytest.approx(1.0)
        assert point[1] == pytest.approx(math.pi / 2)

    def test_roundtrip(self):
        space = PolarSpace(2, 1)
        extra, feats = space.decode(space.encode([3 + 4j, -1 - 1j], [2.0]))
        assert np.allclose(extra, [2.0])
        assert np.allclose(feats, [3 + 4j, -1 - 1j])

    def test_distance_matches_complex_distance(self):
        space = PolarSpace(1, 0)
        a = space.encode([2 + 0j])
        b = space.encode([0 + 2j])
        assert space.distance(a, b) == pytest.approx(abs((2 + 0j) - 2j))

    def test_search_rectangle_small_epsilon(self):
        space = PolarSpace(1, 0)
        point = space.encode([4 + 0j])
        low, high = space.search_rectangle(point, 2.0)
        assert low[0] == pytest.approx(2.0)
        assert high[0] == pytest.approx(6.0)
        assert low[1] == pytest.approx(-math.asin(0.5))
        assert high[1] == pytest.approx(math.asin(0.5))

    def test_search_rectangle_large_epsilon_covers_all_angles(self):
        space = PolarSpace(1, 0)
        low, high = space.search_rectangle(space.encode([1 + 0j]), 5.0)
        assert low[0] == 0.0  # magnitudes never go negative
        assert low[1] == pytest.approx(-math.pi)
        assert high[1] == pytest.approx(math.pi)

    @given(complex_features, st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=60)
    def test_search_rectangle_contains_epsilon_ball(self, feats, epsilon):
        """No false dismissals: every point within epsilon of the query has
        its polar encoding inside the search rectangle (angles mod 2*pi)."""
        space = PolarSpace(len(feats), 0)
        query = space.encode(feats)
        low, high = space.search_rectangle(query, epsilon)
        rng = np.random.default_rng(0)
        base = np.asarray(feats, dtype=np.complex128)
        for _ in range(10):
            direction = rng.normal(size=len(feats)) + 1j * rng.normal(size=len(feats))
            norm = np.linalg.norm(direction)
            if norm == 0:
                continue
            offset = direction / norm * rng.uniform(0, epsilon)
            neighbor = space.encode(base + offset)
            for i in range(len(feats)):
                magnitude = neighbor[2 * i]
                angle = neighbor[2 * i + 1]
                assert low[2 * i] - 1e-9 <= magnitude <= high[2 * i] + 1e-9
                assert PolarSpace.angle_intervals_overlap(angle, angle,
                                                          low[2 * i + 1], high[2 * i + 1])

    def test_normalize_angle(self):
        assert PolarSpace.normalize_angle(3 * math.pi) == pytest.approx(math.pi)
        assert PolarSpace.normalize_angle(-math.pi / 2) == pytest.approx(-math.pi / 2)
        assert -math.pi < PolarSpace.normalize_angle(123.456) <= math.pi

    def test_angle_interval_overlap_with_wraparound(self):
        # [pi - 0.1, pi + 0.2] wraps; -pi + 0.05 is inside it.
        assert PolarSpace.angle_intervals_overlap(math.pi - 0.1, math.pi + 0.2,
                                                  -math.pi + 0.05, -math.pi + 0.05)
        assert not PolarSpace.angle_intervals_overlap(0.0, 0.1, 1.0, 1.1)
        assert PolarSpace.angle_intervals_overlap(-math.pi, math.pi, 2.0, 2.1)

    def test_mindist_lower_bounds_true_distance(self):
        """The annular-sector bound never exceeds the true complex distance to
        any point encoded inside the rectangle."""
        space = PolarSpace(1, 0)
        rng = np.random.default_rng(7)
        for _ in range(200):
            target = complex(rng.normal(scale=3), rng.normal(scale=3))
            query = complex(rng.normal(scale=3), rng.normal(scale=3))
            target_point = space.encode([target])
            low = np.array([target_point[0] - rng.uniform(0, 1),
                            target_point[1] - rng.uniform(0, 1)])
            high = np.array([target_point[0] + rng.uniform(0, 1),
                             target_point[1] + rng.uniform(0, 1)])
            low[0] = max(0.0, low[0])
            bound = space.mindist_to_rectangle(space.encode([query]), low, high)
            assert bound <= abs(query - target) + 1e-9

    def test_mindist_zero_when_inside(self):
        space = PolarSpace(1, 1)
        point = space.encode([2 + 2j], [5.0])
        low, high = space.search_rectangle(point, 0.5)
        assert space.mindist_to_rectangle(point, low, high) == pytest.approx(0.0)


# ----------------------------------------------------------------------
# the array form of the polar lower bound against a scalar reference
# ----------------------------------------------------------------------
def _angular_difference(a, b):
    diff = math.fmod(abs(a - b), 2.0 * math.pi)
    return min(diff, 2.0 * math.pi - diff)


def _distance_to_ray_segment(magnitude, angle_gap, radius_low, radius_high):
    projection = magnitude * math.cos(angle_gap)
    if projection < radius_low:
        return math.sqrt(max(0.0, magnitude ** 2 + radius_low ** 2
                             - 2.0 * magnitude * radius_low * math.cos(angle_gap)))
    if projection > radius_high:
        return math.sqrt(max(0.0, magnitude ** 2 + radius_high ** 2
                             - 2.0 * magnitude * radius_high * math.cos(angle_gap)))
    return abs(magnitude * math.sin(angle_gap))


def _sector_distance(magnitude, angle, radius_low, radius_high, angle_low, angle_high):
    """Distance from a point in polar form to an annular sector: radial gap
    when the angle is inside the sector's range, else the nearer of the two
    edge-ray segments, each measured on its own."""
    if radius_high < radius_low:
        radius_low, radius_high = radius_high, radius_low
    radial = max(0.0, radius_low - magnitude, magnitude - radius_high)
    if angle_high - angle_low >= 2.0 * math.pi:
        return radial
    mid, half_width = (angle_low + angle_high) / 2.0, (angle_high - angle_low) / 2.0
    if _angular_difference(angle, mid) <= half_width + 1e-15:
        return radial
    return min(_distance_to_ray_segment(magnitude, _angular_difference(angle, edge),
                                        radius_low, radius_high)
               for edge in (angle_low, angle_high))


def reference_polar_mindist(space, values, low, high):
    """One rectangle at a time, one coordinate at a time."""
    total = 0.0
    for dim in range(space.num_extra):
        if values[dim] < low[dim]:
            total += (low[dim] - values[dim]) ** 2
        elif values[dim] > high[dim]:
            total += (values[dim] - high[dim]) ** 2
    for feature in range(space.num_features):
        mag, ang = space.num_extra + 2 * feature, space.num_extra + 2 * feature + 1
        total += _sector_distance(values[mag], values[ang], max(0.0, low[mag]),
                                  high[mag], low[ang], high[ang]) ** 2
    return math.sqrt(total)


class TestPolarMindistArrayForm:
    @staticmethod
    def _cases(rng, space, count):
        """A query and ``count`` rectangles: sectors that wrap past ``pi``,
        span more than a full turn, start below zero magnitude, have their
        radii swapped, or are single points; the query sometimes at zero
        magnitude."""
        extras, features = space.num_extra, space.num_features
        query = rng.normal(scale=5.0, size=space.dimension)
        query[extras::2] = np.abs(query[extras::2]) * (rng.random(features) > 0.15)
        query[extras + 1::2] = rng.uniform(-math.pi, math.pi, size=features)
        lows = rng.normal(scale=5.0, size=(count, space.dimension))
        highs = lows + rng.uniform(0.0, 4.0, size=lows.shape) * (rng.random(lows.shape) > 0.1)
        radius_low = np.abs(lows[:, extras::2]) - 2.0 * (rng.random((count, features)) < 0.3)
        radius_high = np.maximum(radius_low, 0.0) + rng.uniform(0.0, 4.0, (count, features))
        swapped = rng.random((count, features)) < 0.1
        lows[:, extras::2] = np.where(swapped, radius_high, radius_low)
        highs[:, extras::2] = np.where(swapped, np.maximum(radius_low, 0.0), radius_high)
        angle_low = rng.uniform(-math.pi, math.pi, size=(count, features))
        width = rng.uniform(0.0, 2.0, size=(count, features))
        width[rng.random((count, features)) < 0.2] = rng.uniform(5.0, 9.0)
        angle_low += 7.0 * (rng.random((count, features)) < 0.1)  # un-normalised
        lows[:, extras + 1::2], highs[:, extras + 1::2] = angle_low, angle_low + width
        return query, lows, highs

    @pytest.mark.parametrize("features,extras", [(1, 0), (1, 1), (2, 2), (3, 0)])
    def test_equals_scalar_reference(self, features, extras):
        space = PolarSpace(features, extras)
        rng = np.random.default_rng(100 * features + extras)
        for _ in range(150):
            query, lows, highs = self._cases(rng, space, 12)
            point = space.encode(query[extras::2] * np.exp(1j * query[extras + 1::2]),
                                 query[:extras])
            got = space.mindist_to_rectangles(point, lows, highs)
            assert got.shape == (12,)
            for row, (low, high) in enumerate(zip(lows, highs)):
                want = reference_polar_mindist(space, point.values, low, high)
                assert got[row] == pytest.approx(want, rel=1e-12, abs=1e-12)
                # The scalar method is a one-row call of the array form.
                assert space.mindist_to_rectangle(point, low, high) == got[row]

    def test_never_exceeds_the_distance_to_a_point_of_the_sector(self):
        space = PolarSpace(2, 1)
        rng = np.random.default_rng(21)
        for _ in range(150):
            query, lows, highs = self._cases(rng, space, 12)
            point = space.encode(query[1::2] * np.exp(1j * query[2::2]), query[:1])
            bounds = space.mindist_to_rectangles(point, lows, highs)
            for _ in range(8):
                inside = rng.uniform(np.minimum(lows, highs), np.maximum(lows, highs))
                inside[:, 1::2] = np.maximum(inside[:, 1::2], 0.0)
                true = np.sqrt((inside[:, 0] - query[0]) ** 2 + np.sum(np.abs(
                    inside[:, 1::2] * np.exp(1j * inside[:, 2::2])
                    - query[1::2] * np.exp(1j * query[2::2])) ** 2, axis=1))
                assert np.all(bounds <= true + 1e-9)

    def test_empty_block(self):
        space = PolarSpace(2, 2)
        point = space.encode([1 + 1j, 2j], [0.0, 1.0])
        assert space.mindist_to_rectangles(point, np.zeros((0, 6)),
                                           np.zeros((0, 6))).shape == (0,)
