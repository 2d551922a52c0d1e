"""Feature spaces for complex-valued features.

A data object is mapped to a small vector of *complex* features (for time
series: the leading DFT coefficients).  The index and the transformation
machinery, however, operate on points in a real multidimensional space.  Two
standard ways of laying a complex vector out as a real point are provided:

``Srect``
    Each complex feature contributes its real part and imaginary part as two
    consecutive real coordinates.

``Spol``
    Each complex feature contributes its magnitude and phase angle as two
    consecutive real coordinates.

The choice matters for *safety* of transformations (see
:mod:`repro.core.safety`): a complex multiplier is safe in ``Spol`` but not in
``Srect``, while a complex translation is safe in ``Srect`` but not in
``Spol``.

Each space also knows how to build the *search rectangle* for a range query —
the minimum bounding rectangle of all points within Euclidean distance
``epsilon`` (per complex feature) of a query point — which is what the index
traversal intersects against.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError
from .objects import FeatureVector

__all__ = [
    "FeatureSpace",
    "RectangularSpace",
    "PolarSpace",
    "RectangleBound",
    "TWO_PI",
]

TWO_PI = 2.0 * math.pi


class RectangleBound:
    """A query's lower bound on the distance to anything inside each of many
    rectangles, split at the query.

    ``table(lows, highs)`` depends on the ``(n, d)`` rectangle corners alone:
    a coordinate-major array whose every column is one rectangle, which a
    caller bounding the same rectangles for many queries builds once (a
    packed tree keeps one per level).  ``of_table(columns)`` maps any of its
    columns to their ``(m,)`` bounds.  Called as ``bound(lows, highs)`` it
    is both: a bound has one path, whichever way it is called.
    """

    __slots__ = ("table", "of_table")

    def __init__(self, table: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 of_table: Callable[[np.ndarray], np.ndarray]) -> None:
        self.table = table
        self.of_table = of_table

    def __call__(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        return self.of_table(self.table(lows, highs))


def coordinate_sums(columns: np.ndarray) -> np.ndarray:
    """Sums down the coordinates (the leading axis) of a coordinate-major
    block, with the bits of numpy's sums along the rows of the row-major
    block the bounds are defined by.  numpy adds fewer than eight terms in
    order, as a sum down the columns does; from eight on it sums each row
    pairwise, so the block is transposed first."""
    if len(columns) < 8:
        return np.add.reduce(columns, axis=0)
    return np.add.reduce(np.ascontiguousarray(columns.T), axis=1)


class FeatureSpace:
    """Abstract layout of ``num_features`` complex features as real coordinates.

    Parameters
    ----------
    num_features:
        Number of complex features.  The real dimension of the space is
        ``2 * num_features`` plus ``num_extra`` leading real coordinates.
    num_extra:
        Number of extra *real* coordinates stored before the complex
        features.  The time-series k-index uses two (mean and standard
        deviation of the original series).
    """

    name = "abstract"

    def __init__(self, num_features: int, num_extra: int = 0) -> None:
        if num_features < 0 or num_extra < 0:
            raise ValueError("num_features and num_extra must be non-negative")
        self.num_features = int(num_features)
        self.num_extra = int(num_extra)

    @property
    def dimension(self) -> int:
        """Real dimensionality of the space."""
        return self.num_extra + 2 * self.num_features

    # ------------------------------------------------------------------
    # encoding / decoding
    # ------------------------------------------------------------------
    def encode(self, complex_features: Sequence[complex] | np.ndarray,
               extra: Sequence[float] | np.ndarray | None = None) -> FeatureVector:
        """Lay out complex features (plus optional extra reals) as a real
        point — one row of :meth:`encode_rows`."""
        feats = np.asarray(complex_features, dtype=np.complex128)
        if feats.shape != (self.num_features,):
            raise DimensionMismatchError(
                f"expected {self.num_features} complex features, got shape {feats.shape}"
            )
        extra_arr = np.asarray(list(extra) if extra is not None else [],
                               dtype=np.float64)
        if extra_arr.shape != (self.num_extra,):
            raise DimensionMismatchError(
                f"expected {self.num_extra} extra coordinates, got shape {extra_arr.shape}"
            )
        return FeatureVector(self.encode_rows(feats[None, :], extra_arr[None, :])[0])

    def encode_rows(self, complex_features: np.ndarray, extra: np.ndarray
                    ) -> np.ndarray:
        """:meth:`encode` for ``(n, num_features)`` complex features and
        ``(n, num_extra)`` extra reals at once: the ``(n, dimension)`` points."""
        coords = np.empty((complex_features.shape[0], self.dimension))
        coords[:, : self.num_extra] = extra
        coords[:, self.num_extra::2], coords[:, self.num_extra + 1::2] = \
            self._coordinate_pair(complex_features)
        return coords

    def _coordinate_pair(self, complex_features: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
        """The two real coordinates each complex feature is stored as."""
        raise NotImplementedError

    def decode(self, point: FeatureVector) -> tuple[np.ndarray, np.ndarray]:
        """Invert :meth:`encode`; returns ``(extra, complex_features)`` — one
        row of :meth:`decode_rows`."""
        self._check_point(point)
        extra, feats = self.decode_rows(point.values)
        return extra.copy(), feats

    def decode_rows(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Invert :meth:`encode_rows`: the ``(n, num_extra)`` extra reals (a
        view) and the ``(n, num_features)`` complex features of ``(n,
        dimension)`` points."""
        return points[..., : self.num_extra], self._complex_features(
            points[..., self.num_extra::2], points[..., self.num_extra + 1::2])

    def _complex_features(self, first: np.ndarray, second: np.ndarray
                          ) -> np.ndarray:
        """The complex features stored as a :meth:`_coordinate_pair`."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # range-query geometry
    # ------------------------------------------------------------------
    def search_rectangle(self, query: FeatureVector, epsilon: float
                         ) -> tuple[np.ndarray, np.ndarray]:
        """Bounds ``(low, high)`` of the minimum rectangle containing the
        epsilon-ball around ``query``.

        The ball is taken per complex feature (and per extra coordinate):
        every object whose distance to the query is at most ``epsilon``
        necessarily has every individual feature within ``epsilon`` of the
        query's, so the rectangle is a conservative filter — it can produce
        false hits but never false dismissals.
        """
        raise NotImplementedError

    def distance(self, a: FeatureVector, b: FeatureVector) -> float:
        """Euclidean distance between the *complex feature vectors* of two points.

        For ``Srect`` this equals the plain L2 distance between the real
        points; for ``Spol`` the points are decoded back to complex numbers
        first.
        """
        extra_a, feats_a = self.decode(a)
        extra_b, feats_b = self.decode(b)
        d2 = float(np.sum(np.abs(feats_a - feats_b) ** 2))
        d2 += float(np.sum((extra_a - extra_b) ** 2))
        return math.sqrt(d2)

    def distances_to(self, point: FeatureVector, points: np.ndarray) -> np.ndarray:
        """:meth:`distance` from ``point`` to every row of ``(n, dimension)``
        points, as one ``float64[n]`` — the same operations in the same
        order, so each value has the scalar form's bits."""
        extra, feats = self.decode_rows(points)
        point_extra, point_feats = self.decode(point)
        return _norms(feats - point_feats, extra - point_extra)

    def pairwise(self, points: np.ndarray, weight: float = 1.0) -> np.ndarray:
        """:meth:`distance` between every two rows of ``(n, dimension)``
        points, as one ``float64[n * (n - 1) / 2]``: row 0 against each row
        after it, then row 1, … — bit for bit the scalar form's values.
        ``weight`` multiplies the features' squared term, as a k-NN bound's
        (:meth:`PolarSpace.sector_bound`)."""
        extra, feats = self.decode_rows(points)
        left, right = np.triu_indices(len(points), 1)
        return _norms(feats[left] - feats[right], extra[left] - extra[right], weight)

    def window_entry_distances(self, points: np.ndarray) -> np.ndarray:
        """For every ordered pair of distinct rows ``(i, j)`` of ``(n,
        dimension)`` points, the least ``epsilon`` at which row ``j`` lies in
        :meth:`search_rectangle` ``(row i, epsilon)`` — the radius from which
        a range probe at row ``i`` fetches row ``j`` as a candidate.  One
        ``float64[n * (n - 1)]``: row 0 against every other row, then row 1,
        …  The largest of the per-coordinate thresholds of
        :meth:`_entry_gaps`."""
        left, right = np.nonzero(~np.eye(len(points), dtype=bool))
        return self._entry_gaps(points[left], points[right]).max(axis=1, initial=0.0)

    def _entry_gaps(self, centres: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Per coordinate, the least ``epsilon`` at which each row of
        ``points`` is within the search rectangle around the same row of
        ``centres``."""
        raise NotImplementedError

    def periodic_dimension_mask(self) -> np.ndarray:
        """Boolean mask over coordinates that wrap around (modulo ``2*pi``).

        The rectangular layout has none; the polar layout marks its phase
        angles.  Batched R-tree probes use this to pick the right per-
        dimension overlap test.
        """
        return np.zeros(self.dimension, dtype=bool)

    def _check_point(self, point: FeatureVector) -> None:
        if point.dimension != self.dimension:
            raise DimensionMismatchError(
                f"point of dimension {point.dimension} does not belong to "
                f"{self.name} space of dimension {self.dimension}"
            )

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(num_features={self.num_features}, "
                f"num_extra={self.num_extra})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureSpace):
            return NotImplemented
        return (type(self) is type(other)
                and self.num_features == other.num_features
                and self.num_extra == other.num_extra)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.num_features, self.num_extra))


def _norms(feature_deltas: np.ndarray, extra_deltas: np.ndarray,
           weight: float = 1.0) -> np.ndarray:
    """Row norms of complex feature differences beside real extra ones,
    summed in :meth:`FeatureSpace.distance`'s order, the features' term
    times ``weight``."""
    return np.sqrt(weight * np.sum(np.abs(feature_deltas) ** 2, axis=1)
                   + np.sum(extra_deltas ** 2, axis=1))


class RectangularSpace(FeatureSpace):
    """``Srect``: complex feature *i* occupies coordinates ``(2i-1, 2i)`` as
    (real part, imaginary part)."""

    name = "Srect"

    def _coordinate_pair(self, complex_features: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
        return complex_features.real, complex_features.imag

    def _complex_features(self, first: np.ndarray, second: np.ndarray
                          ) -> np.ndarray:
        return first + 1j * second

    def search_rectangle(self, query: FeatureVector, epsilon: float
                         ) -> tuple[np.ndarray, np.ndarray]:
        self._check_point(query)
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        values = query.values
        low = values - epsilon
        high = values + epsilon
        return low.copy(), high.copy()

    def _entry_gaps(self, centres: np.ndarray, points: np.ndarray) -> np.ndarray:
        """The window is the ball's box: every coordinate's plain gap."""
        return np.abs(points - centres)


class PolarSpace(FeatureSpace):
    """``Spol``: complex feature *i* occupies coordinates ``(2i-1, 2i)`` as
    (magnitude, phase angle).

    Phase angles are stored in radians in ``(-pi, pi]`` (the range of
    ``math.atan2``).  The search rectangle for a feature with query magnitude
    ``m`` and angle ``alpha`` is ``[m - eps, m + eps]`` in magnitude and
    ``[alpha - asin(eps / m), alpha + asin(eps / m)]`` in angle; when
    ``eps >= m`` the whole angle range is used because the epsilon-ball then
    contains the origin and every phase is possible.
    """

    name = "Spol"

    def _coordinate_pair(self, complex_features: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
        return np.abs(complex_features), np.angle(complex_features)

    def _complex_features(self, first: np.ndarray, second: np.ndarray
                          ) -> np.ndarray:
        return first * np.exp(1j * second)

    def search_rectangle(self, query: FeatureVector, epsilon: float
                         ) -> tuple[np.ndarray, np.ndarray]:
        self._check_point(query)
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        values = query.values
        low = np.empty(self.dimension, dtype=np.float64)
        high = np.empty(self.dimension, dtype=np.float64)
        low[: self.num_extra] = values[: self.num_extra] - epsilon
        high[: self.num_extra] = values[: self.num_extra] + epsilon
        for i in range(self.num_features):
            mag_dim = self.num_extra + 2 * i
            ang_dim = mag_dim + 1
            magnitude = values[mag_dim]
            angle = values[ang_dim]
            low[mag_dim] = max(0.0, magnitude - epsilon)
            high[mag_dim] = magnitude + epsilon
            if epsilon >= magnitude or magnitude == 0.0:
                # The disc of radius epsilon around the feature contains the
                # origin: any phase angle is reachable.
                low[ang_dim] = -math.pi
                high[ang_dim] = math.pi
            else:
                delta = math.asin(min(1.0, epsilon / magnitude))
                low[ang_dim] = angle - delta
                high[ang_dim] = angle + delta
        return low, high

    def _entry_gaps(self, centres: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Magnitudes and extras enter at their plain gap.  An angle ``Δα``
        (wrapped into ``[0, π]``) away from the centre's, whose magnitude is
        ``m``, enters the window's ``±asin(epsilon / m)`` at ``m * sin(Δα)``
        while ``Δα < π / 2``, and with every other angle once ``epsilon``
        reaches ``m``."""
        gaps = np.abs(points - centres)
        angles = slice(self.num_extra + 1, None, 2)
        turns = np.minimum(gaps[:, angles], TWO_PI - gaps[:, angles])
        gaps[:, angles] = centres[:, self.num_extra::2] * np.sin(
            np.minimum(turns, math.pi / 2))
        return gaps

    def mindist_to_rectangle(self, query: FeatureVector, low: np.ndarray,
                             high: np.ndarray) -> float:
        """:meth:`mindist_to_rectangles` for a single rectangle."""
        return float(self.mindist_to_rectangles(
            query, np.asarray(low, dtype=np.float64)[None, :],
            np.asarray(high, dtype=np.float64)[None, :])[0])

    def mindist_to_rectangles(self, query: FeatureVector, lows: np.ndarray,
                              highs: np.ndarray) -> np.ndarray:
        """Lower bounds on the *true* (complex) distance from ``query`` to any
        point whose polar encoding lies in each rectangle of the ``(n, d)``
        corner arrays ``lows`` / ``highs``; an ``(n,)`` array — a call of
        :meth:`sector_bound`.

        Plain Euclidean MINDIST in polar coordinates is not a valid lower
        bound on the complex-plane distance (an angle difference of ``d``
        radians corresponds to a chord of length up to ``2 m sin(d/2)``, and
        for small magnitudes the polar-coordinate distance overestimates the
        true one).  This method instead measures, per complex feature, the
        distance from the query's complex value to the annular sector the
        rectangle describes, and adds the usual interval distance for the
        extra real coordinates.

        A sector is symmetric about its middle ray.  A query whose angular
        gap from that ray is within the half-width is in the sector's angle
        range (every query is when the range spans a full turn) and only the
        radial gap counts; otherwise the nearest point lies on the nearer
        edge ray, ``outside = gap - half-width`` away in angle, at the
        radius ``r`` nearest the query's projection onto that ray.  Both
        cases are ``(m - r)**2 + 4 m r sin(outside / 2)**2`` with
        ``outside`` clamped at zero.
        """
        return self.sector_bound(query)(lows, highs)

    def sector_table(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """The query-independent part of :meth:`mindist_to_rectangles`, one
        column per rectangle: the extras' lows and highs, then per feature
        the sector's inner and outer radius (the magnitude interval clamped
        at zero), its middle ray and its half-width.

        Points (``highs is lows``) whose magnitudes are all non-negative are
        held as their coordinates: at half-width zero and radius ``r >= 0``
        the sector arithmetic gives, bit for bit, the distance to the point
        ``(m - r)**2 + 4 m r sin(gap / 2)**2`` and the extras' squared gaps.
        """
        extras = self.num_extra
        if highs is lows and not np.any(lows[:, extras::2] < 0.0):
            return np.ascontiguousarray(lows.T)
        radius_low = np.maximum(lows[:, extras::2], 0.0)
        radius_high = highs[:, extras::2]
        angle_low = lows[:, extras + 1::2]
        half_width = (highs[:, extras + 1::2] - angle_low) * 0.5
        return np.ascontiguousarray(np.concatenate(
            (lows[:, :extras], highs[:, :extras],
             np.minimum(radius_low, radius_high), np.maximum(radius_low, radius_high),
             angle_low + half_width, half_width), axis=1).T)

    def sector_bound(self, query: FeatureVector, weight: float = 1.0) -> RectangleBound:
        """:meth:`mindist_to_rectangles` from ``query``, split at the query:
        :meth:`sector_table` and the per-query rest, which reads a table's
        point columns as points and its sector columns as sectors.

        ``weight`` multiplies the features' term (the extras' is never
        weighted): 2 counts each feature's conjugate mirror, which a k-index
        over coefficients ``1 … k`` of real series of length ``n > 2 k``
        may (:meth:`KIndex.bound_weight
        <repro.index.kindex.KIndex.bound_weight>`) — the nearest point of a
        sector is nearest per feature, so the weighted sum of the per-feature
        minima still bounds the weighted distance from below.  At 1 the
        bound is the plain distance, bit for bit."""
        self._check_point(query)
        values = query.values
        extras, features, dimension = self.num_extra, self.num_features, self.dimension
        extra = values[:extras, None]
        magnitudes, angles = values[extras::2, None], values[extras + 1::2, None]
        scale = 4.0 * magnitudes

        def of_table(table: np.ndarray) -> np.ndarray:
            if len(table) == dimension:
                gaps = table[:extras] - extra
                radius = table[extras::2]
                turn = np.fmod(np.abs(angles - table[extras + 1::2]), TWO_PI)
                outside = np.minimum(turn, TWO_PI - turn)
            else:
                gaps = np.maximum(np.maximum(table[:extras] - extra,
                                             extra - table[extras:2 * extras]), 0.0)
                inner, outer, middle, half_width = (
                    table[2 * extras + part * features:2 * extras + (part + 1) * features]
                    for part in range(4))
                turn = np.fmod(np.abs(angles - middle), TWO_PI)
                outside = np.maximum(np.minimum(turn, TWO_PI - turn) - half_width, 0.0)
                radius = np.minimum(np.maximum(magnitudes * np.cos(outside), inner), outer)
            chord = np.sin(outside * 0.5)
            squared = (magnitudes - radius) ** 2 + scale * radius * (chord * chord)
            return np.sqrt(coordinate_sums(gaps * gaps) + weight * coordinate_sums(squared))

        return RectangleBound(self.sector_table, of_table)

    def periodic_dimension_mask(self) -> np.ndarray:
        """Phase-angle coordinates wrap around; magnitudes and extras do not."""
        mask = np.zeros(self.dimension, dtype=bool)
        mask[self.num_extra + 1::2] = True
        return mask

    @staticmethod
    def normalize_angle(angle: float) -> float:
        """Reduce an angle to the canonical interval ``(-pi, pi]``."""
        reduced = math.fmod(angle + math.pi, TWO_PI)
        if reduced <= 0.0:
            reduced += TWO_PI
        return reduced - math.pi

    @staticmethod
    def angle_intervals_overlap(low_a: float, high_a: float,
                                low_b: float, high_b: float) -> bool:
        """Whether two angular intervals overlap modulo ``2*pi``.

        Intervals are given as (possibly un-normalised) ``[low, high]`` with
        ``low <= high``; an interval of width ``>= 2*pi`` overlaps everything.
        """
        if high_a - low_a >= TWO_PI or high_b - low_b >= TWO_PI:
            return True
        # Shift interval b by multiples of 2*pi so that candidate overlaps are
        # tested against a directly.
        for shift in (-TWO_PI, 0.0, TWO_PI):
            if low_b + shift <= high_a and high_b + shift >= low_a:
                return True
        return False
