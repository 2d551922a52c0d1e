"""Axis-aligned rectangle geometry used by the R-tree family.

Everything an R-tree needs from geometry lives here: minimum bounding
rectangles (MBRs), containment and overlap tests, enlargement, margin,
overlap area, and the MINDIST metric used by best-first nearest-neighbour
search.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence

import numpy as np

from ..core.errors import DimensionMismatchError
from ..core.spaces import RectangleBound, coordinate_sums

__all__ = ["Rect", "mindist", "mindist_batch", "box_bound", "rects_overlap",
           "angular_dims", "angular_halves", "corner_table", "narrowed_windows"]

TWO_PI = 2.0 * math.pi


class Rect:
    """An axis-aligned (hyper-)rectangle given by ``low`` and ``high`` corners.

    Degenerate rectangles (``low == high``) represent points.  Instances are
    immutable from the caller's point of view: all operations return new
    rectangles.
    """

    __slots__ = ("low", "high")

    def __init__(self, low: Sequence[float] | np.ndarray,
                 high: Sequence[float] | np.ndarray) -> None:
        low_arr = np.asarray(low, dtype=np.float64).reshape(-1)
        high_arr = np.asarray(high, dtype=np.float64).reshape(-1)
        if low_arr.shape != high_arr.shape:
            raise DimensionMismatchError(
                f"low has shape {low_arr.shape} but high has shape {high_arr.shape}"
            )
        if np.any(low_arr > high_arr):
            raise ValueError("every low coordinate must be <= the matching high coordinate")
        self.low = low_arr.copy()
        self.high = high_arr.copy()

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_point(cls, point: Sequence[float] | np.ndarray) -> "Rect":
        """A degenerate rectangle containing exactly one point."""
        arr = np.asarray(point, dtype=np.float64).reshape(-1)
        return cls(arr, arr)

    @classmethod
    def union_of(cls, rects: Iterable["Rect"]) -> "Rect":
        """The minimum bounding rectangle of a non-empty collection."""
        rects = list(rects)
        if not rects:
            raise ValueError("union_of needs at least one rectangle")
        low = np.min(np.vstack([r.low for r in rects]), axis=0)
        high = np.max(np.vstack([r.high for r in rects]), axis=0)
        return cls(low, high)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """Number of coordinates."""
        return int(self.low.shape[0])

    @property
    def extents(self) -> np.ndarray:
        """Side length along each dimension."""
        return self.high - self.low

    def area(self) -> float:
        """Hyper-volume (product of side lengths)."""
        return float(np.prod(self.extents))

    def margin(self) -> float:
        """Sum of side lengths (the R*-tree split criterion)."""
        return float(np.sum(self.extents))

    def center(self) -> np.ndarray:
        """Centre point of the rectangle."""
        return (self.low + self.high) / 2.0

    def is_point(self) -> bool:
        """Whether the rectangle is degenerate."""
        return bool(np.all(self.low == self.high))

    # ------------------------------------------------------------------
    # relations
    # ------------------------------------------------------------------
    def _check(self, other: "Rect") -> None:
        if self.dimension != other.dimension:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )

    def intersects(self, other: "Rect") -> bool:
        """Whether the two rectangles share at least one point."""
        self._check(other)
        return bool(np.all(self.low <= other.high) and np.all(other.low <= self.high))

    def contains(self, other: "Rect") -> bool:
        """Whether ``other`` lies entirely inside this rectangle."""
        self._check(other)
        return bool(np.all(self.low <= other.low) and np.all(other.high <= self.high))

    def contains_point(self, point: Sequence[float] | np.ndarray) -> bool:
        """Whether a point lies inside (or on the boundary of) the rectangle."""
        arr = np.asarray(point, dtype=np.float64).reshape(-1)
        if arr.shape[0] != self.dimension:
            raise DimensionMismatchError(
                f"point of dimension {arr.shape[0]} vs rectangle of dimension {self.dimension}"
            )
        return bool(np.all(arr >= self.low) and np.all(arr <= self.high))

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlapping region, or ``None`` when the rectangles are disjoint."""
        self._check(other)
        low = np.maximum(self.low, other.low)
        high = np.minimum(self.high, other.high)
        if np.any(low > high):
            return None
        return Rect(low, high)

    def overlap_area(self, other: "Rect") -> float:
        """Hyper-volume of the overlap (zero when disjoint)."""
        region = self.intersection(other)
        return region.area() if region is not None else 0.0

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------
    def union(self, other: "Rect") -> "Rect":
        """The minimum rectangle covering both."""
        self._check(other)
        return Rect(np.minimum(self.low, other.low), np.maximum(self.high, other.high))

    def enlargement(self, other: "Rect") -> float:
        """Increase in area needed to also cover ``other`` (the classic
        R-tree insertion criterion)."""
        return self.union(other).area() - self.area()

    def expanded(self, amount: float) -> "Rect":
        """The rectangle grown by ``amount`` on every side."""
        return Rect(self.low - amount, self.high + amount)

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return bool(np.array_equal(self.low, other.low)
                    and np.array_equal(self.high, other.high))

    def __hash__(self) -> int:
        return hash((self.low.tobytes(), self.high.tobytes()))

    def __repr__(self) -> str:
        low = ", ".join(f"{v:.4g}" for v in self.low)
        high = ", ".join(f"{v:.4g}" for v in self.high)
        return f"Rect([{low}], [{high}])"


def mindist(point: Sequence[float] | np.ndarray, rect: Rect) -> float:
    """MINDIST: the smallest Euclidean distance from ``point`` to ``rect``.

    Zero when the point lies inside the rectangle.  This is a lower bound on
    the distance from the point to any object stored under the rectangle, so
    it is safe for pruning nearest-neighbour search.
    """
    return float(mindist_batch(point, rect.low[None, :], rect.high[None, :])[0])


# ----------------------------------------------------------------------
# batched kernels (whole-node / whole-batch tests in one numpy call)
# ----------------------------------------------------------------------
def mindist_batch(point: Sequence[float] | np.ndarray, lows: np.ndarray,
                  highs: np.ndarray) -> np.ndarray:
    """MINDIST from one point to many rectangles at once.

    ``lows`` and ``highs`` are ``(n, d)`` arrays of rectangle corners; the
    result is the ``(n,)`` array of Euclidean distances, matching
    :func:`mindist` applied row by row.
    """
    p = np.asarray(point, dtype=np.float64).reshape(-1)
    if lows.ndim != 2 or lows.shape != highs.shape:
        raise DimensionMismatchError(
            f"expected matching (n, d) corner arrays, got {lows.shape} and {highs.shape}"
        )
    if p.shape[0] != lows.shape[1]:
        raise DimensionMismatchError(
            f"point of dimension {p.shape[0]} vs rectangles of dimension {lows.shape[1]}"
        )
    return box_bound(p)(lows, highs)


def box_bound(point: np.ndarray, *, extras: int = 0, weight: float = 1.0) -> RectangleBound:
    """:func:`mindist_batch` from ``point``, split at the point: the
    rectangles' :func:`corner_table`, and the per-point rest, which reads a
    table of points as points — the clamp of a point into a degenerate box
    is the box itself, so its gap is ``p - l``, bit for bit.

    ``weight`` multiplies the squared gaps of every coordinate after the
    first ``extras``: a k-index's rectangular layout holds the mean and the
    standard deviation first, then each coefficient's real and imaginary
    part, and 2 counts each coefficient's conjugate mirror
    (:meth:`KIndex.bound_weight <repro.index.kindex.KIndex.bound_weight>`).
    At 1 it is the plain MINDIST, bit for bit."""
    p = np.asarray(point, dtype=np.float64).reshape(-1, 1)
    dimension = len(p)

    def of_table(table: np.ndarray) -> np.ndarray:
        if len(table) == dimension:
            delta = p - table
        else:
            delta = p - np.clip(p, table[:dimension], table[dimension:])
        squared = delta * delta
        if weight == 1.0:
            return np.sqrt(coordinate_sums(squared))
        features = coordinate_sums(squared[extras:])
        features *= weight
        return np.sqrt(coordinate_sums(squared[:extras]) + features)

    return RectangleBound(corner_table, of_table)


def corner_table(lows: np.ndarray, highs: np.ndarray,
                 angular: slice | np.ndarray | None = None) -> np.ndarray:
    """``(n, d)`` rectangles as one coordinate-major ``(k, n)`` array: for
    points (``highs is lows``) their ``d`` coordinates, else ``lows``,
    ``highs`` and the ``angular`` centres and half-widths
    (:func:`angular_halves`).  Gathering rectangles from it is one ``take``
    of its columns, and the transposed gather is an ``(m, k)``
    Fortran-ordered array, whose every coordinate is contiguous: the overlap
    test then runs along the rectangles, not across the few coordinates of
    each one (on ~1 000 six-dimensional points, the gather takes a third and
    the test half the time of the row-major layout's)."""
    parts = [lows]
    if highs is not lows:
        parts.append(highs)
        if angular is not None:
            parts.extend(angular_halves(lows, highs, angular))
    return np.ascontiguousarray(np.concatenate(parts, axis=-1).T)


def angular_dims(periodic_dims: Sequence[bool] | np.ndarray | None
                 ) -> slice | np.ndarray | None:
    """The wrap-around coordinates a ``(d,)`` boolean mask marks, as an index
    for the last axis: a slice when they are evenly spaced (the polar
    layout's phase angles are every other coordinate), so that indexing with
    it is a view and copies nothing; an index array otherwise; ``None`` when
    the mask marks none."""
    if periodic_dims is None:
        return None
    return _angular_dims(np.asarray(periodic_dims, dtype=bool).tobytes())


@functools.lru_cache(maxsize=64)
def _angular_dims(mask: bytes) -> slice | np.ndarray | None:
    dims = np.flatnonzero(np.frombuffer(mask, dtype=bool))
    if not len(dims):
        return None
    steps = np.diff(dims)
    if len(dims) == 1 or np.all(steps == steps[0]):
        step = int(steps[0]) if len(steps) else 1
        return slice(int(dims[0]), int(dims[-1]) + 1, step)
    return dims


def angular_halves(lows: np.ndarray, highs: np.ndarray, angular: slice | np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray | float]:
    """``(centre, half-width)`` of the rectangles' ``angular`` coordinates —
    the parts of the modulo-``2*pi`` test in :func:`rects_overlap` that
    depend on one side only.  Points (``highs is lows``) have the coordinate
    itself as centre and a half-width of ``0.0``, exactly what the interval
    arithmetic gives them (``l + 0.0 == l``)."""
    if highs is lows:
        return lows[..., angular], 0.0
    half = (highs[..., angular] - lows[..., angular]) * 0.5
    return lows[..., angular] + half, half


def narrowed_windows(window_lows: np.ndarray, window_highs: np.ndarray,
                     periodic_dims: Sequence[bool] | np.ndarray | None
                     ) -> tuple[np.ndarray, np.ndarray, Sequence[bool] | np.ndarray | None]:
    """``(q, d)`` windows and their wrap-around mask, cut to the angular
    coordinates some window narrows: what :func:`rects_overlap` needs to
    test of them, for the same hits.

    A window at least ``2*pi`` wide on an angular coordinate (half-width
    ``>= pi``: a polar window whose ball holds the origin spans
    ``[-pi, pi]``) overlaps every entry there — the modulo test ORs it in.
    Where every window does, the coordinate leaves the mask and the windows
    are opened to ``(-inf, inf)`` on it, so that the plain test passes every
    entry, wrapped or not (a NaN corner, which the old rule let through,
    fails it).  Returns the inputs themselves when every angular coordinate
    is narrowed by some window, and a mask of ``None`` when none is."""
    angular = angular_dims(periodic_dims)
    if angular is None:
        return window_lows, window_highs, None
    # Each coordinate's narrowest window (a NaN corner counts as narrow).
    half = (window_highs[:, angular] - window_lows[:, angular]) * 0.5
    wide = half.min(axis=0) >= math.pi
    count = np.count_nonzero(wide)
    if not count:
        return window_lows, window_highs, periodic_dims
    tested = None
    opened = angular
    if count < wide.size:
        opened = np.arange(window_lows.shape[-1])[angular][wide]
        tested = np.array(periodic_dims, dtype=bool)
        tested[opened] = False
    window_lows, window_highs = window_lows.copy(), window_highs.copy()
    window_lows[:, opened] = -math.inf
    window_highs[:, opened] = math.inf
    return window_lows, window_highs, tested


def rects_overlap(lows: np.ndarray, highs: np.ndarray,
                  window_lows: np.ndarray, window_highs: np.ndarray,
                  periodic_dims: Sequence[bool] | np.ndarray | None = None, *,
                  halves: tuple[np.ndarray, np.ndarray | float] | None = None,
                  window_halves: tuple[np.ndarray, np.ndarray | float] | None = None
                  ) -> np.ndarray:
    """Rectangle-overlap tests over corner arrays that broadcast against each
    other (last axis: the ``d`` coordinates) — the one overlap rule of every
    index traversal.  ``(n, d)`` entries against their ``(n, d)`` windows give
    ``(n,)`` hits; ``(n, 1, d)`` against ``(1, q, d)`` the ``(n, q)`` matrix;
    ``(n, d)`` against one ``(1, d)`` window the ``(n,)`` hits of that window.

    ``periodic_dims`` is an optional ``(d,)`` boolean mask marking wrap-around
    dimensions (the polar representation's phase angles); those dimensions use
    the modulo-``2*pi`` interval test instead of the plain one.  Two angular
    intervals overlap modulo ``2*pi`` exactly when the circular distance of
    their centres is at most the sum of their half-widths (intervals at least
    ``2*pi`` wide overlap everything), which evaluates as one fused kernel
    over all periodic dimensions — equivalent to, and much faster than,
    testing each shifted copy of the interval separately.  It runs on every
    coordinate the mask marks: a caller whose windows may span the whole
    circle passes them through :func:`narrowed_windows` first, so that the
    test runs only on the coordinates a window narrows, and not at all when
    none does (a polar window whose radius reaches the magnitude of every
    indexed coefficient).

    A caller that tests the same rectangles or windows many times may pass
    their :func:`angular_halves` as ``halves`` / ``window_halves`` (the
    frontier kernel keeps a level's and derives a search's windows' once);
    the result is the same, bit for bit, as when they are derived here.
    Point entries (``highs is lows``) are tested as points: a half-width of
    zero, no arithmetic on the second corner.
    """
    hits = (lows <= window_highs) & (window_lows <= highs)
    angular = angular_dims(periodic_dims)
    if angular is not None:
        entry_center, entry_half = halves or angular_halves(lows, highs, angular)
        window_center, window_half = (window_halves
                                      or angular_halves(window_lows, window_highs, angular))
        gap = np.abs((entry_center - window_center + math.pi) % TWO_PI - math.pi)
        # Or-ed with the plain test, which is exact: the centre arithmetic
        # rounds, and alone it put an edge point an ulp outside a zero-width
        # window (a false dismissal at ε = 0).
        hits[..., angular] |= ((gap <= entry_half + window_half)
                              | (entry_half >= math.pi) | (window_half >= math.pi))
    return hits.all(axis=-1)
