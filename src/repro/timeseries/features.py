"""Feature extraction: from a time series to a point in a feature space.

The layout reproduces the k-index of the companion evaluation:

* extra dimension 0 — mean of the original series,
* extra dimension 1 — standard deviation of the original series,
* complex features 1..k — DFT coefficients 1..k of the *normal form*
  (coefficient 0 of a normal form is identically zero and is dropped).

Storing the mean and deviation separately keeps simple shifts and scales
available without any transformation (the Goldin–Kanellakis normal-form
trick) while the coefficients support the richer transformations.

:class:`SeriesFeatureExtractor` bundles the configuration (how many
coefficients, polar or rectangular layout, whether to include the extra
dimensions) and provides both the indexable prefix point and the *full*
record used by postprocessing — for one series
(:meth:`~SeriesFeatureExtractor.extract`, which every query goes through)
and for a whole batch (:meth:`~SeriesFeatureExtractor.extract_many`, which
every load path goes through: index appends and bulk loads, record-store
top-ups, recovery).  The batch form runs the same arithmetic over ``(n, L)``
blocks — :func:`spectral_records` — and its rows are bit for bit the
per-series results, so it does not matter which of the two a record came
through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..core.errors import IndexError_
from ..core.objects import FeatureVector
from ..core.spaces import FeatureSpace, PolarSpace, RectangularSpace
from . import dft as dft_module
from .normalform import normal_form_values
from .series import TimeSeries

__all__ = ["SeriesFeatures", "SeriesFeatureExtractor", "series_features",
           "spectral_records"]

#: Series per block of :func:`spectral_records`.  A block of 128-point series
#: holds about 4 MB of values, normal forms, spectra and their temporaries at
#: a time: large enough that the numpy calls amortise, small enough that
#: extracting a whole relation adds little to the process's peak memory — the
#: result matrix itself is allocated once and handed to the record store,
#: which keeps it (``ColumnarRecordStore.bulk_load``).
EXTRACT_CHUNK_ROWS = 512


@dataclass(frozen=True)
class SeriesFeatures:
    """Everything extracted from one series.

    ``point`` is the indexable prefix (mean, std, first ``k`` coefficients)
    encoded in the configured space; ``full_coefficients`` holds *all*
    normal-form coefficients (excluding the zero coefficient 0) so the exact
    distance can be computed during postprocessing without going back to the
    raw series; ``mean`` and ``std`` are the statistics of the original
    series.
    """

    point: FeatureVector
    full_coefficients: np.ndarray
    mean: float
    std: float


class SeriesFeatureExtractor:
    """Maps series to feature points with a fixed configuration.

    Parameters
    ----------
    num_coefficients:
        ``k``: how many DFT coefficients of the normal form are indexed.
    representation:
        ``"polar"`` (default, as in the evaluation — it keeps complex
        multipliers safe) or ``"rectangular"``.
    include_stats:
        Whether the mean and standard deviation occupy two extra leading
        dimensions (default ``True``).
    """

    def __init__(self, num_coefficients: int = 2, representation: str = "polar",
                 include_stats: bool = True) -> None:
        if num_coefficients < 1:
            raise ValueError("at least one coefficient must be indexed")
        if representation not in ("polar", "rectangular"):
            raise ValueError("representation must be 'polar' or 'rectangular'")
        self.num_coefficients = int(num_coefficients)
        self.representation = representation
        self.include_stats = bool(include_stats)
        num_extra = 2 if include_stats else 0
        if representation == "polar":
            self.space: FeatureSpace = PolarSpace(self.num_coefficients, num_extra)
        else:
            self.space = RectangularSpace(self.num_coefficients, num_extra)

    # ------------------------------------------------------------------
    def extract(self, series: TimeSeries) -> SeriesFeatures:
        """Full extraction: indexable point plus the complete coefficient record."""
        values, mean, std = normal_form_values(series.values)
        spectrum = dft_module.dft(values)
        full = spectrum[1:]
        prefix = full[: self.num_coefficients]
        if prefix.shape[0] < self.num_coefficients:
            prefix = np.concatenate([
                prefix, np.zeros(self.num_coefficients - prefix.shape[0],
                                 dtype=np.complex128)])
        extra = (mean, std) if self.include_stats else ()
        point = self.space.encode(prefix, extra)
        return SeriesFeatures(point=point, full_coefficients=full, mean=mean, std=std)

    def extract_many(self, collection: Sequence[TimeSeries]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                                np.ndarray]:
        """:meth:`extract` for a whole batch, as arrays.

        Returns ``(points, coefficients, lengths, means, stds)``: the
        ``(n, d)`` indexable points, and the full records in the columnar
        store's layout (see :func:`spectral_records`) — ready for
        :meth:`~repro.storage.columnar.ColumnarRecordStore.bulk_load`.  Row
        ``i`` holds exactly the bits ``extract(collection[i])`` computes.
        Raises :class:`~repro.core.errors.IndexError_` naming the first
        object that is not a series, before anything is returned.
        """
        coefficients, lengths, means, stds = spectral_records(collection)
        # Rows are zero beyond their own length, so a record shorter than the
        # prefix comes out zero-padded, as in ``extract``.
        prefix = np.zeros((len(lengths), self.num_coefficients), dtype=np.complex128)
        width = min(self.num_coefficients, coefficients.shape[1])
        prefix[:, :width] = coefficients[:, :width]
        extra = (np.stack([means, stds], axis=1) if self.include_stats
                 else np.empty((len(lengths), 0)))
        return (self.space.encode_rows(prefix, extra), coefficients, lengths,
                means, stds)

    def point(self, series: TimeSeries) -> FeatureVector:
        """Just the indexable point for ``series``."""
        return self.extract(series).point

    def query_point(self, series: TimeSeries) -> FeatureVector:
        """Alias of :meth:`point`, for readability at query call sites."""
        return self.point(series)

    def full_distance(self, a: SeriesFeatures, b: SeriesFeatures) -> float:
        """Exact distance between two extracted records.

        The distance is Euclidean over the concatenation of (mean, std) — when
        statistics are included — and *all* normal-form coefficients.  By
        Parseval the coefficient part equals the time-domain distance between
        the two normal forms.
        """
        total = float(np.sum(np.abs(a.full_coefficients - b.full_coefficients) ** 2))
        if self.include_stats:
            total += (a.mean - b.mean) ** 2 + (a.std - b.std) ** 2
        return float(np.sqrt(total))

    def __repr__(self) -> str:
        return (f"SeriesFeatureExtractor(k={self.num_coefficients}, "
                f"representation={self.representation!r}, include_stats={self.include_stats})")


def spectral_records(collection: Sequence[Any]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The full spectral records of many series: ``(coefficients, lengths,
    means, stds)`` in the columnar store's layout.

    ``coefficients`` is the ``(n, width)`` complex matrix of normal-form DFT
    coefficients 1.. of every series, zero-padded on the right to the longest
    record; ``lengths`` the true coefficient count of each row; ``means`` /
    ``stds`` the statistics of the original series.  Series are grouped by
    length and taken :data:`EXTRACT_CHUNK_ROWS` at a time: mean, deviation,
    normal form and one FFT along the last axis of each ``(rows, L)`` block —
    the operations of :meth:`SeriesFeatureExtractor.extract` in the same
    order on the same values, hence the same bits.  Raises
    :class:`~repro.core.errors.IndexError_` naming the first object that
    carries no ``values``.
    """
    values = []
    for series in collection:
        array = getattr(series, "values", None)
        if array is None:
            raise IndexError_(
                f"{series!r} is not a time series: it has no values to take "
                "a spectral record from")
        values.append(np.asarray(array, dtype=np.float64))
    sizes = np.array([array.shape[0] for array in values], dtype=np.intp)
    lengths = sizes - 1  # coefficient 0 is dropped
    coefficients = np.zeros((len(values), int(lengths.max(initial=0))),
                            dtype=np.complex128)
    means = np.empty(len(values))
    stds = np.empty(len(values))
    for size in np.unique(sizes).tolist():
        same = np.flatnonzero(sizes == size)
        for start in range(0, same.size, EXTRACT_CHUNK_ROWS):
            rows = same[start:start + EXTRACT_CHUNK_ROWS]
            block = np.array([values[row] for row in rows.tolist()])
            mean = np.mean(block, axis=-1)
            std = np.std(block, axis=-1)
            varying = std != 0.0  # a constant series has the all-zero normal form
            if varying.all():
                normal = (block - mean[:, None]) / std[:, None]
            else:
                normal = np.zeros_like(block)
                normal[varying] = ((block[varying] - mean[varying, None])
                                   / std[varying, None])
            spectrum = np.fft.fft(normal.astype(np.complex128), norm="ortho", axis=-1)
            coefficients[rows, :size - 1] = spectrum[:, 1:]
            means[rows] = mean
            stds[rows] = std
    return coefficients, lengths, means, stds


#: Bytes of the (mean, std) pair stored alongside a full coefficient record.
RECORD_STATS_BYTES = 16


def full_record_bytes(full_coefficients: np.ndarray) -> int:
    """Estimated bytes of one stored full record (coefficients plus stats).

    The shared input to :func:`repro.storage.pages.records_per_page`: the
    sequential-scan baseline lays its pages out with it and the planner's
    cost model prices scans with it, so measured and estimated scan I/O use
    the same figure by construction.
    """
    return int(full_coefficients.nbytes) + RECORD_STATS_BYTES


def record_distance(a: tuple[np.ndarray, float, float],
                    b: tuple[np.ndarray, float, float],
                    include_stats: bool) -> float:
    """Exact distance between two ``(coefficients, mean, std)`` records.

    Taken over the common coefficient prefix: by Parseval still a valid
    lower bound when one side carries fewer coefficients (a bare
    feature-point query), and exact when both records are complete.  The
    columnar kernels (:func:`~repro.storage.columnar.exact_distances`)
    evaluate the same formula blockwise.
    """
    common = min(a[0].shape[0], b[0].shape[0])
    total = float(np.sum(np.abs(a[0][:common] - b[0][:common]) ** 2))
    if include_stats:
        # Multiplied out, as the kernels' array ``** 2`` is: a scalar power
        # goes through libm's pow, which rounds about one square in a
        # thousand differently.
        mean_gap, std_gap = a[1] - b[1], a[2] - b[2]
        total += mean_gap * mean_gap + std_gap * std_gap
    return float(np.sqrt(total))


def series_features(series: TimeSeries, space: FeatureSpace) -> FeatureVector:
    """Convenience used by :meth:`TimeSeries.feature_vector`.

    Builds an extractor matching ``space`` (its representation, arity and
    whether it reserves the two statistics dimensions) and returns the
    indexable point.
    """
    representation = "polar" if isinstance(space, PolarSpace) else "rectangular"
    include_stats = space.num_extra >= 2
    extractor = SeriesFeatureExtractor(num_coefficients=space.num_features,
                                       representation=representation,
                                       include_stats=include_stats)
    return extractor.point(series)
