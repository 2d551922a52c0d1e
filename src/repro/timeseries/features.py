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
from ..storage.columnar import Records, half_width, record_matrix, weighted_sum, whole_spectrum
from . import dft as dft_module
from .normalform import normal_form_values
from .series import TimeSeries

__all__ = ["SeriesFeatures", "SeriesFeatureExtractor", "series_features",
           "spectral_records"]

#: Series per block of :func:`spectral_records`.  A block of 128-point series
#: holds 3 MB of values, normal forms and spectra, in one workspace kept
#: across the blocks of a length: large enough that the numpy calls amortise,
#: small enough that extracting a whole relation adds little to the
#: process's peak memory — the result matrix itself is allocated once and
#: handed to the record store, which keeps it (``ColumnarRecordStore.bulk_load``).
EXTRACT_CHUNK_ROWS = 512


@dataclass(frozen=True)
class SeriesFeatures:
    """Everything extracted from one series.

    ``point`` is the indexable prefix (mean, std, first ``k`` coefficients)
    encoded in the configured space; ``full_coefficients`` holds the
    normal-form coefficients ``1 … ⌊n/2⌋`` of a series of ``n`` values — the
    others are their conjugates, so these determine the exact distance
    (:func:`record_distance`) without going back to the raw series — and
    ``length`` counts the whole spectrum's, ``n - 1``.  A bare coefficient
    vector (a feature-point query) has no mirror: its ``full_coefficients``
    are all ``length`` of them.  ``mean`` and ``std`` are the statistics of
    the original series.
    """

    point: FeatureVector
    full_coefficients: np.ndarray
    mean: float
    std: float
    length: int


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
        """Full extraction: indexable point plus the complete coefficient
        record.  The point is the one row :meth:`points_of` would give the
        record, bit for bit, taken from the record itself: the first ``k``
        coefficients of its whole spectrum, zero past its length."""
        values, mean, std = normal_form_values(series.values)
        length = values.shape[0] - 1
        half = dft_module.dft(values)[1:1 + half_width(length)].copy()
        prefix = np.zeros((1, self.num_coefficients), dtype=np.complex128)
        spectrum = whole_spectrum(half, length)[:self.num_coefficients]
        prefix[0, :spectrum.shape[0]] = spectrum
        extra = np.array([[mean, std]]) if self.include_stats else np.empty((1, 0))
        point = self.space.encode_rows(prefix, extra)[0]
        return SeriesFeatures(point=FeatureVector(point), full_coefficients=half,
                              mean=mean, std=std, length=length)

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
        records = spectral_records(collection)
        return (self.points_of(Records(*records)), *records)

    def points_of(self, records: Records) -> np.ndarray:
        """The ``(n, d)`` indexable points of a record set in the columnar
        store's layout — bit for bit what :meth:`extract_many` returns for
        the series the records came from.  The first ``k`` coefficients of
        each whole spectrum: beyond a record's stored half they are the
        conjugates of their mirrors, and beyond its length zero."""
        prefix = records.take(np.arange(records.size), self.num_coefficients, whole=True)
        extra = (np.stack([records.means, records.stds], axis=1) if self.include_stats
                 else np.empty((records.size, 0)))
        return self.space.encode_rows(prefix, extra)

    def point(self, series: TimeSeries) -> FeatureVector:
        """Just the indexable point for ``series``."""
        return self.extract(series).point

    def query_point(self, series: TimeSeries) -> FeatureVector:
        """Alias of :meth:`point`, for readability at query call sites."""
        return self.point(series)

    def full_distance(self, a: SeriesFeatures, b: SeriesFeatures) -> float:
        """Exact distance between two extracted records
        (:func:`record_distance`).

        The distance is Euclidean over the concatenation of (mean, std) — when
        statistics are included — and *all* normal-form coefficients.  By
        Parseval the coefficient part equals the time-domain distance between
        the two normal forms.
        """
        return record_distance((a.full_coefficients, a.mean, a.std, a.length),
                               (b.full_coefficients, b.mean, b.std, b.length),
                               self.include_stats)

    def __repr__(self) -> str:
        return (f"SeriesFeatureExtractor(k={self.num_coefficients}, "
                f"representation={self.representation!r}, include_stats={self.include_stats})")


def spectral_records(collection: Sequence[Any]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The full spectral records of many series: ``(coefficients, lengths,
    means, stds)`` in the columnar store's layout.

    ``coefficients`` is the ``(n, width)`` complex matrix of the normal-form
    DFT coefficients ``1 … ⌊L/2⌋`` of every series of ``L`` values — the
    others are their conjugates — zero-padded on the right to the widest
    row; ``lengths`` the whole spectrum's coefficient count of each row,
    ``L - 1``; ``means`` / ``stds`` the statistics of the original series.
    Series are grouped by length and taken :data:`EXTRACT_CHUNK_ROWS` at a
    time: mean, deviation, normal form and one FFT along the last axis of
    each ``(rows, L)`` block — the operations of
    :meth:`SeriesFeatureExtractor.extract` (``np.mean``, ``np.std``, the
    normal form, the FFT) in the same order on the same values, hence the
    same bits.  The blocks of a length share one workspace, written with
    ``out=``: blocks allocated afresh were faulted in afresh, ~1 500 minor
    faults an 8 000-row load.  Raises :class:`~repro.core.errors.IndexError_`
    naming the first object that carries no ``values``.
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
    coefficients = record_matrix(len(values), int(half_width(lengths.max(initial=0))))
    means = np.empty(len(values))
    stds = np.empty(len(values))
    for size in np.unique(sizes).tolist():
        same = np.flatnonzero(sizes == size)
        rows = min(same.size, EXTRACT_CHUNK_ROWS)
        workspace = (np.empty((rows, size)), np.empty((rows, size)),
                     np.empty((rows, size), dtype=np.complex128),
                     np.empty((rows, size), dtype=np.complex128), np.empty(rows), np.empty(rows))
        for start in range(0, same.size, EXTRACT_CHUNK_ROWS):
            chunk = same[start:start + EXTRACT_CHUNK_ROWS]
            block, normal, complex_normal, spectrum, mean, std = (
                array[:chunk.size] for array in workspace)
            for position, row in enumerate(chunk.tolist()):
                block[position] = values[row]
            # np.mean, and np.std as numpy computes it: the deviations from
            # the mean, squared, summed and divided, and the root.
            np.sum(block, axis=-1, out=mean)
            np.true_divide(mean, size, out=mean)
            np.subtract(block, mean[:, None], out=normal)
            np.multiply(normal, normal, out=block)
            np.sum(block, axis=-1, out=std)
            np.true_divide(std, size, out=std)
            np.sqrt(std, out=std)
            varying = std != 0.0  # a constant series has the all-zero normal form
            if varying.all():
                normal /= std[:, None]
            else:
                np.divide(normal, std[:, None], out=normal, where=varying[:, None])
                normal[~varying] = 0.0
            np.copyto(complex_normal, normal)
            np.fft.fft(complex_normal, norm="ortho", axis=-1, out=spectrum)
            coefficients[chunk, :size // 2] = spectrum[:, 1:1 + size // 2]
            means[chunk] = mean
            stds[chunk] = std
    return coefficients, lengths, means, stds


#: Bytes of the (mean, std) pair stored alongside a full coefficient record.
RECORD_STATS_BYTES = 16


def record_distance(a: tuple, b: tuple, include_stats: bool) -> float:
    """Exact distance between two records — the scalar reference every
    kernel of :mod:`repro.storage.columnar` reproduces bit for bit.

    A record is ``(coefficients, mean, std, length)``: the half spectrum of
    a series of ``length + 1`` values (coefficients ``1 … ⌈length/2⌉``, the
    rest being their conjugates), or all ``length`` coefficients of a bare
    vector with no mirror (a feature-point query); ``(coefficients, mean,
    std)`` is a bare one.  Two half spectra of one length are compared by
    Parseval over the whole spectrum, each frequency below ``n/2`` standing
    for itself and its mirror: ``2 · Σ_{f < n/2} |ΔX_f|² + |ΔX_{n/2}|²``
    (the last term only for an even ``n``).  Any other pair is compared over
    the common prefix of the two whole spectra
    (:func:`~repro.storage.columnar.whole_spectrum`), each coefficient once:
    by Parseval still a valid lower bound when one side carries fewer
    coefficients (a bare feature-point query), and exact when both records
    are complete.
    """
    left, right = (record if len(record) > 3 else (*record, record[0].shape[0])
                   for record in (a, b))
    left_length, right_length = left[3], right[3]
    if (left_length == right_length and left[0].shape[0] < left_length
            and right[0].shape[0] < right_length):
        doubled, columns = left_length // 2, half_width(left_length)
        ours, theirs = left[0], right[0]
    else:
        doubled, columns = 0, min(left_length, right_length)
        ours = whole_spectrum(left[0], left_length)
        theirs = whole_spectrum(right[0], right_length)
    squared = np.abs(ours[:columns] - theirs[:columns]) ** 2
    total = float(weighted_sum(squared, doubled, columns))
    if include_stats:
        # Multiplied out, as the kernels' array ``** 2`` is: a scalar power
        # goes through libm's pow, which rounds about one square in a
        # thousand differently.
        mean_gap, std_gap = left[1] - right[1], left[2] - right[2]
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
