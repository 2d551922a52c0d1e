"""Time-series transformations, in the time domain and the frequency domain.

Every transformation of interest — shift, scale, sign reversal, (weighted)
moving average, time warping — can be written as a linear pair ``(a, b)``
acting on the DFT coefficients of a series.  This module provides each
transformation twice:

* as an **object-level** :class:`~repro.core.transformations.Transformation`
  acting on :class:`~repro.timeseries.series.TimeSeries` values directly
  (what the generic similarity engine and the examples use), and
* as a **spectral** description (:class:`SpectralTransformation`) holding the
  full-length multiplier/offset vectors plus the effect on the two extra
  index dimensions (mean, standard deviation), from which a
  :class:`~repro.core.transformations.LinearTransformation` over the first
  ``k`` indexed coefficients can be derived for index traversal.

The moving-average multiplier is the non-unitary DFT of the (circular) window
kernel — see :func:`repro.timeseries.dft.convolution_multiplier` — so that
multiplying the unitary coefficients of a series by it is *exactly* the
circular moving average in the time domain.  The time-warping multiplier
follows Appendix A of the companion text, corrected for the unitary
normalisation (an extra ``1/sqrt(m)`` factor).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

import numpy as np

from ..core.transformations import LinearTransformation, Transformation
from . import dft as dft_module
from .normalform import normal_form_values
from .series import TimeSeries

__all__ = [
    "moving_average_kernel",
    "moving_average_values",
    "time_warp_values",
    "time_warp_multiplier",
    "MovingAverageTransform",
    "ReverseTransform",
    "ShiftTransform",
    "ScaleTransform",
    "NormalizeTransform",
    "TimeWarpTransform",
    "SpectralTransformation",
    "identity_spectral",
    "moving_average_spectral",
    "reverse_spectral",
    "shift_spectral",
    "scale_spectral",
    "time_warp_linear",
]


# ---------------------------------------------------------------------------
# time-domain primitives
# ---------------------------------------------------------------------------
def moving_average_kernel(length: int, window: int,
                          weights: Sequence[float] | None = None) -> np.ndarray:
    """The circular convolution kernel of a (weighted) moving average.

    With equal weights the value at day ``i`` of the result is the average of
    days ``i, i-1, ..., i-window+1`` (indices wrap around, matching the
    "circulate the window to the end of the sequence" variant of the paper).
    Custom ``weights`` (e.g. heavier weights on recent days for trend
    prediction) must have ``window`` entries; they are used as given, so
    callers wanting an average should make them sum to one.
    """
    if window < 1:
        raise ValueError("the moving-average window must be at least 1")
    if window > length:
        raise ValueError("the moving-average window cannot exceed the series length")
    kernel = np.zeros(length)
    if weights is None:
        kernel[:window] = 1.0 / window
    else:
        weight_arr = np.asarray(list(weights), dtype=np.float64)
        if weight_arr.shape != (window,):
            raise ValueError(f"expected {window} weights, got {weight_arr.shape}")
        kernel[:window] = weight_arr
    return kernel


def moving_average_values(values: np.ndarray, window: int,
                          weights: Sequence[float] | None = None) -> np.ndarray:
    """Circular (weighted) moving average of a raw value array."""
    values = np.asarray(values, dtype=np.float64)
    kernel = moving_average_kernel(values.shape[0], window, weights)
    # conv(x, w)_i = sum_k x_k w_{i-k}; computed via FFT for speed, which is
    # exact for these lengths up to floating-point rounding.
    spectrum = np.fft.fft(values) * np.fft.fft(kernel)
    return np.real(np.fft.ifft(spectrum))


def time_warp_values(values: np.ndarray, factor: int) -> np.ndarray:
    """Stretch the time axis by an integer factor: each value is repeated
    ``factor`` times (``s'_{mi} = ... = s'_{m(i+1)-1} = s_i``)."""
    if factor < 1:
        raise ValueError("the warping factor must be a positive integer")
    return np.repeat(np.asarray(values, dtype=np.float64), factor)


def time_warp_multiplier(length: int, factor: int, k: int) -> np.ndarray:
    """Multiplier turning the first ``k`` unitary coefficients of a length-``length``
    series into the first ``k`` unitary coefficients of its ``factor``-times
    time-warped version.

    Appendix A derives ``a_f = sum_{t=0}^{m-1} exp(-j 2 pi t f / (m n))``;
    with the unitary normalisation on both sides an additional ``1/sqrt(m)``
    factor appears, which is included here (the test suite checks the result
    against warping in the time domain directly).
    """
    if factor < 1:
        raise ValueError("the warping factor must be a positive integer")
    if k < 0 or k > length:
        raise ValueError("k must satisfy 0 <= k <= length")
    frequencies = np.arange(k)
    steps = np.arange(factor).reshape(-1, 1)
    phases = np.exp(-2j * np.pi * steps * frequencies / (factor * length))
    return phases.sum(axis=0) / math.sqrt(factor)


# ---------------------------------------------------------------------------
# object-level transformations on TimeSeries
# ---------------------------------------------------------------------------
def _series_of(obj: TimeSeries | Sequence[float] | np.ndarray) -> TimeSeries:
    return obj if isinstance(obj, TimeSeries) else TimeSeries(obj)


class MovingAverageTransform(Transformation):
    """Circular (weighted) ``window``-day moving average of a series."""

    def __init__(self, window: int, weights: Sequence[float] | None = None,
                 cost: float = 0.0) -> None:
        super().__init__(cost=cost, name=f"mavg{window}")
        self.window = int(window)
        self.weights = list(weights) if weights is not None else None

    def apply(self, obj: TimeSeries | Sequence[float] | np.ndarray) -> TimeSeries:
        series = _series_of(obj)
        values = moving_average_values(series.values, self.window, self.weights)
        return series.with_values(values, name=f"{self.name}({series.name})")


class ReverseTransform(Transformation):
    """Multiply every value by -1 (mirror a price series)."""

    def __init__(self, cost: float = 0.0) -> None:
        super().__init__(cost=cost, name="reverse")

    def apply(self, obj: TimeSeries | Sequence[float] | np.ndarray) -> TimeSeries:
        series = _series_of(obj)
        return series.reversed_sign()


class ShiftTransform(Transformation):
    """Add a constant to every value."""

    def __init__(self, offset: float, cost: float = 0.0) -> None:
        super().__init__(cost=cost, name=f"shift{offset:+g}")
        self.offset = float(offset)

    def apply(self, obj: TimeSeries | Sequence[float] | np.ndarray) -> TimeSeries:
        return _series_of(obj).shifted(self.offset)


class ScaleTransform(Transformation):
    """Multiply every value by a constant (negative factors are allowed)."""

    def __init__(self, factor: float, cost: float = 0.0) -> None:
        super().__init__(cost=cost, name=f"scale{factor:g}")
        self.factor = float(factor)

    def apply(self, obj: TimeSeries | Sequence[float] | np.ndarray) -> TimeSeries:
        return _series_of(obj).scaled(self.factor)


class NormalizeTransform(Transformation):
    """Replace a series by its normal form (zero mean, unit deviation)."""

    def __init__(self, cost: float = 0.0) -> None:
        super().__init__(cost=cost, name="normalize")

    def apply(self, obj: TimeSeries | Sequence[float] | np.ndarray) -> TimeSeries:
        series = _series_of(obj)
        values, _, _ = normal_form_values(series.values)
        return series.with_values(values, name=f"{series.name}~norm")


class TimeWarpTransform(Transformation):
    """Stretch the time axis by an integer factor (each value repeated)."""

    def __init__(self, factor: int, cost: float = 0.0) -> None:
        super().__init__(cost=cost, name=f"warp{factor}")
        self.factor = int(factor)

    def apply(self, obj: TimeSeries | Sequence[float] | np.ndarray) -> TimeSeries:
        series = _series_of(obj)
        return series.with_values(time_warp_values(series.values, self.factor),
                                  name=f"{self.name}({series.name})")


# ---------------------------------------------------------------------------
# spectral (frequency-domain) descriptions
# ---------------------------------------------------------------------------
#: How far from conjugate-symmetric a multiplier or offset may be, relative
#: to its largest modulus, and still map half spectra directly
#: (:attr:`SpectralTransformation.keeps_mirror`).  A moving average's
#: multiplier — the FFT of its real window — is symmetric to ~2e-16 of its
#: largest modulus, and a distance under a map that far from symmetric moves
#: by about as little.
MIRROR_TOLERANCE = 1e-12


class SpectralTransformation(Transformation):
    """A transformation described by its action on the full DFT spectrum.

    Attributes
    ----------
    multiplier, offset:
        Complex vectors of the series length ``n``; the transformation maps
        the unitary spectrum ``X`` of a series to ``multiplier * X + offset``.
    extra_multiplier, extra_offset:
        Effect on the two extra index dimensions (mean, standard deviation of
        the original series).
    """

    def __init__(self, multiplier: np.ndarray, offset: np.ndarray | None = None, *,
                 extra_multiplier: Sequence[float] = (1.0, 1.0),
                 extra_offset: Sequence[float] = (0.0, 0.0),
                 cost: float = 0.0, name: str = "spectral") -> None:
        super().__init__(cost=cost, name=name)
        self.multiplier = np.asarray(multiplier, dtype=np.complex128).reshape(-1).copy()
        if offset is None:
            offset = np.zeros(self.multiplier.shape[0], dtype=np.complex128)
        self.offset = np.asarray(offset, dtype=np.complex128).reshape(-1).copy()
        if self.offset.shape != self.multiplier.shape:
            raise ValueError("multiplier and offset must have the same length")
        self.extra_multiplier = np.asarray(extra_multiplier, dtype=np.float64).copy()
        self.extra_offset = np.asarray(extra_offset, dtype=np.float64).copy()

    @property
    def length(self) -> int:
        """The series length ``n`` the spectral description applies to."""
        return int(self.multiplier.shape[0])

    @functools.cached_property
    def keeps_mirror(self) -> bool:
        """Whether the map takes the spectrum of a real series of length
        ``n`` to a conjugate-symmetric one — ``M[n - f] = conj(M[f])`` and
        ``O[n - f] = conj(O[f])`` for ``0 < f < n/2``, to
        :data:`MIRROR_TOLERANCE` — and so a record store's half spectrum to
        the half of the mapped one.  The moving averages, sign reversal,
        shift and scale all do.  Judged once: the vectors are the
        transformation's own copies."""
        size = self.length
        frequencies = np.arange(1, (size + 1) // 2)
        for vector in (self.multiplier, self.offset):
            gaps = np.abs(vector[frequencies] - np.conj(vector[size - frequencies]))
            if (gaps > MIRROR_TOLERANCE * np.abs(vector).max(initial=0.0)).any():
                return False
        return True

    # -- applications --------------------------------------------------------
    def apply_spectrum(self, spectrum: np.ndarray) -> np.ndarray:
        """Apply to a full unitary spectrum."""
        spectrum = np.asarray(spectrum, dtype=np.complex128)
        if spectrum.shape[0] != self.length:
            raise ValueError(
                f"spectrum of length {spectrum.shape[0]} does not match the "
                f"transformation length {self.length}"
            )
        return spectrum * self.multiplier + self.offset

    def apply(self, obj: TimeSeries | Sequence[float] | np.ndarray) -> TimeSeries:
        """Apply in the time domain (DFT, multiply/add, inverse DFT)."""
        series = _series_of(obj)
        if len(series) != self.length:
            raise ValueError(
                f"series of length {len(series)} does not match the transformation "
                f"length {self.length}"
            )
        spectrum = self.apply_spectrum(dft_module.dft(series.values))
        values = np.real(dft_module.inverse_dft(spectrum))
        return series.with_values(values, name=f"{self.name}({series.name})")

    # -- derivations -----------------------------------------------------------
    def to_linear(self, k: int, *, skip_first: bool = True,
                  include_extra: bool = True) -> LinearTransformation:
        """The induced :class:`LinearTransformation` on the first ``k`` indexed
        coefficients (optionally skipping coefficient 0, which the k-index on
        normal forms never stores)."""
        start = 1 if skip_first else 0
        if start + k > self.length:
            raise ValueError(
                f"cannot take {k} coefficients starting at {start} from a length-"
                f"{self.length} transformation"
            )
        extra_multiplier = self.extra_multiplier if include_extra else np.ones(0)
        extra_offset = self.extra_offset if include_extra else np.zeros(0)
        return LinearTransformation(
            self.multiplier[start:start + k],
            self.offset[start:start + k],
            extra_multiplier=extra_multiplier,
            extra_offset=extra_offset,
            cost=self.cost,
            name=self.name,
        )

    def compose(self, other: "SpectralTransformation") -> "SpectralTransformation":
        """Apply ``self`` first and ``other`` second, as a single description."""
        if other.length != self.length:
            raise ValueError("cannot compose spectral transformations of different length")
        return SpectralTransformation(
            other.multiplier * self.multiplier,
            other.multiplier * self.offset + other.offset,
            extra_multiplier=other.extra_multiplier * self.extra_multiplier,
            extra_offset=other.extra_multiplier * self.extra_offset + other.extra_offset,
            cost=self.cost + other.cost,
            name=f"{other.name}({self.name})",
        )

    def power(self, times: int) -> "SpectralTransformation":
        """The transformation applied ``times`` times in a row."""
        if times < 1:
            raise ValueError("times must be at least 1")
        result = self
        for _ in range(times - 1):
            result = result.compose(self)
        return result


# -- factory functions -------------------------------------------------------
def identity_spectral(length: int, cost: float = 0.0) -> SpectralTransformation:
    """The identity transformation ``(1, 0)`` for length-``length`` series."""
    return SpectralTransformation(np.ones(length, dtype=np.complex128), cost=cost,
                                  name="identity")


def moving_average_spectral(length: int, window: int,
                            weights: Sequence[float] | None = None,
                            cost: float = 0.0) -> SpectralTransformation:
    """The (weighted) moving average as a spectral transformation.

    The multiplier is the non-unitary DFT of the circular window kernel;
    the extra dimensions (mean, std of the original series) are left
    untouched, matching how ``Tmavg`` is applied to the index in the paper.
    """
    kernel = moving_average_kernel(length, window, weights)
    multiplier = dft_module.convolution_multiplier(kernel)
    return SpectralTransformation(multiplier, cost=cost, name=f"mavg{window}")


def reverse_spectral(length: int, cost: float = 0.0) -> SpectralTransformation:
    """Sign reversal (multiply every value, hence every coefficient, by -1).

    The stored mean flips sign; the standard deviation is unchanged.
    """
    return SpectralTransformation(-np.ones(length, dtype=np.complex128),
                                  extra_multiplier=(-1.0, 1.0), cost=cost,
                                  name="reverse")


def shift_spectral(length: int, offset: float, cost: float = 0.0) -> SpectralTransformation:
    """Adding a constant to a series.

    Only the DC coefficient (and the stored mean) change; because the k-index
    stores *normal form* coefficients — which are invariant under shifts —
    the per-coefficient multiplier is the identity and the offset vector is
    zero except at frequency 0.
    """
    spectral_offset = np.zeros(length, dtype=np.complex128)
    spectral_offset[0] = offset * math.sqrt(length)
    return SpectralTransformation(np.ones(length, dtype=np.complex128), spectral_offset,
                                  extra_multiplier=(1.0, 1.0),
                                  extra_offset=(float(offset), 0.0),
                                  cost=cost, name=f"shift{offset:+g}")


def scale_spectral(length: int, factor: float, cost: float = 0.0) -> SpectralTransformation:
    """Multiplying a series by a constant (negative factors allowed).

    Every coefficient scales by the factor; the stored mean scales by the
    factor and the stored standard deviation by its absolute value.  On
    *normal form* coefficients only the sign of the factor survives, which is
    what :meth:`SpectralTransformation.to_linear` callers should use together
    with the extra-dimension effect.
    """
    return SpectralTransformation(np.full(length, factor, dtype=np.complex128),
                                  extra_multiplier=(float(factor), abs(float(factor))),
                                  cost=cost, name=f"scale{factor:g}")


def time_warp_linear(length: int, factor: int, k: int, *, skip_first: bool = True,
                     num_extra: int = 2, cost: float = 0.0) -> LinearTransformation:
    """The time-warping transformation on the first ``k`` indexed coefficients.

    Maps coefficients of a length-``length`` series to the corresponding
    coefficients of its ``factor``-times warped (length ``factor * length``)
    version, so a short query can be matched against an index of long series
    (Example 1.2 of the companion text).  The extra dimensions are left
    unchanged (warping preserves the mean and the standard deviation of the
    value distribution).
    """
    start = 1 if skip_first else 0
    multiplier = time_warp_multiplier(length, factor, start + k)[start:start + k]
    return LinearTransformation(multiplier, np.zeros(k, dtype=np.complex128),
                                extra_multiplier=np.ones(num_extra),
                                extra_offset=np.zeros(num_extra),
                                cost=cost, name=f"warp{factor}")
