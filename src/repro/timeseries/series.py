"""The :class:`TimeSeries` data object.

A time series is a finite sequence of real values, one per time point.  The
class is an immutable value object: arithmetic helpers return new series, and
the raw values are exposed as a read-only numpy array.  It plugs into the
framework as a :class:`~repro.core.objects.DataObject`, producing feature
vectors (mean, standard deviation and leading DFT coefficients of the normal
form) in whichever feature space the caller provides.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from ..core.objects import DataObject, FeatureVector
from ..core.spaces import FeatureSpace
from . import dft as dft_module

__all__ = ["TimeSeries"]


class TimeSeries(DataObject):
    """A real-valued sequence indexed by time.

    Parameters
    ----------
    values:
        The observations, oldest first: at least one, all finite.
    name:
        Optional human-readable identifier (e.g. a ticker symbol).
    start:
        Optional label for the first time point (kept as opaque metadata).
    payload, object_id:
        As for any :class:`~repro.core.objects.DataObject`.
    """

    def __init__(self, values: Iterable[float] | np.ndarray, *, name: str | None = None,
                 start: Any = None, object_id: int | None = None,
                 payload: Any = None) -> None:
        array = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                           dtype=np.float64)
        if array.ndim != 1:
            raise ValueError("a time series must be one-dimensional")
        if array.shape[0] == 0:
            raise ValueError("a time series must contain at least one value")
        if not np.isfinite(array).all():
            # One nan poisons every distance it enters: the index and the
            # scan would stop agreeing on what is near it.
            raise ValueError("every value of a time series must be finite")
        array = array.copy()
        array.setflags(write=False)
        super().__init__(object_id=object_id, name=name, payload=payload)
        self._values = array
        self.start = start

    # ------------------------------------------------------------------
    # value access
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """The observations as a read-only numpy array."""
        return self._values

    def __len__(self) -> int:
        return int(self._values.shape[0])

    def __getitem__(self, index):
        result = self._values[index]
        if np.isscalar(result) or result.ndim == 0:
            return float(result)
        return TimeSeries(result, name=f"{self.name}[{index}]")

    def __iter__(self):
        return iter(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return bool(np.array_equal(self._values, other._values))

    def __hash__(self) -> int:
        return hash(self._values.tobytes())

    def __repr__(self) -> str:
        preview = ", ".join(f"{v:.4g}" for v in self._values[:4])
        suffix = ", ..." if len(self) > 4 else ""
        return f"TimeSeries(name={self.name!r}, length={len(self)}, values=[{preview}{suffix}])"

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def mean(self) -> float:
        """Arithmetic mean of the observations."""
        return float(np.mean(self._values))

    def std(self) -> float:
        """Population standard deviation of the observations."""
        return float(np.std(self._values))

    def energy(self) -> float:
        """Signal energy ``sum x_t^2``."""
        return dft_module.energy(self._values)

    # ------------------------------------------------------------------
    # derived series
    # ------------------------------------------------------------------
    def with_values(self, values: Sequence[float] | np.ndarray,
                    name: str | None = None) -> "TimeSeries":
        """A new series with the same metadata but different observations."""
        return TimeSeries(values, name=name or self.name, start=self.start,
                          payload=self.payload)

    def shifted(self, offset: float) -> "TimeSeries":
        """Every observation increased by ``offset``."""
        return self.with_values(self._values + float(offset), name=f"{self.name}+{offset:g}")

    def scaled(self, factor: float) -> "TimeSeries":
        """Every observation multiplied by ``factor``."""
        return self.with_values(self._values * float(factor), name=f"{self.name}*{factor:g}")

    def reversed_sign(self) -> "TimeSeries":
        """The series multiplied by -1 (price "reversal" in the stock examples)."""
        return self.with_values(-self._values, name=f"-{self.name}")

    # ------------------------------------------------------------------
    # spectra and features
    # ------------------------------------------------------------------
    def spectrum(self) -> np.ndarray:
        """The unitary DFT of the observations."""
        return dft_module.dft(self._values)

    def leading_coefficients(self, k: int, skip_first: bool = False) -> np.ndarray:
        """The first ``k`` DFT coefficients (optionally skipping coefficient 0)."""
        return dft_module.leading_coefficients(self._values, k, skip_first=skip_first)

    def euclidean_distance(self, other: "TimeSeries") -> float:
        """Euclidean distance to another series of the same length."""
        if len(self) != len(other):
            raise ValueError("series must have equal length to be compared")
        return float(np.linalg.norm(self._values - other._values))

    def feature_vector(self, space: FeatureSpace | None = None) -> FeatureVector:
        """Map the series to a point in ``space``.

        The layout matches the k-index of the companion evaluation: the
        *extra* coordinates hold the mean and standard deviation of the raw
        series (when the space reserves them), and the complex features are
        the leading DFT coefficients of the *normal form*, skipping the first
        (always-zero) coefficient.  When ``space`` is ``None`` the raw values
        themselves are returned as features.
        """
        if space is None:
            return FeatureVector(self._values)
        from .features import series_features  # local import to avoid a cycle

        return series_features(self, space)
