"""Normal form of a time series (Goldin & Kanellakis, 1995).

The normal form removes location and scale: every value has the series mean
subtracted and is divided by the series' standard deviation,

.. math::  s'_i = \\frac{s_i - \\mathrm{mean}(s)}{\\mathrm{std}(s)}.

The normal form of a constant series is defined here as the all-zero series
(its standard deviation is zero, so the paper's formula would divide by
zero); the mean and standard deviation are always returned alongside so the
original series can be reconstructed exactly whenever the deviation was
non-zero.

The k-index stores the mean and standard deviation of the *original* series
as two leading real dimensions and indexes the DFT coefficients of the normal
form, so that plain shift and scale queries need no transformation at all
while richer transformations remain available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import TimeSeries

__all__ = ["NormalForm", "normalize", "denormalize", "normal_form_values"]


@dataclass(frozen=True)
class NormalForm:
    """A normalised series together with the statistics removed from it."""

    series: TimeSeries
    mean: float
    std: float

    def restore(self) -> TimeSeries:
        """Reconstruct the original series (exact when ``std`` was non-zero)."""
        return denormalize(self.series, self.mean, self.std)


def normal_form_values(values: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Normal form of a raw value array; returns ``(normalised, mean, std)``.

    ``mean`` and ``std`` are ``np.mean`` and ``np.std`` of the values, bit
    for bit, computed by the reductions those functions run — the sum
    divided by the count; the deviations from that mean, squared, summed,
    divided and rooted — without their argument handling, which costs a
    query's extraction more than the arithmetic does.  The deviations are
    then the normal form's numerators."""
    array = np.asarray(values, dtype=np.float64)
    size = array.size
    mean = np.add.reduce(array, axis=None) / size
    deviations = array - mean
    std = math.sqrt(np.add.reduce(deviations * deviations, axis=None) / size)
    if std == 0.0:
        return np.zeros_like(array), float(mean), std
    deviations /= std
    return deviations, float(mean), std


def normalize(series: TimeSeries) -> NormalForm:
    """The normal form of a :class:`TimeSeries`."""
    values, mean, std = normal_form_values(series.values)
    normalised = series.with_values(values, name=f"{series.name}~norm")
    return NormalForm(series=normalised, mean=mean, std=std)


def denormalize(series: TimeSeries, mean: float, std: float) -> TimeSeries:
    """Invert :func:`normalize` given the removed statistics."""
    scale = std if std != 0.0 else 0.0
    return series.with_values(series.values * scale + mean,
                              name=series.name.removesuffix("~norm") or series.name)
