"""Non-Markovianity measures extracted from fidelity series.

The measure sums every rise of |f(t)| between consecutive kicks and doubles
it, which is the value attained by the optimal qubit pair of the dephasing
channel.  Rises are grouped into maximal segments of consecutive increases;
plateaus and decreases contribute nothing and terminate a segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .echo import FidelitySeries

__all__ = [
    "FluctuationStats",
    "NmResult",
    "measure",
    "measure_rows",
    "measure_value",
    "measure_vs_time",
    "fluctuation_stats",
    "rise_segments",
]


@dataclass(frozen=True)
class NmResult:
    """Measure value with its sweep coordinates and the contributing rises.

    segments is a tuple of (t_start, t_end, rise) triples covering each
    maximal run of consecutive increases of |f|; value = 2 * sum of rises.
    """

    k: float
    dkh: float
    n: int
    t_max: int
    kind: str
    value: float
    segments: tuple[tuple[int, int, float], ...] = ()


def rise_segments(absvals: np.ndarray) -> list[tuple[int, int, float]]:
    """Maximal runs of strictly increasing |f|, with their total rise."""
    segments = []
    start = None
    for t in range(1, len(absvals)):
        if absvals[t] > absvals[t - 1]:
            if start is None:
                start = t - 1
        elif start is not None:
            segments.append((start, t - 1, float(absvals[t - 1] - absvals[start])))
            start = None
    if start is not None:
        end = len(absvals) - 1
        segments.append((start, end, float(absvals[end] - absvals[start])))
    return segments


def measure_value(absvals: np.ndarray) -> float:
    """2 * sum of all positive one-step increments of |f|."""
    diffs = np.diff(np.asarray(absvals, dtype=float))
    return float(2.0 * diffs[diffs > 0.0].sum())


def measure_rows(rows) -> np.ndarray:
    """measure_value per series, from rows |f(t)| (one entry per series) in time order."""
    total = 0.0
    for prev, row in pairwise(rows):
        total = total + np.maximum(row - prev, 0.0)
    return 2.0 * total


def measure(series: FidelitySeries) -> NmResult:
    """Evaluate the measure on a stored series, keeping sweep labels."""
    absvals = np.abs(series.values)
    segments = tuple(rise_segments(absvals))
    value = measure_value(absvals)
    if series.pair is not None:
        k, dkh, n = series.pair.u0.k, series.pair.dkh, series.pair.n
    else:
        k, dkh, n = math.nan, math.nan, 0
    return NmResult(
        k=k,
        dkh=dkh,
        n=n,
        t_max=series.t_max,
        kind=series.kind,
        value=value,
        segments=segments,
    )


def measure_vs_time(series: FidelitySeries) -> np.ndarray:
    """Running value of the measure after each kick; length T + 1."""
    diffs = np.diff(np.abs(series.values))
    out = np.zeros(series.values.shape[0])
    out[1:] = 2.0 * np.cumsum(np.where(diffs > 0.0, diffs, 0.0))
    return out


@dataclass(frozen=True)
class FluctuationStats:
    """Statistics of |f| on an inclusive kick window [t0, t1]."""

    t0: int
    t1: int
    mean: float
    variance: float
    hist_counts: np.ndarray
    hist_edges: np.ndarray
    spectrum_freq: np.ndarray
    spectrum_power: np.ndarray


def fluctuation_stats(
    series: FidelitySeries, t0: int, t1: int, bins: int = 20
) -> FluctuationStats:
    """Moments, histogram and power spectrum of |f(t)| for t0 <= t <= t1.

    The spectrum is the squared modulus of the discrete transform of the
    mean-subtracted window, at its native length; frequencies are reported
    in cycles per kick.
    """
    if not 0 <= t0 < t1 <= series.t_max:
        raise ValueError(f"empty or out-of-range window [{t0}, {t1}]")
    window = np.abs(series.values[t0 : t1 + 1])
    mean = float(window.mean())
    variance = float(window.var())
    # |f| may exceed 1 by rounding; such values belong in the top bin
    counts, edges = np.histogram(np.minimum(window, 1.0), bins=bins, range=(0.0, 1.0))
    centered = window - mean
    power = np.abs(np.fft.rfft(centered)) ** 2
    freq = np.fft.rfftfreq(window.shape[0], d=1.0)
    return FluctuationStats(
        t0=t0,
        t1=t1,
        mean=mean,
        variance=variance,
        hist_counts=counts,
        hist_edges=edges,
        spectrum_freq=freq,
        spectrum_power=power,
    )
