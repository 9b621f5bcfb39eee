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

__all__ = ["NmResult", "measure", "measure_rows", "measure_value", "rise_segments"]


@dataclass(frozen=True)
class NmResult:
    """Measure value with its sweep coordinates and the contributing rises.

    k, dkh, n, t_max and kind are the cell coordinates that scans.sweep was
    given; measure on a bare series knows only t_max and kind, and leaves k,
    dkh and n at NaN, NaN and 0.  segments is a tuple of (t_start, t_end,
    rise) triples covering each maximal run of consecutive increases of |f|;
    value = 2 * sum of rises (empty for a grid-averaged sweep cell).
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
    """Evaluate the measure and its rise segments on one series.

    The series carries no map coordinates, so k, dkh and n are NaN, NaN and 0.
    """
    absvals = np.abs(series.values)
    return NmResult(k=math.nan, dkh=math.nan, n=0, t_max=series.t_max, kind=series.kind,
                    value=measure_value(absvals), segments=tuple(rise_segments(absvals)))
