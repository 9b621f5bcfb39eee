"""Non-Markovianity measures extracted from fidelity series.

The measure sums every rise of |f(t)| between consecutive kicks and doubles
it, which is the value attained by the optimal qubit pair of the dephasing
channel.  Plateaus and decreases contribute nothing.  The rises are summed
in time order, one kick at a time: measure_rows does so while a pass
propagates, and measure_value on a stored series gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .echo import FidelitySeries

__all__ = ["NmResult", "measure", "measure_rows", "measure_value"]


@dataclass(frozen=True)
class NmResult:
    """Measure value with its sweep coordinates.

    k, dkh, n, t_max and kind are the cell coordinates that scans.sweep was
    given; measure on a bare series knows only t_max and kind, and leaves k,
    dkh and n at NaN, NaN and 0.
    """

    k: float
    dkh: float
    n: int
    t_max: int
    kind: str
    value: float


def measure_value(absvals: np.ndarray) -> float:
    """2 * sum of all positive one-step increments of |f|, added in time order."""
    rises = np.maximum(np.diff(np.asarray(absvals, dtype=float)), 0.0)
    return float(2.0 * np.cumsum(np.r_[0.0, rises])[-1])


def measure_rows(rows) -> np.ndarray:
    """measure_value per series, from rows |f(t)| (one entry per series) in time order."""
    total = 0.0
    for prev, row in pairwise(rows):
        total = total + np.maximum(row - prev, 0.0)
    return 2.0 * total


def measure(series: FidelitySeries) -> NmResult:
    """Evaluate the measure on one series.

    The series carries no map coordinates, so k, dkh and n are NaN, NaN and 0.
    """
    return NmResult(k=math.nan, dkh=math.nan, n=0, t_max=series.t_max, kind=series.kind,
                    value=measure_value(np.abs(series.values)))
