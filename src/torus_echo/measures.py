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
    """Measure value with the (K, dkh) cell it belongs to.

    scans.sweep labels each value with the K and dkh of its cell as given;
    measure on a bare series, which has no cell, leaves both at NaN.
    """

    k: float
    dkh: float
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
    """Evaluate the measure on one series; k and dkh stay NaN, as a bare series has no cell."""
    return NmResult(k=math.nan, dkh=math.nan, value=measure_value(np.abs(series.values)))
