"""Non-Markovianity measures extracted from fidelity series.

The measure sums every rise of |f(t)| between consecutive kicks and doubles
it, which is the value attained by the optimal qubit pair of the dephasing
channel.  Plateaus and decreases contribute nothing.  One reducer,
measure_rows, sums the rises of every measure in time order, from time-major
blocks of rows: the one-kick blocks of a propagating pass, the blocks of
kicks of the sampled BLP measure, the closeness blocks of the classical
measure, and a stored series as one block (measure_value).  However a series
is cut into blocks, its sum has the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .echo import FidelitySeries

__all__ = ["NmResult", "measure", "measure_rows", "measure_value"]

# Most rows of a time-major block that a caller forms at once: enough that the
# per-block calls of measure_rows amortize, few enough that the block of a
# few thousand series stays in cache.
BLOCK_ROWS = 32


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
    absvals = np.asarray(absvals, dtype=float)
    return float(measure_rows([absvals] if absvals.size else []))


def measure_rows(blocks) -> np.ndarray:
    """measure_value per series, from time-major blocks of rows |f(t)|.

    A block is an array of m >= 1 consecutive rows, each holding one entry
    per series (or a scalar for one series); the first row of the first block
    is t = 0.  The rises within a block are formed by one subtract and one
    maximum over all its rows.  The running total then adds the rise into the
    block's first row and the block's rises row by row, in time order, never
    by a pairwise sum, so a block of m rows gives the bits of m blocks of one
    row.  (np.add.accumulate along the rows makes the same additions, but numpy
    runs it one series at a time: about 4x slower at 500 series.)  The last
    row of a block is read again with the next block, so a caller hands over
    a fresh array each time.
    """
    total, prev = 0.0, None
    for block in blocks:
        if prev is not None:
            total = total + np.maximum(block[0] - prev, 0.0)
        if len(block) > 1:
            rises = np.subtract(block[1:], block[:-1])
            for rise in np.maximum(rises, 0.0, out=rises):
                total = total + rise
        prev = block[-1]
    return 2.0 * total


def measure(series: FidelitySeries) -> NmResult:
    """Evaluate the measure on one series; k and dkh stay NaN, as a bare series has no cell."""
    return NmResult(k=math.nan, dkh=math.nan, value=measure_value(np.abs(series.values)))
