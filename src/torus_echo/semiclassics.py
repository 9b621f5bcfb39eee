"""Short-time decay rate of the averaged fidelity.

A perturbation phase exp(i a cos(2 pi g)) averaged over a uniform grid is a
Riemann sum for the zeroth Bessel function, so the first kick obeys
|<f(1)>| = |J0(delta_k/hbar)| and the predicted exponential rate is
gamma = -ln|J0|.  At zeros of J0 the rate diverges and is reported as inf.

bessel_j0 is that sum with enough nodes to be exact to rounding.  It refuses
|x| > MATRIX_GUARD: the N-point first kick is J0 only while N > delta_k/hbar,
and trace runs stop at N = MATRIX_GUARD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .echo import fidelity_trace
from .maps import MATRIX_GUARD, MapSpec, PerturbedPair

__all__ = [
    "DIVERGENCE_FLOOR",
    "ShortTimeCheck",
    "bessel_j0",
    "gamma_curve",
    "gamma_rate",
    "short_time_check",
]

# |J0| below this counts as a zero and gamma_rate reports divergence.
DIVERGENCE_FLOOR = 1e-12


def bessel_j0(x):
    """J0 by the M-node periodic trapezoid rule (1/M) sum_m cos(x cos(2 pi m/M)).

    M = 4 ceil((x_max + 8 x_max^(1/3) + 40)/4) for the largest |x| of the
    call keeps the aliasing error 2 |J_M(x)| below rounding.  Arguments that
    are not finite or exceed MATRIX_GUARD in size raise ValueError.
    """
    arr = np.asarray(x, dtype=float)
    magnitude = np.abs(arr)
    bad = arr[~(magnitude <= MATRIX_GUARD)]
    if bad.size:
        raise ValueError(f"J0 argument must be finite with |x| <= {MATRIX_GUARD}, "
                         f"got {float(bad[0])}")
    x_max = float(magnitude.max(initial=0.0))
    m = 4 * math.ceil((x_max + 8.0 * x_max ** (1.0 / 3.0) + 40.0) / 4.0)
    out = np.zeros_like(arr)
    for node in np.cos(2.0 * math.pi * np.arange(m) / m):
        out += np.cos(node * arr)
    out /= m
    return float(out) if out.ndim == 0 else out


def gamma_rate(dkh: float) -> float:
    """Predicted decay rate -ln|J0(dkh)|, even in dkh; inf when dkh sits on a J0 zero."""
    return float(gamma_curve([dkh])[0])


def gamma_curve(dkh_values) -> np.ndarray:
    """Predicted decay rates -ln|J0(dkh)| on a grid; entries on a J0 zero are inf.

    J0 is even, so -dkh has the rate of dkh; bessel_j0 refuses the dkh beyond its range.
    """
    dkh = np.asarray(dkh_values, dtype=float)
    j = np.abs(bessel_j0(dkh))
    rate = np.full(dkh.shape, math.inf)
    finite = j >= DIVERGENCE_FLOOR
    rate[finite] = -np.log(j[finite]) + 0.0
    return rate


@dataclass(frozen=True)
class ShortTimeCheck:
    """First-kick decay rate, measured against the Bessel prediction."""

    measured: float
    predicted: float
    residual: float
    diverged: bool


def short_time_check(family: str, k: float, dkh: float, n: int) -> ShortTimeCheck:
    """Compare -ln|<f(1)>| with gamma_rate(dkh) for one map configuration.

    Near a J0 zero the prediction diverges and the comparison is flagged
    rather than scored; a measured |<f(1)>| below DIVERGENCE_FLOOR is
    rounding noise and is reported as measured = inf, the floor gamma_curve
    applies to J0.  Away from zeros the residual is O(1/N) from the
    Riemann-sum error of the grid average.
    """
    predicted = gamma_rate(dkh)
    pair = PerturbedPair.from_dkh(MapSpec(family=family, n=n, k=k), dkh)
    f1 = float(abs(fidelity_trace(pair, 1).values[1]))
    unresolved = f1 < DIVERGENCE_FLOOR  # -ln of rounding noise is no rate
    measured = math.inf if unresolved else -math.log(f1)
    diverged = math.isinf(predicted) or unresolved
    residual = math.nan if diverged else abs(measured - predicted)
    return ShortTimeCheck(measured=measured, predicted=predicted, residual=residual,
                          diverged=diverged)
