"""Short-time decay rate of the averaged fidelity.

A perturbation phase exp(i a cos(2 pi g)) averaged over a uniform grid is a
Riemann sum for the zeroth Bessel function, so the first kick obeys
|<f(1)>| = |J0(delta_k/hbar)| and the predicted exponential rate is
gamma = -ln|J0|.  At zeros of J0 the rate diverges and is reported as inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .echo import fidelity_trace
from .maps import MapSpec, PerturbedPair

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

_SERIES_CUT = 12.0
_ASYMPTOTIC_TERMS = 21


def _j0_series(x: np.ndarray) -> np.ndarray:
    """Power series sum_k (-1)^k (x/2)^(2k) / (k!)^2, good for |x| <= 12."""
    z = -0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 60):
        term = term * z / (k * k)
        total = total + term
        if np.all(np.abs(term) < 1e-17):
            break
    return total


def _j0_asymptotic(x: np.ndarray) -> np.ndarray:
    """Hankel expansion for large argument.

    J0(x) = sqrt(2/(pi x)) [P(x) cos(x - pi/4) - Q(x) sin(x - pi/4)] with
    coefficients A_m = prod_{j<=m} (2j-1)^2 / (m! 8^m) feeding P (even m)
    and Q (odd m) with alternating signs.  Terms still shrink at m = 20 for
    x >= 12, so a fixed cut there keeps the error below 1e-10.
    """
    p = np.ones_like(x)
    q = np.zeros_like(x)
    coeff = 1.0
    power = np.ones_like(x)
    for m in range(1, _ASYMPTOTIC_TERMS):
        coeff *= (2 * m - 1) ** 2 / (m * 8.0)
        power = power / x
        sign = (-1.0) ** ((m + 1) // 2)
        if m % 2 == 1:
            q = q + sign * coeff * power
        else:
            p = p + sign * coeff * power
    chi = x - 0.25 * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(chi) - q * np.sin(chi))


def bessel_j0(x):
    """J0 for scalar or array argument, |error| < 1e-10 on [0, 50]."""
    arr = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(arr)
    small = arr <= _SERIES_CUT
    if np.any(small):
        out[small] = _j0_series(arr[small])
    if np.any(~small):
        out[~small] = _j0_asymptotic(arr[~small])
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def gamma_rate(dkh: float) -> float:
    """Predicted decay rate -ln|J0(dkh)|; inf when dkh sits on a J0 zero."""
    if not (math.isfinite(dkh) and dkh >= 0.0):
        raise ValueError(f"dkh must be finite and >= 0, got {dkh}")
    j = abs(bessel_j0(dkh))
    if j < DIVERGENCE_FLOOR:
        return math.inf
    return -math.log(j) + 0.0


def gamma_curve(dkh_values) -> np.ndarray:
    """gamma_rate evaluated on a grid; divergent entries are inf."""
    return np.array([gamma_rate(v) for v in np.asarray(dkh_values, dtype=float)])


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
    rather than scored; away from zeros the residual is O(1/N) from the
    Riemann-sum error of the grid average.
    """
    pair = PerturbedPair.from_dkh(MapSpec(family=family, n=n, k=k), dkh)
    f1 = abs(fidelity_trace(pair, 1).values[1])
    predicted = gamma_rate(dkh)
    if math.isinf(predicted) or f1 == 0.0:
        return ShortTimeCheck(
            measured=math.inf if f1 == 0.0 else -math.log(f1),
            predicted=predicted,
            residual=math.nan,
            diverged=True,
        )
    measured = -math.log(f1)
    return ShortTimeCheck(
        measured=measured,
        predicted=predicted,
        residual=abs(measured - predicted),
        diverged=False,
    )
