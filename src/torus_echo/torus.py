"""Finite Hilbert space on the unit torus.

An N-dimensional space quantizes the torus [0,1)^2 with effective Planck
constant hbar = 1/(2*pi*N).  Position eigenvalues sit on the grid q_n = n/N;
the discrete Fourier transform with kernel exp(-2i*pi*n*k/N)/sqrt(N) maps
position amplitudes to momentum amplitudes on the grid p_k = k/N.  A
coherent state sums as many periodic images as rounding can see, so it maps
to its image under every symmetry of a map up to a global phase and
rounding, at every N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["PhasePoint", "TorusState", "coherent_state"]

# Amplitudes per BLAS dot product.  Longer vectors let BLAS split the sum by
# thread, and the last bits of the result would follow OPENBLAS_NUM_THREADS.
DOT_SLICE = 8192


@dataclass(frozen=True)
class PhasePoint:
    """A point (q, p) on the unit torus; coordinates wrap into [0, 1) and must be finite."""

    q: float
    p: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.q) and math.isfinite(self.p)):
            raise ValueError(f"phase-space point must be finite, got ({self.q}, {self.p})")
        # x % 1.0 rounds a negative x above about -1.1e-16 up to 1.0
        object.__setattr__(self, "q", float(self.q) % 1.0 % 1.0)
        object.__setattr__(self, "p", float(self.p) % 1.0 % 1.0)


@dataclass(frozen=True)
class TorusState:
    """Normalized state in the position representation."""

    amps: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        # a frozen copy, so the caller's array stays writeable
        amps = np.array(self.amps, dtype=complex)
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= 1e-8:
            raise ValueError(f"state norm {norm!r} is not 1 within 1e-8")

    @property
    def n(self) -> int:
        return self.amps.shape[0]


def coherent_state(n: int, center: PhasePoint) -> TorusState:
    """Normalized minimum-uncertainty wave packet at the given center.

    Gaussian of circular width ~1/sqrt(N) centered at (q0, p0), periodized
    over the images m = -M, ..., M: M is 1 from N = 12 on, 2 for
    3 <= N <= 11 and 3 at N = 2.  Image m carries the plane wave
    exp(2i*pi*N*p0*(q_n - m)).  Periodic boundary phases are zero.
    """
    q = np.arange(n) / n
    amps = np.zeros(n, dtype=complex)
    # q - q0 lies in (-1, 1): image M + 1 is over M from every grid point and
    # weighs under exp(-pi N M^2) <= 2**-53, against a peak near 1
    images = math.ceil(math.sqrt(53 * math.log(2) / (math.pi * n)))
    for m in range(-images, images + 1):
        gauss = np.exp(-math.pi * n * (q - center.q - m) ** 2)
        phase = np.exp(2j * math.pi * n * center.p * (q - m))
        amps += gauss * phase
    return TorusState(amps / _norm(amps))


def _norm(amps: np.ndarray) -> float:
    """np.linalg.norm of a complex vector, its square summed over fixed DOT_SLICE slices."""
    sqnorm = 0.0
    for i in range(0, amps.shape[0], DOT_SLICE):
        part = amps[i:i + DOT_SLICE]
        sqnorm += part.real.dot(part.real) + part.imag.dot(part.imag)
    return np.sqrt(sqnorm)
