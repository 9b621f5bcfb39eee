"""Finite Hilbert space on the unit torus.

An N-dimensional space quantizes the torus [0,1)^2 with effective Planck
constant hbar = 1/(2*pi*N).  Position eigenvalues sit on the grid q_n = n/N;
the discrete Fourier transform with kernel exp(-2i*pi*n*k/N)/sqrt(N) maps
position amplitudes to momentum amplitudes on the grid p_k = k/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["PhasePoint", "TorusState", "coherent_state"]


@dataclass(frozen=True)
class PhasePoint:
    """A point (q, p) on the unit torus; coordinates wrap mod 1."""

    q: float
    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", float(self.q) % 1.0)
        object.__setattr__(self, "p", float(self.p) % 1.0)


@dataclass(frozen=True)
class TorusState:
    """Normalized state in the position representation."""

    amps: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=complex)
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
    over the three nearest images m = -1, 0, 1.  Image m carries the plane
    wave exp(2i*pi*N*p0*(q_n - m)).  Periodic boundary phases are zero.
    """
    q = np.arange(n) / n
    amps = np.zeros(n, dtype=complex)
    for m in (-1, 0, 1):
        gauss = np.exp(-math.pi * n * (q - center.q - m) ** 2)
        phase = np.exp(2j * math.pi * n * center.p * (q - m))
        amps += gauss * phase
    return TorusState(amps / np.linalg.norm(amps))
