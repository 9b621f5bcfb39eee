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

__all__ = [
    "HilbertDim",
    "PhasePoint",
    "TorusState",
    "basis_state",
    "coherent_state",
    "dft",
    "idft",
    "overlap",
]


@dataclass(frozen=True)
class HilbertDim:
    """Dimension of the torus Hilbert space; fixes the grid and hbar."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"dimension must be >= 2, got {self.n}")

    @property
    def hbar(self) -> float:
        return 1.0 / (2.0 * math.pi * self.n)

    def position_grid(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    def momentum_grid(self, centered: bool = False) -> np.ndarray:
        """Momentum values by FFT index; centered folds k >= N/2 to k - N."""
        k = np.arange(self.n, dtype=float)
        if centered:
            k[k >= self.n / 2] -= self.n
        return k / self.n


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

    @property
    def dim(self) -> HilbertDim:
        return HilbertDim(self.n)


def basis_state(n: int, j: int) -> TorusState:
    """Position eigenstate |j> on the N-point grid."""
    if not 0 <= j < n:
        raise ValueError(f"basis index {j} outside 0..{n - 1}")
    amps = np.zeros(n, dtype=complex)
    amps[j] = 1.0
    return TorusState(amps)


def dft(state: TorusState) -> TorusState:
    """Forward transform, position to momentum representation."""
    return TorusState(np.fft.fft(state.amps, norm="ortho"))


def idft(state: TorusState) -> TorusState:
    """Inverse transform, momentum back to position representation."""
    return TorusState(np.fft.ifft(state.amps, norm="ortho"))


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


def overlap(a: TorusState, b: TorusState) -> complex:
    """Inner product <a|b>, conjugating the first argument."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    return complex(np.vdot(a.amps, b.amps))
