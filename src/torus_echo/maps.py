"""Quantized kicked maps on the torus.

Two one-parameter families, applied by split-operator steps:

  sm : U = exp(-i p^2 / (2 hbar)) . exp(-i (N K / 2 pi) cos(2 pi q))
  hm : U = exp(+i N K2 cos(2 pi p)) . exp(+i N K1 cos(2 pi q))

On the momentum grid p_k = k/N the sm drift phase is pi k^2 / N, the only
choice that stays single valued under k -> k + N.

The kick amplitudes are fixed by the classical limit.  A diagonal factor
exp(-i V(q)/hbar) with hbar = 1/(2 pi N) shifts momentum by -V'(q), so the
amplitudes above make the steps quantize exactly the classical torus maps

  sm : p' = p + (K / 2 pi) sin(2 pi x),   x' = x + p'
  hm : p' = p - K1 sin(2 pi x),           x' = x + K2 sin(2 pi p')

and K means the same thing on both sides: the quantum transition to chaos
happens at the classical critical kick strength.

Perturbed pairs are parametrized by the scaled strength dkh, defined as the
phase amplitude of the one-step echo operator.  For sm the pair (K, K + dK)
gives U1^dag U0 = exp(+i dkh cos(2 pi q)) with dkh = N dK / 2 pi; for hm the
perturbation sits on K2 and the echo factor is exp(-i dkh cos(2 pi p)) with
dkh = N dK.  Either way the one-step average fidelity is J0(dkh).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .torus import TorusState

__all__ = [
    "GuardError",
    "MATRIX_GUARD",
    "MapSpec",
    "PerturbedPair",
    "apply_map",
    "build_matrix",
]

FAMILIES = ("sm", "hm")

# Largest dimension for which dense N x N matrices may be materialized.
MATRIX_GUARD = 8192


class GuardError(RuntimeError):
    """A resource guard was exceeded; the message names the guard."""


@dataclass(frozen=True)
class MapSpec:
    """One quantized map: family, dimension and kick strengths.

    For the hm family ``k`` multiplies the position kick and ``k2`` the
    momentum kick; ``k2`` defaults to ``k``.
    """

    family: str
    n: int
    k: float
    k2: float | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown map family {self.family!r}")
        if self.n < 2:
            raise ValueError(f"dimension must be >= 2, got {self.n}")
        for label, val in (("K", self.k), ("K2", self.k2)):
            if val is not None and not (math.isfinite(val) and val >= 0.0):
                raise ValueError(f"{label} must be finite and >= 0, got {val}")
        if self.family == "hm" and self.k2 is None:
            object.__setattr__(self, "k2", self.k)

    @property
    def dkh_unit(self) -> float:
        """Shift of the perturbed kick strength that makes dkh = 1."""
        if self.family == "sm":
            return 2.0 * math.pi / self.n
        return 1.0 / self.n


@dataclass(frozen=True)
class PerturbedPair:
    """An unperturbed map u0 and its perturbation u1 by delta_k.

    The two specs differ in exactly one entry: the sm kick strength, or the
    hm momentum kick strength k2.  At t = 1 the echo operator is then a pure
    perturbation phase with amplitude dkh, on the position grid for sm and
    on the momentum grid for hm (up to conjugation by the shared factors).
    """

    u0: MapSpec
    u1: MapSpec
    delta_k: float

    @classmethod
    def from_base(cls, u0: MapSpec, delta_k: float) -> "PerturbedPair":
        if u0.family == "sm":
            u1 = replace(u0, k=u0.k + delta_k)
        else:
            u1 = replace(u0, k2=u0.k2 + delta_k)
        return cls(u0=u0, u1=u1, delta_k=delta_k)

    @classmethod
    def from_dkh(cls, u0: MapSpec, dkh: float) -> "PerturbedPair":
        """Build the pair from the scaled perturbation strength dkh."""
        return cls.from_base(u0, dkh * u0.dkh_unit)

    @property
    def dkh(self) -> float:
        return self.delta_k / self.u0.dkh_unit

    @property
    def n(self) -> int:
        return self.u0.n


def kick_phase(spec: MapSpec) -> np.ndarray:
    """Diagonal position-kick factor on the grid q_n = n/N."""
    q = np.arange(spec.n) / spec.n
    if spec.family == "sm":
        amp = spec.n * spec.k / (2.0 * math.pi)
        return np.exp(-1j * amp * np.cos(2.0 * math.pi * q))
    return np.exp(1j * spec.n * spec.k * np.cos(2.0 * math.pi * q))


def drift_phase(spec: MapSpec) -> np.ndarray:
    """Diagonal momentum factor, indexed by FFT frequency k."""
    k = np.arange(spec.n, dtype=float)
    if spec.family == "sm":
        return np.exp(-1j * math.pi * k * k / spec.n)
    p = k / spec.n
    return np.exp(1j * spec.n * spec.k2 * np.cos(2.0 * math.pi * p))


def evolve(amps: np.ndarray, kick: np.ndarray, drift: np.ndarray) -> np.ndarray:
    """One split-operator step on a vector or on each row of a (states, N) array."""
    # FFTs along the last, contiguous axis; one expression, so the spectrum is
    # released before the ifft allocates
    return np.fft.ifft(drift * np.fft.fft(kick * amps, norm="ortho"), norm="ortho")


def apply_map(spec: MapSpec, state: TorusState) -> TorusState:
    """Advance a state by one kick period of the map."""
    if state.n != spec.n:
        raise ValueError(f"state dimension {state.n} does not match spec {spec.n}")
    return TorusState(evolve(state.amps, kick_phase(spec), drift_phase(spec)))


def check_dense(n: int) -> None:
    """Refuse, before allocating, an N x N complex array with N > MATRIX_GUARD."""
    if n > MATRIX_GUARD:
        raise GuardError(f"N={n} exceeds the dense-matrix guard N<={MATRIX_GUARD}")


def build_matrix(spec: MapSpec) -> np.ndarray:
    """Dense N x N matrix of the map; column j is the image of basis state j."""
    check_dense(spec.n)
    eye = np.eye(spec.n, dtype=complex)
    return evolve(eye, kick_phase(spec), drift_phase(spec)).T
