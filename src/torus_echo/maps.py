"""Quantized kicked maps on the torus.

Two one-parameter families, applied by split-operator steps:

  sm : U = exp(-i p^2 / (2 hbar)) . exp(-i (N K / 2 pi) cos(2 pi q))
  hm : U = exp(+i N K2 cos(2 pi p)) . exp(+i N K1 cos(2 pi q))

On the momentum grid p_k = k/N the sm drift phase is pi k^2 / N.  It
satisfies D(k + N) = (-1)^N D(k), so it is single valued under k -> k + N
only at even N.  Phases are computed from k^2 mod 2N in integers, so their
float argument stays below 2 pi at every N.

At even N the quadratic Gauss sum turns that periodic drift, in position
space, into a chirp sandwich:

  F^dag D F = exp(-i pi/4) . C F C,   C = diag(exp(i pi m^2 / N)),

with F the unitary DFT.  Consecutive steps then share a chirp: in the frame
y_t = exp(i pi t / 4) C^dag x_t one sm step is y -> F (C^2 V) y, a single
forward FFT.  step_phases picks this frame for sm at even N; at odd N the
factorisation fails, and sm keeps the drift and its inverse FFT, as hm does.

MapSpec.symmetries is the table of the affine torus symmetries that both
maps of every pair share: the non-identity elements of the group they form,
each an affine torus map (q, p) -> (sq q + aq, sp p + ap) mod 1 with an
antiunitary flag.  Every reduction by symmetry, of trace rows and of scan
centers alike, reads it.  hm at K2 = K has one more symmetry, of U0 alone,
which the table leaves out: the DFT F swaps the two kicks, so U0 = D V
commutes with S = V^dag F, a quarter turn (q, p) -> (p, -q) followed by a
kick.  S is no affine torus map, and the perturbation of K2 breaks it.

Parity P sends the grid index n to -n mod N, in position and in momentum
alike.  The kick phases and the hm drift are even functions of their index,
so P commutes with every hm map, and with an sm map exactly when N is even.

At even N the hm maps have a second, antiunitary symmetry.  The half-period
shift tau by N/2 in position and in momentum flips the sign of cos(2 pi q)
and of cos(2 pi p); complex conjugation C in the position basis keeps both
cosines and flips i.  So C.tau commutes with every hm map at even N, for any
K1 and K2.  It sends the point (q, p) to (q + 1/2, -p - 1/2) mod 1, and its
product with P sends it to (-q - 1/2, p + 1/2).  The sm drift pi k^2 / N is
not even under the shift, so sm has no such symmetry.

None of these depends on a kick strength, so both maps of a perturbed pair,
which share family and N, have the same table.

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
import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple

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

# Element budget of a pass (G + 1 blocks, echo._passes) or a block of orbits.
BLOCK_ELEMENTS = 1 << 21


class GuardError(RuntimeError):
    """A resource guard was exceeded; the message names the guard."""


def blocks(count: int, per_item: int, reserved: int = 0, most: int | None = None):
    """Consecutive slices of range(count): as many items of per_item elements
    as fit BLOCK_ELEMENTS - reserved, at most `most` when given, and at least one."""
    size = max(1, (BLOCK_ELEMENTS - reserved) // per_item)
    if most is not None:
        size = min(size, most)
    return (slice(i, min(i + size, count)) for i in range(0, count, size))


def check_count(label: str, value, minimum: int = 1) -> None:
    """The one rule for a count: an integer (numpy's too), not a bool, and >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{label} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{label} must be >= {minimum}, got {value}")


def check_map(family: str, k: float, k2: float | None = None, delta_k: float = 0.0,
              n: int | None = None) -> float | None:
    """The one rule for a map's constants: a known family, K2 for hm only (the
    sm drift is fixed), and K, K2 and the perturbed strength (sm K + delta_k,
    hm K2 + delta_k) finite and >= 0.  A quantum map (n = N) scales each by N,
    and an inf phase amplitude would give nan, so N times each is finite too.

    Returns the K2 the map uses: None for sm; for hm the given K2, or K when none is given.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown map family {family!r}")
    if family == "sm" and k2 is not None:
        raise ValueError("K2 applies to the hm family only")
    k2 = k if k2 is None else k2
    perturbed = (k if family == "sm" else k2) + delta_k
    for label, val in (("K", k), ("K2", k2), ("perturbed strength", perturbed)):
        if not (math.isfinite(val if n is None else n * val) and val >= 0.0):
            scaled = "," if n is None else f", with N*{label} finite;"
            raise ValueError(f"{label} must be finite and >= 0{scaled} got {val}"
                             + ("" if n is None else f" at N={n}"))
    return None if family == "sm" else k2


class Symmetry(NamedTuple):
    """The torus map (q, p) -> (sq q + aq, sp p + ap) mod 1; antiunitary ones conjugate."""

    sq: int
    aq: float
    sp: int
    ap: float
    antiunitary: bool = False


PARITY = Symmetry(-1, 0.0, -1, 0.0)
C_TAU = Symmetry(1, 0.5, -1, -0.5, True)


@dataclass(frozen=True)
class MapSpec:
    """One quantized map: family, dimension and kick strengths.

    For the hm family ``k`` multiplies the position kick and ``k2`` the
    momentum kick; ``k2`` is the K2 that check_map returns, so it defaults to
    ``k`` for hm, and an sm spec, whose drift is fixed, refuses one.
    """

    family: str
    n: int
    k: float
    k2: float | None = None

    def __post_init__(self) -> None:
        check_count("dimension", self.n, minimum=2)
        object.__setattr__(self, "k2", check_map(self.family, self.k, self.k2, n=self.n))

    @property
    def symmetries(self) -> tuple[Symmetry, ...]:
        """The non-identity elements of the map's symmetry group (module docstring).

        Parity for every hm map and for sm at even N, where the sm drift
        exp(-i pi k^2/N) is single valued; for hm at even N also C.tau and
        its product with parity; nothing for sm at odd N.
        """
        if self.family == "sm":
            return (PARITY,) if self.n % 2 == 0 else ()
        if self.n % 2:
            return (PARITY,)
        return PARITY, C_TAU, Symmetry(-1, -0.5, 1, 0.5, True)

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

    @classmethod
    def from_base(cls, u0: MapSpec, delta_k: float) -> "PerturbedPair":
        if u0.family == "sm":
            u1 = replace(u0, k=u0.k + delta_k)
        else:
            u1 = replace(u0, k2=u0.k2 + delta_k)
        return cls(u0=u0, u1=u1)

    @classmethod
    def from_dkh(cls, u0: MapSpec, dkh: float) -> "PerturbedPair":
        """Build the pair from the scaled perturbation strength dkh."""
        return cls.from_base(u0, dkh * u0.dkh_unit)

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


def _turns(r: np.ndarray, d: int) -> np.ndarray:
    """exp(2 pi i r / d) for integers |r| < d, whose argument stays within 2 pi."""
    return np.exp(1j * (2.0 * math.pi / d) * r)


def drift_phase(spec: MapSpec) -> np.ndarray:
    """Diagonal momentum factor, indexed by FFT frequency k."""
    k = np.arange(spec.n, dtype=np.int64)
    if spec.family == "sm":
        return _turns(-(k * k % (2 * spec.n)), 2 * spec.n)
    p = k / spec.n
    return np.exp(1j * spec.n * spec.k2 * np.cos(2.0 * math.pi * p))


def step_phases(spec: MapSpec) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
    """(entry, kick, drift) of the frame in which split_step propagates the map.

    sm at even N runs in the chirp frame: a start is multiplied once by the
    entry phase C^dag, and a step is fft(C^2 V x), with no drift.  Every other
    map runs in the position frame: no entry phase, kick V and drift D.  The
    frame depends on family and N alone, which both maps of a pair share.
    """
    if spec.family == "sm" and spec.n % 2 == 0:
        m2 = np.arange(spec.n, dtype=np.int64) ** 2
        chirp_sq = _turns(m2 % spec.n, spec.n)
        return _turns(-(m2 % (2 * spec.n)), 2 * spec.n), chirp_sq * kick_phase(spec), None
    return None, kick_phase(spec), drift_phase(spec)


def split_step(x: np.ndarray, kick: np.ndarray, drift: np.ndarray | None) -> np.ndarray:
    """One split-operator step of x (a vector, rows of states or a stack of blocks), in place.

    The step is ifft(drift * fft(kick * x)), or fft(kick * x) alone when
    drift is None: the one-FFT step of the sm chirp frame (step_phases).  The
    phase tables broadcast against x, so a stack of blocks (G + 1, rows, N)
    steps under tables (G + 1, 1, N), one map per block.  The position-frame
    pair is scaled as numpy's default, an unscaled forward FFT and a 1/N
    inverse, one scaling pass per step where 1/sqrt(N) on each side takes two;
    the two scalings give the same bits when sqrt(N) is a power of two
    (N = 4, 16, 64, 256, ...) and agree at rounding level elsewhere.  The
    chirp frame's single FFT is unitary (norm="ortho").

    Every operation writes into x, which needs no scratch array: with input
    and output the same array, numpy transforms each row where it lies.  The
    FFTs run along the last, contiguous axis.  The operand order is part of
    the result: numpy's SIMD complex multiply is not bitwise commutative, and
    this order gives exactly the bits of ifft(drift * fft(kick * x)), where
    ``x *= kick`` or ``x *= drift`` would not.
    """
    np.multiply(kick, x, out=x)
    if drift is None:
        return np.fft.fft(x, norm="ortho", out=x)
    np.fft.fft(x, out=x)
    np.multiply(drift, x, out=x)
    return np.fft.ifft(x, out=x)


def apply_map(spec: MapSpec, state: TorusState) -> TorusState:
    """Advance a state by one kick period of the map."""
    if state.n != spec.n:
        raise ValueError(f"state dimension {state.n} does not match spec {spec.n}")
    amps = np.array(state.amps)
    return TorusState(split_step(amps, kick_phase(spec), drift_phase(spec)))


def check_dense(n: int) -> None:
    """Refuse, before allocating, an N x N complex array with N > MATRIX_GUARD."""
    if n > MATRIX_GUARD:
        raise GuardError(f"N={n} exceeds the dense-matrix guard N<={MATRIX_GUARD}")


def build_matrix(spec: MapSpec) -> np.ndarray:
    """Dense N x N matrix of the map; column j is the image of basis state j."""
    check_dense(spec.n)
    eye = np.eye(spec.n, dtype=complex)
    return split_step(eye, kick_phase(spec), drift_phase(spec)).T
