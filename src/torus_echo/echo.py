"""Fidelity amplitude of perturbed map pairs.

f(t) = <psi| U1^dag(t) U0(t) |psi> for pure initial states, and the maximally
mixed average <f(t)> = Tr[U1^dag(t) U0(t)] / N for the trace variant.  Both
run the two propagations side by side, one kick per step, with one initial
state per row, and reduce the overlaps after every kick to one value, so
memory does not grow with the number of kicks; nothing is recomputed when
measures are extracted later from a stored series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .maps import PerturbedPair, check_dense, drift_phase, evolve, kick_phase
from .torus import PhasePoint, TorusState, coherent_state

__all__ = [
    "FidelitySeries",
    "fidelity_from_state",
    "fidelity_pure",
    "fidelity_trace",
    "load_series",
    "save_series",
]


@dataclass(frozen=True)
class FidelitySeries:
    """Complex overlaps f(0..T); f(0) = 1 exactly.

    kind is "pure" (coherent or explicit initial state) or "trace".
    """

    values: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.kind not in ("pure", "trace"):
            raise ValueError(f"unknown series kind {self.kind!r}")
        if not (values.size and np.isfinite(values).all()):
            raise ValueError("fidelity values must be finite and non-empty")

    @property
    def t_max(self) -> int:
        return self.values.shape[0] - 1


def _overlaps(pair: PerturbedPair, start: np.ndarray, t_max: int, reduce):
    """Run both propagations from `start` and yield reduce(b_t, a_t) per kick.

    start holds one initial state per row; a_t = U0^t start and b_t = U1^t start
    row by row, t = 1 .. t_max.  Only this generator holds a_t and b_t, so
    each is freed as soon as its successor exists.
    """
    kick0, drift0 = kick_phase(pair.u0), drift_phase(pair.u0)
    kick1, drift1 = kick_phase(pair.u1), drift_phase(pair.u1)
    a = b = np.asarray(start, dtype=complex)
    del start  # an identity built for this call is freed after the first kick
    for _ in range(t_max):
        a = evolve(a, kick0, drift0)
        b = evolve(b, kick1, drift1)
        yield reduce(b, a)


def _row_overlaps(bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """<bra_i|ket_i> for every row i."""
    return np.einsum("ij,ij->i", bra.conj(), ket)


def fidelity_from_state(pair: PerturbedPair, state: TorusState, t_max: int) -> FidelitySeries:
    """Pure-state fidelity series for an arbitrary initial state."""
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    if state.n != pair.n:
        raise ValueError(f"state dimension {state.n} does not match pair {pair.n}")
    rows = _overlaps(pair, state.amps[None, :], t_max, _row_overlaps)
    values = np.fromiter(chain([1.0], (row[0] for row in rows)), complex, t_max + 1)
    return FidelitySeries(values=values, kind="pure")


def fidelity_pure(pair: PerturbedPair, center: PhasePoint, t_max: int) -> FidelitySeries:
    """Fidelity series of the coherent state centered at (q0, p0)."""
    return fidelity_from_state(pair, coherent_state(pair.n, center), t_max)


def fidelity_trace(pair: PerturbedPair, t_max: int) -> FidelitySeries:
    """Basis-averaged series Tr[U1^dag(t) U0(t)] / N by evolving the basis."""
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    n = pair.n
    check_dense(n)
    traces = _overlaps(pair, np.eye(n, dtype=complex), t_max, np.vdot)
    values = np.fromiter(chain([n], traces), complex, t_max + 1) / n
    return FidelitySeries(values=values, kind="trace")


def save_series(series: FidelitySeries, path, header: str | None = None) -> None:
    """Write t,re_f,im_f,abs_f rows; floats keep full double precision."""
    lines = []
    if header:
        lines.append(f"# {header}")
    lines.append(f"# kind={series.kind}")
    lines.append("t,re_f,im_f,abs_f")
    for t, v in enumerate(series.values):
        v = complex(v)
        try:
            modulus = abs(v)
        except OverflowError:  # both parts near the top of the double range
            modulus = math.inf
        lines.append(f"{t},{v.real!r},{v.imag!r},{modulus!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_series(path) -> FidelitySeries:
    """Read a series file written by save_series."""
    values = []
    kind = "trace"
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# kind="):
                kind = line.removeprefix("# kind=")
                continue
            if not line or line.startswith("#") or line.startswith("t,"):
                continue
            _, re_f, im_f, _ = line.split(",")
            values.append(complex(float(re_f), float(im_f)))
    return FidelitySeries(values=np.array(values, dtype=complex), kind=kind)
