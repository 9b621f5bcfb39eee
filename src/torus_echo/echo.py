"""Fidelity amplitude of perturbed map pairs.

f(t) = <psi| U1^dag(t) U0(t) |psi> for pure initial states, and the maximally
mixed average <f(t)> = Tr[U1^dag(t) U0(t)] / N for the trace variant.  One
kernel runs every route: a pass evolves one unperturbed block a = U0^t start
and G perturbed blocks b_g = U1g^t start side by side, one kick per step, with
one initial state per row.  Every block and one shared scratch block are
updated in place, so a pass holds G + 2 blocks (_passes fits them to the
block budget) and its memory does not grow with the number of kicks.  After
every kick each b_g is reduced against a to one overlap per row (np.vecdot,
in fixed slices of at most 8192 amplitudes).
A pure pass has one row, whose overlap is f(t).  A trace pass yields, after
every kick, each map's weighted sum of row overlaps divided by N: a series
function collects these values, and a sweep over several perturbations of
one map reduces them to its measure as they come, so it propagates U0 once
for all of them and holds no series.

A trace is the sum of the basis-row overlaps.  A symmetry of the maps
(maps.MapSpec.symmetries) sends e_n to a multiple of e_m and makes the
overlaps of the two rows equal, or conjugate when it is antiunitary.  A
trace pass therefore starts from one row per orbit, weights it by the orbit
size, and keeps the real part when the table holds an antiunitary element:
N//2 + 1 rows per block under parity alone, N//4 + 1 under parity and C.tau,
and all N rows under no symmetry.

The blocks are propagated in the frame that maps.step_phases picks from u0:
sm maps at even N in the chirp frame y = exp(i pi t / 4) C^dag x, one forward
FFT per kick, and every other map in the position frame.  The frame is a
diagonal unitary that depends on t, family and N alone, and all maps of a
pass share family and N, so every block carries the same one and <b|a> is
the same in either frame: overlaps, weights and series need no conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .maps import MapSpec, PerturbedPair, blocks, check_dense, split_step, step_phases
from .torus import DOT_SLICE, PhasePoint, TorusState, coherent_state

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


def _row_overlaps(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """<b_r|a_r> per row, summed over fixed DOT_SLICE slices in order.

    One np.vecdot over a longer row would let BLAS split its sum by thread.
    """
    out = np.vecdot(b[..., :DOT_SLICE], a[..., :DOT_SLICE])
    for i in range(DOT_SLICE, a.shape[-1], DOT_SLICE):
        out += np.vecdot(b[..., i:i + DOT_SLICE], a[..., i:i + DOT_SLICE])
    return out


def _overlaps(u0: MapSpec, u1s, start: np.ndarray, t_max: int):
    """Propagate `start` under u0 and under each map of u1s; yield G row overlaps per kick.

    start holds one initial state per row and is not modified.  a_t = U0^t start
    and b_t = U1^t start for each of the G maps U1 of u1s, t = 1 .. t_max; after
    every kick the generator yields the overlaps <b_t|a_t> of every row, one
    array per map, in u1s order.  The blocks live in u0's frame (module
    docstring), which leaves the overlaps unchanged.
    """
    a = np.array(start, dtype=complex)
    del start  # a start built for this call is freed before the blocks are
    entry, kick0, drift0 = step_phases(u0)
    phases = [step_phases(u1)[1:] for u1 in u1s]
    if entry is not None:
        np.multiply(entry, a, out=a)
    bs = [a.copy() for _ in u1s]
    tmp = np.empty_like(a)
    for _ in range(t_max):
        split_step(a, kick0, drift0, tmp)
        for b, (kick, drift) in zip(bs, phases):
            split_step(b, kick, drift, tmp)
        yield [_row_overlaps(b, a) for b in bs]


def _passes(u1s, rows: int, n: int):
    """u1s in groups of G, one per pass; a pass holds G + 2 blocks of rows x n."""
    return (u1s[s] for s in blocks(len(u1s), rows * n, 2 * rows * n))


def _collect(values, t_max: int) -> np.ndarray:
    """f(0) = 1, then f(t) for t = 1 .. t_max from the values of a pass, one per kick."""
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    return np.fromiter(chain([1.0], values), dtype=complex, count=t_max + 1)


def fidelity_from_state(pair: PerturbedPair, state: TorusState, t_max: int) -> FidelitySeries:
    """Pure-state fidelity series for an arbitrary initial state."""
    if state.n != pair.n:
        raise ValueError(f"state dimension {state.n} does not match pair {pair.n}")
    kicks = _overlaps(pair.u0, [pair.u1], state.amps[None, :], t_max)
    return FidelitySeries(values=_collect((r[0] for (r,) in kicks), t_max), kind="pure")


def fidelity_pure(pair: PerturbedPair, center: PhasePoint, t_max: int) -> FidelitySeries:
    """Fidelity series of the coherent state centered at (q0, p0)."""
    return fidelity_from_state(pair, coherent_state(pair.n, center), t_max)


def _trace_basis(u0: MapSpec) -> tuple[np.ndarray, np.ndarray]:
    """The basis rows of a trace pass, the smallest of each symmetry orbit, and the orbit sizes.

    A symmetry of u0.symmetries sends e_n to a multiple of e_m with
    m = (sq n + aq N) mod N.
    """
    n = u0.n
    rows = np.arange(n)
    images = [(s.sq * rows + int(s.aq * n)) % n for s in u0.symmetries]
    return np.unique(np.minimum.reduce([rows, *images]), return_counts=True)


def _trace_passes(u0: MapSpec, u1s, t_max: int):
    """One pass per group of _passes, each yielding Tr[U1^dag(t) U0(t)] / N for its maps.

    A pass covers t = 1 .. t_max and evolves the rows of _trace_basis(u0),
    each weighted by its orbit size.  The sizes sum to N, so f(0) = 1 exactly.
    An antiunitary symmetry pairs every overlap in an orbit with its
    conjugate, so the trace is real and the pass yields the real part.
    """
    n = u0.n
    check_dense(n)
    rows, sizes = _trace_basis(u0)
    real = any(s.antiunitary for s in u0.symmetries)
    for group in _passes(u1s, rows.size, n):
        # no name holds the start rows, so _overlaps frees them before the blocks
        kicks = _overlaps(u0, group, (rows[:, None] == np.arange(n)).astype(complex), t_max)
        traces = (np.array([(sizes * r).sum() for r in overlaps]) / n for overlaps in kicks)
        yield (f.real for f in traces) if real else traces


def fidelity_trace(pair: PerturbedPair, t_max: int) -> FidelitySeries:
    """Basis-averaged series Tr[U1^dag(t) U0(t)] / N by evolving the basis."""
    (kicks,) = _trace_passes(pair.u0, [pair.u1], t_max)
    return FidelitySeries(values=_collect((f for (f,) in kicks), t_max), kind="trace")


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
