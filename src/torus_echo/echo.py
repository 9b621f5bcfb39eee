"""Fidelity amplitude of perturbed map pairs.

f(t) = <psi| U1^dag(t) U0(t) |psi> for pure initial states, and the maximally
mixed average <f(t)> = Tr[U1^dag(t) U0(t)] / N for the trace variant.  One
kernel runs every route: a pass is one stack of G + 1 blocks, the unperturbed
block a = U0^t start and G perturbed blocks b_g = U1g^t start, with one
initial state per row.  Each kick is one maps.split_step over the whole
stack, with the maps' phase tables stacked as (G + 1) x N, and updates it in
place with no scratch block.  The start grows into the stack in place, so a
pass holds G + 1 blocks (_passes fits them to the block budget) and its
memory does not grow with the number of kicks.  After every kick one overlap
call reduces each b_g against a to one overlap per row, a (G, rows) array
(np.vecdot, in fixed slices of at most 8192 amplitudes).
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

A FidelitySeries is its values alone.  Its file (save_series) is the config
echo of the run, the column header t,re_f,im_f,abs_f and one row per kick;
load_series skips every comment line, so it also reads a file that carries
the `# kind=` line of the older layout, and restores the values bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .maps import MapSpec, PerturbedPair, blocks, check_count, check_dense, split_step, step_phases
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
    """Complex overlaps f(0..T), frozen and finite; f(0) = 1 exactly.

    A series is its values alone; t_max is read from their length.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        # a frozen copy, so the caller's array stays writeable
        values = np.array(self.values, dtype=complex)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
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
    """Propagate `start` under u0 and each map of u1s; yield (G, rows) overlaps per kick.

    start holds one initial state per row and is not modified.  A pass is one
    stack of G + 1 blocks, a_t = U0^t start first and then b_t = U1^t start for
    each of the G maps U1 of u1s, t = 1 .. t_max.  Each kick is one split_step
    over the whole stack, with the maps' phase tables stacked as (G + 1, 1, N);
    after it the generator yields the overlaps <b_t|a_t> of every row, row g
    for u1s[g].  The blocks live in u0's frame (module docstring), which
    leaves the overlaps unchanged.
    """
    a = np.array(start, dtype=complex, order="C")
    del start  # a start built for this call is freed before the stack is
    entry, kick0, drift0 = step_phases(u0)
    phases = [(kick0, drift0), *(step_phases(u1)[1:] for u1 in u1s)]
    kicks = np.stack([kick for kick, _ in phases])[:, None]
    drifts = None if drift0 is None else np.stack([drift for _, drift in phases])[:, None]
    if entry is not None:
        np.multiply(entry, a, out=a)
    # the start grows into the stack in place, so the two are never held side
    # by side; a was made above and no other name or view holds it
    a.resize((len(phases), *a.shape), refcheck=False)
    a[1:] = a[0]
    for _ in range(t_max):
        split_step(a, kicks, drifts)
        yield _row_overlaps(a[1:], a[0])


def _passes(u1s, rows: int, n: int):
    """u1s in groups of G, one per pass; a pass is one stack of G + 1 blocks of rows x n.

    U0's block is reserved and G perturbed blocks, at least 1, fill the rest of
    the budget; this one rule bounds every pass, of trace rows and pure scans.
    Each pass steps its whole stack by one split_step per kick (_overlaps).
    """
    return (u1s[s] for s in blocks(len(u1s), rows * n, rows * n))


def _collect(values, t_max: int) -> np.ndarray:
    """f(0) = 1, then f(t) for t = 1 .. t_max from the values of a pass, one per kick."""
    return np.fromiter(chain([1.0], values), dtype=complex, count=t_max + 1)


def fidelity_from_state(pair: PerturbedPair, state: TorusState, t_max: int) -> FidelitySeries:
    """Pure-state fidelity series for an arbitrary initial state."""
    check_count("t_max", t_max)
    if state.n != pair.n:
        raise ValueError(f"state dimension {state.n} does not match pair {pair.n}")
    kicks = _overlaps(pair.u0, [pair.u1], state.amps[None, :], t_max)
    return FidelitySeries(_collect((r[0] for (r,) in kicks), t_max))


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
        # no name holds the start rows, so _overlaps frees them before the stack
        kicks = _overlaps(u0, group, (rows[:, None] == np.arange(n)).astype(complex), t_max)
        traces = ((sizes * overlaps).sum(axis=1) / n for overlaps in kicks)
        yield (f.real for f in traces) if real else traces


def fidelity_trace(pair: PerturbedPair, t_max: int) -> FidelitySeries:
    """Basis-averaged series Tr[U1^dag(t) U0(t)] / N by evolving the basis."""
    check_count("t_max", t_max)
    (kicks,) = _trace_passes(pair.u0, [pair.u1], t_max)
    return FidelitySeries(_collect((f for (f,) in kicks), t_max))


def save_series(series: FidelitySeries, path, header: str | None = None) -> None:
    """The optional `# header` line, then t,re_f,im_f,abs_f rows at full double precision."""
    lines = [f"# {header}"] if header else []
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
    """The series of a save_series file, whose rows count t = 0, 1, 2, ... in order.

    Comment, blank and column-header lines are skipped; every refusal names the file.
    """
    values = []
    try:
        with open(path) as fh:
            for line in map(str.strip, fh):
                if not line or line.startswith(("#", "t,")):
                    continue
                fields = line.split(",")
                if len(fields) != 4 or fields[0] != str(len(values)):
                    raise ValueError(f"expected the row {len(values)},re_f,im_f,abs_f,"
                                     f" got {line!r}")
                values.append(complex(float(fields[1]), float(fields[2])))
        return FidelitySeries(values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
