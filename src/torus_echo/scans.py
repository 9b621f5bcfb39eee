"""Sweeps and phase-space scans of the non-Markovianity measure.

The unit of work of a sweep is one K row: its start block (the basis rows of
the trace measure, one per symmetry orbit, or the coherent grid for the pure
average) goes through the perturbed maps of its dkh values, G per pass, and
through U0 once per pass.  One G + 1 rule (echo._passes) bounds every pass,
and a pure scan's blocks of representatives leave room for U0 and all maps.
One reducer, _measure, turns the passes of both routes into measures.  Rows
are pure functions of their spec, so a pool of at most one worker per row
may run them; placed by row index, the output is byte-identical either way.

Each symmetry of the pair (maps.MapSpec.symmetries) sends the coherent state
at (q, p) to the one at its image point, up to a global phase and rounding
at every N, and leaves |f(t)| unchanged: a unitary one keeps f(t), an
antiunitary one conjugates it.  A pure scan therefore evolves one center per
orbit of the table (65 of a 16 x 16 grid's 256 states for hm at even N, 130
with parity alone).  A center whose two coordinates round, mod 1, to the
same multiple of 2**-44 as an earlier center or one of its images takes that
representative's value, so a repeated point is evolved once in every scan;
the outputs keep the shape and order of the centers given.

A PhaseGrid is its s x s values alone.  Its file (save_grid) is the config
echo of the run, then one CSV row per momentum index; load_grid skips every
comment line and restores the values bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .echo import _overlaps, _passes, _trace_passes
from .maps import MapSpec, PerturbedPair, blocks, check_count, check_dense
from .measures import NmResult, measure_rows
from .torus import PhasePoint, coherent_state

__all__ = [
    "PhaseGrid",
    "SweepSpec",
    "line_scan",
    "load_grid",
    "save_grid",
    "save_grid_pgm",
    "scan_phase_space",
    "sweep",
]

# Two centers are one point of the torus when both coordinates round to the
# same multiple of 1/_CELLS mod 1, far below the 1/N width of any coherent
# state; a near pair on either side of a half step is two points, and both
# are evolved.  Each coordinate's cell is exact in a float below 2**53, and
# numpy sorts the complex key (q cell, p cell) lexicographically.
_CELLS = 1 << 44


@dataclass(frozen=True)
class SweepSpec:
    """A rectangle of (K, delta_k/hbar) cells for one map family.

    kind selects the trace measure ("trace") or the coherent-grid average
    ("pure-average"); s is the grid side used by the average, and a count
    for either kind.
    """

    family: str
    k_values: tuple[float, ...]
    dkh_values: tuple[float, ...]
    n: int
    t_max: int
    kind: str = "trace"
    s: int = 16

    def __post_init__(self) -> None:
        check_count("t_max", self.t_max)
        # every kind, though only the pure average reads s
        check_count("grid side", self.s)
        object.__setattr__(self, "k_values", tuple(float(k) for k in self.k_values))
        object.__setattr__(self, "dkh_values", tuple(float(d) for d in self.dkh_values))
        if not self.k_values or not self.dkh_values:
            raise ValueError("sweep grids must be non-empty")
        if self.kind not in _ROWS:
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        # every row's maps, so a bad cell is refused before any row runs
        for k in self.k_values:
            _maps(self.family, self.n, k, self.dkh_values)
        if self.kind == "trace":
            check_dense(self.n)

    def cells(self) -> list[tuple[float, float]]:
        return [(k, d) for k in self.k_values for d in self.dkh_values]


@dataclass(frozen=True)
class PhaseGrid:
    """Finite values over an s x s grid of phase-space points; s is their side.

    values[i, j] belongs to the point (q, p) = (i/s, j/s).  A grid holds any
    such image, the pure measure of scan_phase_space among them; the config
    echo above its rows in a file says what it is.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        # a frozen copy, so the caller's array stays writeable
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1] or not values.size:
            raise ValueError(f"grid values must be a non-empty s x s square, got shape "
                             f"{values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("grid values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def s(self) -> int:
        return self.values.shape[0]


def _maps(family: str, n: int, k: float, dkh_values) -> tuple[MapSpec, list[MapSpec]]:
    """U0 at kick strength k and the perturbed map of each dkh value."""
    u0 = MapSpec(family=family, n=n, k=k)
    return u0, [PerturbedPair.from_dkh(u0, dkh).u1 for dkh in dkh_values]


def _orbit_representatives(u0: MapSpec, centers):
    """The (q, p) of the centers to evolve, an (m, 2) array, and the index back to centers.

    Every center and each of its images under the table rounds to a lattice
    point (q, p) * _CELLS mod _CELLS, owned by the earliest center landing
    there.  Only owners are evolved, in the order of centers: index[i] is the
    position of the owner of center i's own point, so repeated points share
    one evolution in every scan.
    """
    qp = np.fromiter(((c.q, c.p) for c in centers), dtype=np.dtype((float, 2)))
    # center-major, so a point's first occurrence is its earliest center's
    pts = np.stack([qp, *(qp * (s.sq, s.sp) + (s.aq, s.ap) for s in u0.symmetries)], axis=1)
    cells = np.rint(pts * _CELLS) % _CELLS
    _, first, point = np.unique((cells[..., 0] + 1j * cells[..., 1]).ravel(),
                                return_index=True, return_inverse=True)
    reps, index = np.unique(first[point[::pts.shape[1]]] // pts.shape[1], return_inverse=True)
    return qp[reps], index


def _measure(passes) -> np.ndarray:
    """The measure of each map of each pass (and each row), summed kick by kick, in pass order.

    f(0) = 1 opens every series; each kick is then a block of one row.
    """
    return np.concatenate([measure_rows(chain([np.ones(1)], (np.abs(f)[None] for f in kicks)))
                           for kicks in passes])


def _measure_columns(u0: MapSpec, u1s: list, centers, t_max: int) -> np.ndarray:
    """Pure-state measure per perturbed map and coherent center, summed kick by kick.

    Row g of the result holds the measure at every center of the pair
    (u0, u1s[g]), in the order of centers.  Only the representatives of
    _orbit_representatives are evolved, and each center takes its
    representative's value.  A block of representatives leaves room for U0
    and every map (the G + 1 rule of echo._passes), so it is one pass unless
    one row of each overflows the budget.  Each pass builds its own start
    states; no name here holds them, so they are freed after the first kick.
    """
    check_count("t_max", t_max)
    n = u0.n
    reps, index = _orbit_representatives(u0, centers)
    values = []
    for block in blocks(len(reps), (len(u1s) + 1) * n):
        chunk = [PhasePoint(q, p) for q, p in reps[block]]
        values.append(_measure(
            _overlaps(u0, group, np.array([coherent_state(n, c).amps for c in chunk]), t_max)
            for group in _passes(u1s, len(chunk), n)))
    return np.concatenate(values, axis=1)[:, index]


def _centers(s: int):
    return (PhasePoint(i / s, j / s) for i in range(s) for j in range(s))


def scan_phase_space(
    family: str,
    k: float,
    dkh: float,
    n: int,
    t_max: int,
    s: int,
) -> PhaseGrid:
    """Pure-state measure for coherent states on the s x s center grid."""
    check_count("grid side", s)
    (flat,) = _measure_columns(*_maps(family, n, k, [dkh]), _centers(s), t_max)
    return PhaseGrid(flat.reshape(s, s))


def line_scan(
    family: str,
    k: float,
    dkh: float,
    n: int,
    t_max: int,
    points: list[PhasePoint],
) -> np.ndarray:
    """Pure-state measure at each coherent center of points, in their order."""
    if not points:
        raise ValueError("line scan needs at least one point")
    (values,) = _measure_columns(*_maps(family, n, k, [dkh]), points, t_max)
    return values


def _trace_row(row) -> list[float]:
    spec, k = row
    u0, u1s = _maps(spec.family, spec.n, k, spec.dkh_values)
    return _measure(_trace_passes(u0, u1s, spec.t_max)).tolist()


def _average_row(row) -> list[float]:
    spec, k = row
    u0, u1s = _maps(spec.family, spec.n, k, spec.dkh_values)
    s = spec.s
    values = _measure_columns(u0, u1s, _centers(s), spec.t_max)
    # the mean of each grid as scan_phase_space shapes it, to the last bit
    return [float(flat.reshape(s, s).mean()) for flat in values]


_ROWS = {"trace": _trace_row, "pure-average": _average_row}


def _run_rows(fn, rows, workers, progress, per_row):
    """fn(row) for every row, placed in row order; progress counts per_row cells a row."""
    workers = min(workers, len(rows))  # a worker beyond the row count would idle
    results = [None] * len(rows)
    total = len(rows) * per_row
    done = 0

    def finished(i, measured):
        nonlocal done
        results[i] = measured
        for _ in range(per_row):
            if progress:
                progress(done, total)
            done += 1

    if workers <= 1:
        for i, row in enumerate(rows):
            finished(i, fn(row))
        return results
    # the pool's import is paid only by runs that use it
    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(fn, row): i for i, row in enumerate(rows)}
        for fut in as_completed(futures):
            finished(futures[fut], fut.result())
    return results


def sweep(spec: SweepSpec, workers: int = 1, progress=None) -> list[NmResult]:
    """Measure sweep over the (K, dkh) rectangle, row-major in K.

    spec.kind picks the measure of every cell.  A pure-average cell averages
    the s x s coherent grid of scan_phase_space, so a sweep entry agrees with
    the mean of the corresponding stored grid to the last bit.  Each K row is
    one unit of work, which propagates U0 once per pass of up to G of its dkh
    values and sums each cell's rises kick by kick as the pass runs, so a
    row holds no series; a trace cell equals measure_value of its
    fidelity_trace series to the last bit.  sweep labels each value with the
    K and dkh of its cell as given; n, t_max and kind stay with the spec.
    """
    rows = [(spec, k) for k in spec.k_values]
    measured = chain.from_iterable(
        _run_rows(_ROWS[spec.kind], rows, workers, progress, len(spec.dkh_values)))
    return [NmResult(k, d, value) for (k, d), value in zip(spec.cells(), measured)]


def save_grid(grid: PhaseGrid, path, header: str | None = None) -> None:
    """CSV matrix under the optional `# header` line, one row per momentum index."""
    lines = [f"# {header}"] if header else []
    lines += (",".join(map(repr, row)) for row in grid.values.T.tolist())
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_grid(path) -> PhaseGrid:
    """The grid of a save_grid file, skipping comment and blank lines; a refusal names the file."""
    try:
        with open(path) as fh:
            rows = [[float(v) for v in line.split(",")]
                    for line in map(str.strip, fh) if line and not line.startswith("#")]
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("grid rows do not form an s x s square")
        return PhaseGrid(np.array(rows).T)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_grid_pgm(grid: PhaseGrid, path) -> None:
    """8-bit PGM rendering, linear min-max scale, momentum increasing upward."""
    v = grid.values
    span = v.max() - v.min()
    if span <= 0.0:
        pixels = np.zeros_like(v, dtype=np.uint8)
    else:
        pixels = np.round(255.0 * (v - v.min()) / span).astype(np.uint8)
    # rows top to bottom scan p from high to low, like a phase-space plot
    raster = pixels.T[::-1]
    with open(path, "wb") as fh:
        fh.write(f"P5 {grid.s} {grid.s} 255\n".encode())
        fh.write(raster.tobytes())
