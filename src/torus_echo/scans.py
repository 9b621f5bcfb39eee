"""Sweeps and phase-space scans of the non-Markovianity measure.

The unit of work of a sweep is one K row: its start block (the basis rows of
the trace measure, one per symmetry orbit, or the coherent grid for the
pure average) goes through U0 once and through the perturbed maps of all its
dkh values, G of them per pass.  One splitter, maps.blocks, sizes both G
(echo._passes) and the blocks of a pure scan.  Rows are pure functions of
their spec, so they can be farmed out to a process pool of at most one
worker per row; results are placed by row index and the output is
byte-identical however many workers run.

Each symmetry of the pair (maps.MapSpec.symmetries) sends the coherent state
at (q, p) to the one at its image point, up to a global phase and the
three-image truncation of torus.coherent_state, and leaves |f(t)| unchanged:
a unitary one keeps f(t), an antiunitary one conjugates it.  A pure scan
therefore evolves one center per orbit of the table (65 of a 16 x 16 grid's
256 states for hm at even N, 130 with parity alone), and gives an image, or
a repeat of a center already seen, its representative's value; the outputs
keep the shape and order of the centers given.  The truncation moves
amplitudes by about exp(-pi N), which at N = 7 already moves M by 1e-9
within 1000 kicks (3e-11 at N = 8), so below N = _PAIRED_MIN_N = 8, and for
maps with an empty table, every center is evolved.  The half shift of hm at
even N moves the truncation by the same order, since the dropped images
stay at distance >= 1 from the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product

import numpy as np

from .echo import _overlaps, _passes, _trace_passes
from .maps import FAMILIES, MapSpec, PerturbedPair, blocks, check_dense
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

# Two centers are one point of the torus when both coordinates agree within
# _SAME_POINT mod 1, far below the 1/N width of any coherent state.  Cells of
# width 1/_CELLS >= _SAME_POINT index them; _CELLS**2 fits an int64 key.
_SAME_POINT = 1e-12
_CELLS = 1 << 31
# Smallest N whose scans are paired; see the module docstring.
_PAIRED_MIN_N = 8


@dataclass(frozen=True)
class SweepSpec:
    """A rectangle of (K, delta_k/hbar) cells for one map family.

    kind selects the trace measure ("trace") or the coherent-grid average
    ("pure-average"); s is the grid side used by the average.
    """

    family: str
    k_values: tuple[float, ...]
    dkh_values: tuple[float, ...]
    n: int
    t_max: int
    kind: str = "trace"
    s: int = 16

    def __post_init__(self) -> None:
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")
        object.__setattr__(self, "k_values", tuple(float(k) for k in self.k_values))
        object.__setattr__(self, "dkh_values", tuple(float(d) for d in self.dkh_values))
        if not self.k_values or not self.dkh_values:
            raise ValueError("sweep grids must be non-empty")
        if self.kind not in _ROWS:
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if self.kind == "pure-average" and self.s < 1:
            raise ValueError(f"grid side must be >= 1, got {self.s}")
        # every row's maps, so a bad cell is refused before any row runs
        for k in self.k_values:
            _maps(self.family, self.n, k, self.dkh_values)
        if self.kind == "trace":
            check_dense(self.n)

    def cells(self) -> list[tuple[float, float]]:
        return [(k, d) for k in self.k_values for d in self.dkh_values]


@dataclass(frozen=True)
class PhaseGrid:
    """Measure values over an s x s grid of coherent-state centers.

    values[i, j] belongs to the center (q, p) = (i/s, j/s).
    """

    family: str
    k: float
    dkh: float
    n: int
    t_max: int
    s: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.s, self.s):
            raise ValueError(f"grid shape {values.shape} does not match s={self.s}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _maps(family: str, n: int, k: float, dkh_values) -> tuple[MapSpec, list[MapSpec]]:
    """U0 at kick strength k and the perturbed map of each dkh value."""
    u0 = MapSpec(family=family, n=n, k=k)
    return u0, [PerturbedPair.from_dkh(u0, dkh).u1 for dkh in dkh_values]


def _earliest_images(qp: np.ndarray, images: list[np.ndarray]) -> np.ndarray:
    """Per center of qp, the earliest center equal to it or to one of its images, mod 1.

    images[g][i] is the image of center i under the g-th symmetry; the
    symmetries and the identity must form a group, so that "equal to an image
    of" is an equivalence.  Two points are equal when both coordinates agree
    within _SAME_POINT on the circle.  Such points lie in the same or
    adjacent cells of width 1/_CELLS, so each center probes its own cell and
    the 8 around it among the sorted cells of every center and image.
    """
    m = len(qp)
    pts = np.concatenate([qp, *images])  # the centers, then each set of images
    owner = np.tile(np.arange(m), 1 + len(images))
    cells = (pts * _CELLS).astype(np.int64) % _CELLS
    keys = cells[:, 0] * _CELLS + cells[:, 1]
    order = np.lexsort((owner, keys))  # by cell, then by owner
    keys = keys[order]
    first = np.arange(m)
    for dq, dp in product((-1, 0, 1), repeat=2):
        probe = (cells[:m, 0] + dq) % _CELLS * _CELLS + (cells[:m, 1] + dp) % _CELLS
        lo, hi = np.searchsorted(keys, probe), np.searchsorted(keys, probe, "right")
        live = np.flatnonzero(lo < hi)
        # a cell's first point within reach has its smallest owner
        while live.size:
            j = order[lo[live]]
            d = np.abs(pts[j] - qp[live])
            near = (np.minimum(d, 1.0 - d) <= _SAME_POINT).all(axis=1)
            first[live[near]] = np.minimum(first[live[near]], owner[j[near]])
            lo[live] += 1
            live = live[~near & (lo[live] < hi[live])]
    return first


def _orbit_representatives(u0: MapSpec, centers):
    """The (q, p) of the centers to evolve, an (m, 2) array, and the index back to centers.

    When u0 has symmetries and N >= _PAIRED_MIN_N, only the earliest center
    of each set of repeats and symmetry images mod 1 is evolved, and
    index[i] is the position of center i's representative.  Otherwise every
    center is evolved in its order, and the index is slice(None).
    """
    qp = np.fromiter(((c.q, c.p) for c in centers), dtype=np.dtype((float, 2)))
    if not (u0.symmetries and u0.n >= _PAIRED_MIN_N):
        return qp, slice(None)
    images = [(qp * (s.sq, s.sp) + (s.aq, s.ap)) % 1.0 for s in u0.symmetries]
    reps, index = np.unique(_earliest_images(qp, images), return_inverse=True)
    return qp[reps], index


def _measure_columns(u0: MapSpec, u1s: list, centers, t_max: int) -> np.ndarray:
    """Pure-state measure per perturbed map and coherent center, summed kick by kick.

    Row g of the result holds the measure at every center of the pair
    (u0, u1s[g]), in the order of centers.  Only the representatives of
    _orbit_representatives are evolved, and each center takes its
    representative's value.  Representatives run in blocks of maps.blocks.
    Each pass builds its own start states, one per row, so they too stay
    within the budget; no name here holds them, so they are freed after the
    first kick.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    n = u0.n
    reps, index = _orbit_representatives(u0, centers)
    values = []
    for block in blocks(len(reps), n):
        chunk = [PhasePoint(q, p) for q, p in reps[block]]
        passes = (
            _overlaps(u0, group, np.array([coherent_state(n, c).amps for c in chunk]), t_max)
            for group in _passes(u1s, len(chunk), n)
        )
        values.append(np.concatenate(
            [measure_rows(chain([1.0], map(np.abs, rows))) for rows in passes]))
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
    if s < 1:
        raise ValueError(f"grid side must be >= 1, got {s}")
    (flat,) = _measure_columns(*_maps(family, n, k, [dkh]), _centers(s), t_max)
    return PhaseGrid(
        family=family, k=k, dkh=dkh, n=n, t_max=t_max, s=s,
        values=flat.reshape(s, s),
    )


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
    passes = _trace_passes(*_maps(spec.family, spec.n, k, spec.dkh_values), spec.t_max)
    return [float(value) for kicks in passes
            for value in measure_rows(chain([1.0], map(np.abs, kicks)))]


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
    K and dkh of its cell as given and spec's n, t_max and kind.
    """
    rows = [(spec, k) for k in spec.k_values]
    measured = chain.from_iterable(
        _run_rows(_ROWS[spec.kind], rows, workers, progress, len(spec.dkh_values)))
    return [
        NmResult(k=k, dkh=d, n=spec.n, t_max=spec.t_max, kind=spec.kind, value=value)
        for (k, d), value in zip(spec.cells(), measured)
    ]


def save_grid(grid: PhaseGrid, path, header: str | None = None) -> None:
    """CSV matrix, one row per momentum index, plus the metadata line."""
    lines = []
    if header:
        lines.append(f"# {header}")
    lines.append(
        f"# {grid.family},{grid.k!r},{grid.dkh!r},{grid.n},{grid.t_max},{grid.s}"
    )
    for j in range(grid.s):
        lines.append(",".join(repr(float(v)) for v in grid.values[:, j]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_grid(path) -> PhaseGrid:
    meta = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line.lstrip("# ").split(",")
                if len(parts) == 6 and parts[0] in FAMILIES:
                    meta = parts
                continue
            rows.append([float(v) for v in line.split(",")])
    if meta is None:
        raise ValueError(f"no metadata line found in {path}")
    family, k, dkh, n, t_max, s = meta
    values = np.array(rows).T
    return PhaseGrid(
        family=family, k=float(k), dkh=float(dkh), n=int(n),
        t_max=int(t_max), s=int(s), values=values,
    )


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
