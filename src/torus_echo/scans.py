"""Sweeps and phase-space scans of the non-Markovianity measure.

All scan entry points are pure functions of their spec, so sweep cells can
be farmed out to a process pool; results are placed by cell index and the
output is byte-identical however many workers run.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .echo import _overlaps, _row_overlaps, fidelity_trace
from .maps import FAMILIES, MapSpec, PerturbedPair, check_family
from .measures import NmResult, measure, measure_rows
from .torus import PhasePoint, coherent_state

__all__ = [
    "PhaseGrid",
    "SweepSpec",
    "grid_average",
    "line_scan",
    "load_grid",
    "save_grid",
    "save_grid_pgm",
    "scan_phase_space",
    "sweep",
]

# Element budget per evolution block of states, to bound the working set.
_BLOCK_ELEMENTS = 1 << 21


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
        check_family(self.family, None)
        if self.n < 2:
            raise ValueError(f"dimension must be >= 2, got {self.n}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")
        object.__setattr__(self, "k_values", tuple(float(k) for k in self.k_values))
        object.__setattr__(self, "dkh_values", tuple(float(d) for d in self.dkh_values))
        if not self.k_values or not self.dkh_values:
            raise ValueError("sweep grids must be non-empty")
        if self.kind not in _CELLS:
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if self.kind == "pure-average" and self.s < 1:
            raise ValueError(f"grid side must be >= 1, got {self.s}")

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


def _pair(family: str, k: float, dkh: float, n: int) -> PerturbedPair:
    spec = MapSpec(family=family, n=n, k=k)
    return PerturbedPair.from_dkh(spec, dkh)


def _measure_columns(pair: PerturbedPair, centers, t_max: int) -> np.ndarray:
    """Pure-state measure per coherent center, in bounded blocks, summed kick by kick.

    Each block builds its own start states, one per row, so they too stay
    within the block budget; no name here holds them, so they are freed
    after the first kick.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    n = pair.n
    block = max(1, _BLOCK_ELEMENTS // n)
    centers = iter(centers)
    values = []
    while chunk := list(islice(centers, block)):
        rows = _overlaps(
            pair, np.array([coherent_state(n, c).amps for c in chunk]), t_max, _row_overlaps
        )
        values.append(measure_rows(chain([1.0], map(np.abs, rows))))
    return np.concatenate(values)


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
    pair = _pair(family, k, dkh, n)
    centers = (PhasePoint(i / s, j / s) for i in range(s) for j in range(s))
    flat = _measure_columns(pair, centers, t_max)
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
    return _measure_columns(_pair(family, k, dkh, n), points, t_max)


def grid_average(grid: PhaseGrid) -> float:
    return float(grid.values.mean())


def _trace_cell(cell) -> tuple[float, tuple]:
    spec, k, dkh = cell
    result = measure(fidelity_trace(_pair(spec.family, k, dkh, spec.n), spec.t_max))
    return result.value, result.segments


def _average_cell(cell) -> tuple[float, tuple]:
    spec, k, dkh = cell
    return grid_average(scan_phase_space(spec.family, k, dkh, spec.n, spec.t_max, spec.s)), ()


_CELLS = {"trace": _trace_cell, "pure-average": _average_cell}


def _run_cells(fn, cell_args, workers, progress):
    results = [None] * len(cell_args)
    if workers <= 1:
        for i, args in enumerate(cell_args):
            results[i] = fn(args)
            if progress:
                progress(i, len(cell_args))
        return results
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(fn, args): i for i, args in enumerate(cell_args)}
        done = 0
        for fut in as_completed(futures):
            results[futures[fut]] = fut.result()
            done += 1
            if progress:
                progress(done - 1, len(cell_args))
    return results


def sweep(spec: SweepSpec, workers: int = 1, progress=None) -> list[NmResult]:
    """Measure sweep over the (K, dkh) rectangle, row-major in K.

    spec.kind picks the measure of every cell.  A pure-average cell averages
    scan_phase_space over the s x s coherent grid, so a sweep entry agrees
    with the mean of the corresponding stored grid to the last bit.  A cell
    function returns the value and rise segments it measured; sweep labels
    each with the K and dkh of its cell as given and spec's n, t_max and kind.
    """
    cells = spec.cells()
    measured = _run_cells(_CELLS[spec.kind], [(spec, k, d) for k, d in cells], workers, progress)
    return [
        NmResult(k=k, dkh=d, n=spec.n, t_max=spec.t_max, kind=spec.kind,
                 value=value, segments=segments)
        for (k, d), (value, segments) in zip(cells, measured)
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
