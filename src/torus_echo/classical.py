"""Classical counterparts of the kicked maps.

  sm : p' = p + (K/2pi) sin(2 pi x),  x' = x + p'
  hm : p' = p - K sin(2 pi x),        x' = x + K2 sin(2 pi p')

Coordinates wrap into [-1/2, 1/2] on the torus.  Plane (unwrapped) dynamics
keeps the wrapped coordinates for the trigonometry and carries integer
winding numbers alongside, so the two variants agree mod 1 to rounding even
over long runs and chaotic orbits cannot be split by argument-reduction noise.

One kernel, _orbit, steps every orbit of this module.  It owns the windings
and one scratch array and updates them in place, so an orbit loop allocates
nothing per step.  It wraps a coordinate v as w += rint(v), v -= rint(v).
v - rint(v) is exact, so the windings stay exact integers.  The frame is odd:
a step is built from multiplies by constants, sin, adds and rint (round half
to even), and each of them maps -a to exactly -(its image of a).  Stepping
-(x, p, wx, wp) therefore gives the exact negation of the step of
(x, p, wx, wp), bit for bit up to the sign of a zero, and both maps commute
with this parity.  iterate hands out wrapped histories as v % 1.0, in [0, 1].

The grid measure and the diffusion rate run their orbits in the blocks of
maps.blocks and join the per-orbit values before their one mean, so their
working set is bounded and their result does not depend on the block.
The grid measure builds its cell centers as m / (2 side) with m odd in
(-side, side].  At even side the start of cell c is the exact negation of the
start of cell side**2 - 1 - c, so it evolves the first half of the cells and
hands each value to its partner; odd sides evolve every cell.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .maps import blocks, check_family
from .measures import measure_rows

__all__ = ["classical_nm_grid", "diffusion_coefficient", "iterate", "phase_portrait"]


def _check_params(family: str, k, k2, delta_k=0.0):
    """Validate the family and the map constants; returns k2 (hm only, default k)."""
    check_family(family, k2)
    if k2 is None:
        k2 = k
    for label, val in (("K", k), ("K2", k2), ("delta_k", delta_k)):
        if not math.isfinite(val):
            raise ValueError(f"{label} must be finite, got {val}")
    return k2


def _check_count(label: str, value, minimum: int = 1) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{label} must be an integer >= {minimum}, got {value!r}")


def _wrap(v, w, tmp):
    """v -> v - rint(v) in [-1/2, 1/2], w += rint(v); all in place."""
    np.rint(v, out=tmp)
    w += tmp
    v -= tmp


def _step(family, k, k2, x, p, wx, wp, tmp):
    """One step of wrapped x, p with windings wx, wp, all updated in place.

    tmp is scratch of the same shape; the caller owns every buffer.
    """
    np.multiply(x, 2.0 * math.pi, out=tmp)
    np.sin(tmp, out=tmp)
    if family == "sm":
        tmp *= k / (2.0 * math.pi)
        p += tmp
        _wrap(p, wp, tmp)
        x += p
        _wrap(x, wx, tmp)
        wx += wp
    else:
        tmp *= k
        p -= tmp
        _wrap(p, wp, tmp)
        np.multiply(p, 2.0 * math.pi, out=tmp)
        np.sin(tmp, out=tmp)
        tmp *= k2
        x += tmp
        _wrap(x, wx, tmp)


def _orbit(family, k, k2, x0, p0, steps):
    """Yield (x, p, wx, wp) at t = 0 .. steps: the same arrays, stepped in place.

    The starts are copied and wrapped, so the windings begin at rint(x0), rint(p0).
    Constants and starts broadcast: a (2, n) start with a (2, 1) K runs two
    families of n orbits side by side.
    """
    x = np.array(x0, dtype=float)
    p = np.array(p0, dtype=float)
    wx, wp, tmp = np.zeros_like(x), np.zeros_like(x), np.empty_like(x)
    _wrap(x, wx, tmp)
    _wrap(p, wp, tmp)
    yield x, p, wx, wp
    for _ in range(steps):
        _step(family, k, k2, x, p, wx, wp, tmp)
        yield x, p, wx, wp


def iterate(family, k, k2, x0, p0, steps, wrapped=True):
    """Orbit histories for a batch of initial conditions.

    Returns (xs, ps) with shape (steps + 1,) + shape(x0); wrapped output lies
    in [0, 1], unwrapped output adds the winding numbers back in.
    """
    k2 = _check_params(family, k, k2)
    _check_count("steps", steps, minimum=0)
    x0, p0 = np.asarray(x0, dtype=float), np.asarray(p0, dtype=float)
    if not (np.isfinite(x0).all() and np.isfinite(p0).all()):
        raise ValueError("initial conditions must be finite")
    xs = np.empty((steps + 1,) + x0.shape)
    ps = np.empty((steps + 1,) + x0.shape)
    for t, (x, p, wx, wp) in enumerate(_orbit(family, k, k2, x0, p0, steps)):
        if wrapped:
            xs[t], ps[t] = x, p
        else:
            np.add(x, wx, out=xs[t, ...])
            np.add(p, wp, out=ps[t, ...])
    if wrapped:
        xs %= 1.0
        ps %= 1.0
    return xs, ps


def phase_portrait(family, k, k2=None, n_orbits=100, steps=300, seed=0):
    """Point cloud of torus orbits from stratified random initial conditions.

    The torus is cut into a near-square grid of cells, one jittered initial
    condition per cell, so portraits cover uniformly at any orbit count.
    Returns an array of (x, p) rows, orbits concatenated.
    """
    _check_params(family, k, k2)
    _check_count("n_orbits", n_orbits)
    _check_count("steps", steps)
    rng = np.random.default_rng(seed)
    side = math.ceil(math.sqrt(n_orbits))
    cells = np.arange(side * side)[:n_orbits]
    jitter = rng.random((2, n_orbits))
    x0 = ((cells % side) + jitter[0]) / side
    p0 = ((cells // side) + jitter[1]) / side
    xs, ps = iterate(family, k, k2, x0, p0, steps, wrapped=True)
    return np.column_stack([xs.ravel(), ps.ravel()])


def diffusion_coefficient(family, k, k2=None, horizon=16000, n_orbits=4000, seed=0):
    """Momentum diffusion rate <(p_t - p_0)^2> / t at t = horizon, on the plane."""
    k2 = _check_params(family, k, k2)
    _check_count("horizon", horizon)
    _check_count("n_orbits", n_orbits)
    rng = np.random.default_rng(seed)
    # every start is drawn before any block runs, so the stream order is fixed
    x0 = rng.random(n_orbits)
    p0 = rng.random(n_orbits)
    squares = []
    for block in blocks(n_orbits, 1):
        for _, p, _, wp in _orbit(family, k, k2, x0[block], p0[block], horizon):
            pass
        spread = (p + wp) - p0[block]
        squares.append(spread * spread)
    rate = float(np.mean(np.concatenate(squares)) / horizon)
    if not math.isfinite(rate):
        raise ValueError(f"diffusion rate at K={k} is not finite, got {rate}")
    return rate


def _nm_batch(family, k, k2, delta_k, x0, p0, t_max):
    """Classical measure per initial condition, fiducial vs perturbed orbit.

    Both orbits run on the plane from the same start, as rows 0 and 1 of one
    (2, n) orbit block; the perturbation sits where the quantum pair puts it
    (sm kick, hm momentum kick), as a (2, 1) column of that constant.  The
    summed positive increments of exp(-distance) are returned per orbit; the
    classical measure carries no factor 2, so measure_rows' sum is halved.
    """
    x0, p0 = np.asarray(x0, dtype=float), np.asarray(p0, dtype=float)
    if family == "sm":
        k = np.array([[k], [k + delta_k]])
    else:
        k2 = np.array([[k2], [k2 + delta_k]])
    starts = (np.broadcast_to(c, (2,) + c.shape) for c in (x0, p0))
    rows = (np.exp(-np.hypot(np.subtract(*(x + wx)), np.subtract(*(p + wp))))
            for x, p, wx, wp in _orbit(family, k, k2, *starts, t_max))
    return 0.5 * measure_rows(rows)


def _centers(index, side: int):
    """m / (2 side) for the cell index i: m = 2i + 1 brought into (-side, side]."""
    m = 2 * index + 1
    return np.where(m > side, m - 2 * side, m) / (2.0 * side)


def classical_nm_grid(family, k, k2, delta_k, grid_side, t_max):
    """Mean classical measure over a grid of cell-center initial conditions.

    Cell c starts at the centers of rows c // grid_side in x and c % grid_side
    in p.  At even grid_side only the first half of the cells is evolved;
    cell grid_side**2 - 1 - c starts at the exact negation of cell c and so
    takes its value.
    """
    k2 = _check_params(family, k, k2, delta_k)
    _check_count("grid_side", grid_side)
    _check_count("t_max", t_max)
    cells = grid_side * grid_side
    evolved = np.arange(cells // 2 if grid_side % 2 == 0 else cells)
    values = np.concatenate([
        _nm_batch(family, k, k2, delta_k, _centers(evolved[block] // grid_side, grid_side),
                  _centers(evolved[block] % grid_side, grid_side), t_max)
        for block in blocks(evolved.size, 2)
    ])
    if evolved.size < cells:
        values = np.concatenate([values, values[::-1]])
    mean = float(values.mean())
    if not math.isfinite(mean):
        raise ValueError(f"classical measure at K={k} is not finite, got {mean}")
    return mean
