"""Classical counterparts of the kicked maps.

  sm : p' = p + (K/2pi) sin(2 pi x),  x' = x + p'
  hm : p' = p - K sin(2 pi x),        x' = x + K2 sin(2 pi p')

Coordinates wrap mod 1 on the torus.  Plane (unwrapped) dynamics keeps the
wrapped coordinates for the trigonometry and carries integer winding numbers
alongside, so the two variants agree mod 1 to rounding even over long runs
and chaotic orbits cannot be split by argument-reduction noise.

One step works in place on caller-owned arrays (coordinates, windings and one
scratch array), so an orbit loop allocates nothing per step.  It wraps a
coordinate v as w += floor(v), v -= floor(v).  That gives the same bits as
v % 1.0 and v - v % 1.0: fmod is exact, so v % 1.0 and v - floor(v) are the
same real number rounded once, and the winding v - v % 1.0 comes out as the
integer floor(v) exactly.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .maps import check_family

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
    """v -> v - floor(v) in [0, 1], w += floor(v); all in place."""
    np.floor(v, out=tmp)
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


def iterate(family, k, k2, x0, p0, steps, wrapped=True):
    """Orbit histories for a batch of initial conditions.

    Returns (xs, ps) with shape (steps + 1,) + shape(x0); unwrapped output
    adds the winding numbers back in.
    """
    k2 = _check_params(family, k, k2)
    _check_count("steps", steps, minimum=0)
    # copies, kept as arrays even for scalar starts, so the step can work in place
    x = np.array(x0, dtype=float)
    p = np.array(p0, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(p).all()):
        raise ValueError("initial conditions must be finite")
    wx, wp, tmp = np.zeros_like(x), np.zeros_like(x), np.empty_like(x)
    _wrap(x, wx, tmp)
    _wrap(p, wp, tmp)
    xs = np.empty((steps + 1,) + x.shape)
    ps = np.empty((steps + 1,) + x.shape)
    for t in range(steps + 1):
        if t:
            _step(family, k, k2, x, p, wx, wp, tmp)
        if wrapped:
            xs[t], ps[t] = x, p
        else:
            np.add(x, wx, out=xs[t, ...])
            np.add(p, wp, out=ps[t, ...])
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
    x = rng.random(n_orbits)
    p = rng.random(n_orbits)
    wx, wp, tmp = np.zeros(n_orbits), np.zeros(n_orbits), np.empty(n_orbits)
    p_start = p.copy()
    for _ in range(horizon):
        _step(family, k, k2, x, p, wx, wp, tmp)
    spread = (p + wp) - p_start
    return float(np.mean(spread * spread) / horizon)


def _nm_batch(family, k, k2, delta_k, x0, p0, t_max):
    """Classical measure per initial condition, fiducial vs perturbed orbit.

    Both orbits run on the plane from the same start; the perturbation sits
    where the quantum pair puts it (sm kick, hm momentum kick).  The summed
    positive increments of exp(-distance) are returned per orbit; there is
    no factor 2 here.
    """
    if family == "sm":
        kb, k2b = k + delta_k, k2
    else:
        kb, k2b = k, k2 + delta_k
    xa = np.asarray(x0, dtype=float) % 1.0
    pa = np.asarray(p0, dtype=float) % 1.0
    wxa = np.zeros_like(xa)
    wpa = np.zeros_like(xa)
    xb, pb, wxb, wpb = xa.copy(), pa.copy(), wxa.copy(), wpa.copy()
    nm = np.zeros_like(xa)
    f, f_prev = np.empty_like(xa), np.ones_like(xa)
    dx, dp, tmp = np.empty_like(xa), np.empty_like(xa), np.empty_like(xa)
    for _ in range(t_max):
        _step(family, k, k2, xa, pa, wxa, wpa, tmp)
        _step(family, kb, k2b, xb, pb, wxb, wpb, tmp)
        # dx = (xa + wxa) - (xb + wxb), dp likewise, f = exp(-hypot(dx, dp))
        np.add(xa, wxa, out=dx)
        np.add(xb, wxb, out=tmp)
        dx -= tmp
        np.add(pa, wpa, out=dp)
        np.add(pb, wpb, out=tmp)
        dp -= tmp
        np.hypot(dx, dp, out=f)
        np.negative(f, out=f)
        np.exp(f, out=f)
        # the rise max(f - f_prev, 0) equals where(f > f_prev, f - f_prev, 0) for finite f
        np.subtract(f, f_prev, out=tmp)
        np.maximum(tmp, 0.0, out=tmp)
        nm += tmp
        f, f_prev = f_prev, f
    return nm


def classical_nm_grid(family, k, k2, delta_k, grid_side, t_max):
    """Mean classical measure over a grid of cell-center initial conditions."""
    k2 = _check_params(family, k, k2, delta_k)
    _check_count("grid_side", grid_side)
    _check_count("t_max", t_max)
    centers = (np.arange(grid_side) + 0.5) / grid_side
    x0, p0 = np.meshgrid(centers, centers, indexing="ij")
    values = _nm_batch(family, k, k2, delta_k, x0.ravel(), p0.ravel(), t_max)
    return float(values.mean())
