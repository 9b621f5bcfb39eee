"""Classical counterparts of the kicked maps.

  sm : p' = p + (K/2pi) sin(2 pi x),  x' = x + p'
  hm : p' = p - K sin(2 pi x),        x' = x + K2 sin(2 pi p')

Coordinates wrap mod 1 on the torus.  Plane (unwrapped) dynamics keeps the
wrapped coordinates for the trigonometry and carries integer winding numbers
alongside, so the two variants agree mod 1 to rounding even over long runs
and chaotic orbits cannot be split by argument-reduction noise.
"""

from __future__ import annotations

import math

import numpy as np

from .maps import FAMILIES

__all__ = ["classical_nm_grid", "diffusion_coefficient", "iterate", "phase_portrait"]


def _check_params(family: str, k, k2, delta_k=0.0):
    """Validate the family and the map constants; returns k2 (default k)."""
    if family not in FAMILIES:
        raise ValueError(f"unknown map family {family!r}")
    if k2 is None:
        k2 = k
    for label, val in (("K", k), ("K2", k2), ("delta_k", delta_k)):
        if not math.isfinite(val):
            raise ValueError(f"{label} must be finite, got {val}")
    return k2


def _step(family, k, k2, x, p, wx, wp):
    """One step on wrapped coordinates, windings updated in place."""
    if family == "sm":
        pn = p + (k / (2.0 * math.pi)) * np.sin(2.0 * math.pi * x)
        pw = pn % 1.0
        wp = wp + (pn - pw)
        xn = x + pw
        xw = xn % 1.0
        wx = wx + (xn - xw) + wp
    else:
        pn = p - k * np.sin(2.0 * math.pi * x)
        pw = pn % 1.0
        wp = wp + (pn - pw)
        xn = x + k2 * np.sin(2.0 * math.pi * pw)
        xw = xn % 1.0
        wx = wx + (xn - xw)
    return xw, pw, wx, wp


def iterate(family, k, k2, x0, p0, steps, wrapped=True):
    """Orbit histories for a batch of initial conditions.

    Returns (xs, ps) with shape (steps + 1,) + shape(x0); unwrapped output
    adds the winding numbers back in.
    """
    k2 = _check_params(family, k, k2)
    x = np.asarray(x0, dtype=float) % 1.0
    p = np.asarray(p0, dtype=float) % 1.0
    wx = np.asarray(x0, dtype=float) - x
    wp = np.asarray(p0, dtype=float) - p
    xs = np.empty((steps + 1,) + x.shape)
    ps = np.empty((steps + 1,) + x.shape)
    xs[0] = x if wrapped else x + wx
    ps[0] = p if wrapped else p + wp
    for t in range(1, steps + 1):
        x, p, wx, wp = _step(family, k, k2, x, p, wx, wp)
        xs[t] = x if wrapped else x + wx
        ps[t] = p if wrapped else p + wp
    return xs, ps


def phase_portrait(family, k, k2=None, n_orbits=100, steps=300, seed=0):
    """Point cloud of torus orbits from stratified random initial conditions.

    The torus is cut into a near-square grid of cells, one jittered initial
    condition per cell, so portraits cover uniformly at any orbit count.
    Returns an array of (x, p) rows, orbits concatenated.
    """
    _check_params(family, k, k2)
    if n_orbits < 1 or steps < 1:
        raise ValueError("n_orbits and steps must be >= 1")
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
    if horizon < 1 or n_orbits < 1:
        raise ValueError("horizon and n_orbits must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.random(n_orbits)
    p = rng.random(n_orbits)
    wx = np.zeros(n_orbits)
    wp = np.zeros(n_orbits)
    p_start = p.copy()
    for _ in range(horizon):
        x, p, wx, wp = _step(family, k, k2, x, p, wx, wp)
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
    f_prev = np.ones_like(xa)
    for _ in range(t_max):
        xa, pa, wxa, wpa = _step(family, k, k2, xa, pa, wxa, wpa)
        xb, pb, wxb, wpb = _step(family, kb, k2b, xb, pb, wxb, wpb)
        dist = np.hypot((xa + wxa) - (xb + wxb), (pa + wpa) - (pb + wpb))
        f = np.exp(-dist)
        nm += np.where(f > f_prev, f - f_prev, 0.0)
        f_prev = f
    return nm


def classical_nm_grid(family, k, k2, delta_k, grid_side, t_max):
    """Mean classical measure over a grid of cell-center initial conditions."""
    k2 = _check_params(family, k, k2, delta_k)
    if grid_side < 1 or t_max < 1:
        raise ValueError("grid_side and t_max must be >= 1")
    centers = (np.arange(grid_side) + 0.5) / grid_side
    x0, p0 = np.meshgrid(centers, centers, indexing="ij")
    values = _nm_batch(family, k, k2, delta_k, x0.ravel(), p0.ravel(), t_max)
    return float(values.mean())
