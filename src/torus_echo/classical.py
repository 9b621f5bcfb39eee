"""Classical counterparts of the kicked maps.

  sm : p' = p + (K/2pi) sin(2 pi x),  x' = x + p'
  hm : p' = p - K sin(2 pi x),        x' = x + K2 sin(2 pi p')

Coordinates wrap into [-1/2, 1/2] on the torus.  Plane (unwrapped) dynamics
keeps the wrapped coordinates for the trigonometry and carries integer
winding numbers alongside, so the two variants agree mod 1 to rounding even
over long runs and chaotic orbits cannot be split by argument-reduction noise.

One kernel, _orbit, steps every orbit of this module.  It holds (x, p), the
windings (wx, wp) and two scratch arrays as three stacked pairs and updates
them in place, so an orbit loop allocates nothing per step, and it forms the
step constants once per orbit: sm K/2pi, hm K and K2, a scalar as a scalar
and an array broadcast to the block.  It wraps a coordinate v as
w += rint(v), v -= rint(v).  v - rint(v) is exact, so the windings stay
exact integers.  The kick sine sin(2 pi v) is taken as 2t / (1 + t*t) with
t = tan(pi v) (_sin2pi): numpy has a SIMD float64 tan on AVX-512 machines,
where its sin calls scalar libm.  The frame is odd: a
step is built from multiplies by constants, tan, adds, rint (round half to
even) and the division by 1 + t*t, which is even in t, and each of them maps
-a to exactly -(its image of a).  Stepping -(x, p, wx, wp) therefore gives
the exact negation of the step of (x, p, wx, wp), bit for bit up to the sign
of a zero, and both maps commute with this parity.  iterate hands out
wrapped histories as v % 1.0 % 1.0, in [0, 1): the second % maps the 1.0
that a tiny negative v rounds to onto 0.0.

The grid measure and the diffusion rate run their orbits in the blocks of
maps.blocks and join the per-orbit values before their one mean, so their
working set is bounded and their result does not depend on the block.
The grid measure forms its closeness once per block of at most
measures.BLOCK_ROWS steps, a block that fits the budget too: a step only
writes the plane difference of its fiducial/perturbed pair, and
measures.measure_rows sums the block's rises with the bits of one step at a
time.  The grid measure builds its cell centers as m / (2 side) with m odd in
(-side, side].  At even side the start of cell c is the exact negation of the
start of cell side**2 - 1 - c, so it evolves the first half of the cells and
hands each value to its partner; odd sides evolve every cell.
"""

from __future__ import annotations

import math

import numpy as np

from .maps import blocks, check_count, check_map
from .measures import BLOCK_ROWS, measure_rows

__all__ = ["classical_nm_grid", "diffusion_coefficient", "iterate", "phase_portrait"]


def _wrap(v, w, tmp):
    """v -> v - rint(v) in [-1/2, 1/2], w += rint(v); all in place."""
    np.rint(v, out=tmp)
    w += tmp
    v -= tmp


def _sin2pi(v, out, scratch):
    """sin(2 pi v) into out as 2t / (1 + t*t), t = tan(pi v); scratch is the same shape.

    The identity holds at every v.  On the wrapped frame |v| <= 1/2, t stays
    finite (|t| < 2**54, its largest at v = +-1/2) and the result is within
    2 ulp of 1 of sin(2 pi v).  tan is odd and t*t even, so the result is
    exactly odd.
    """
    np.multiply(v, math.pi, out=out)
    np.tan(out, out=out)
    np.multiply(out, out, out=scratch)
    scratch += 1.0
    out *= 2.0
    out /= scratch


def _step(family, c1, c2, x, p, wx, wp, tmp, scratch):
    """One step of wrapped x, p with windings wx, wp, all updated in place.

    c1, c2 are the constants of _step_constants: K/2pi for sm; K and K2 for
    hm.  tmp and scratch are buffers of the same shape for the kick sine
    (_sin2pi); the caller owns every buffer.
    """
    _sin2pi(x, tmp, scratch)
    tmp *= c1
    if family == "sm":
        p += tmp
        _wrap(p, wp, tmp)
        x += p
        _wrap(x, wx, tmp)
        wx += wp
    else:
        p -= tmp
        _wrap(p, wp, tmp)
        _sin2pi(p, tmp, scratch)
        tmp *= c2
        x += tmp
        _wrap(x, wx, tmp)


def _step_constants(family, k, k2, shape):
    """(c1, c2) of _step: (K/2pi, None) for sm, (K, K2) for hm.

    A scalar stays a scalar.  An array constant, such as the fiducial/perturbed
    column of _nm_batch, is broadcast to the block's full shape, so no step
    multiplies through numpy's buffered broadcast.
    """
    consts = (k / (2.0 * math.pi), None) if family == "sm" else (k, k2)
    return tuple(c if np.ndim(c) == 0 else np.broadcast_to(c, shape).copy() for c in consts)


def _orbit(family, k, k2, x0, p0, steps):
    """Yield (x, p, wx, wp) at t = 0 .. steps: the same arrays, stepped in place.

    The starts are copied and wrapped, so the windings begin at rint(x0), rint(p0).
    A (2, n) start with a (2, 1) constant runs two families of n orbits side by
    side; the step constants are formed once per orbit (_step_constants).
    The orbit owns three stacked arrays of twice the start's shape: s = (x, p),
    w = (wx, wp) and the two scratch buffers of _step.  It yields views of
    them, s[0, ...] and so on, so a 0-d start stays a 0-d array; x.base and
    wx.base are s and w, whose sum is both plane coordinates in one call.
    """
    s = np.array([x0, p0], dtype=float)
    w, b = np.zeros_like(s), np.empty_like(s)
    x, p, wx, wp = s[0, ...], s[1, ...], w[0, ...], w[1, ...]
    tmp, scratch = b[0, ...], b[1, ...]
    c1, c2 = _step_constants(family, k, k2, x.shape)
    _wrap(s, w, b)
    yield x, p, wx, wp
    for _ in range(steps):
        _step(family, c1, c2, x, p, wx, wp, tmp, scratch)
        yield x, p, wx, wp


def iterate(family, k, k2, x0, p0, steps, wrapped=True):
    """Orbit histories for a batch of initial conditions.

    Returns (xs, ps) with shape (steps + 1,) + shape(x0); wrapped output lies
    in [0, 1), unwrapped output adds the winding numbers back in.
    """
    k2 = check_map(family, k, k2)
    check_count("steps", steps, minimum=0)
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
        # a tiny negative v gives v % 1.0 == 1.0; the second % maps it to 0.0
        xs %= 1.0
        xs %= 1.0
        ps %= 1.0
        ps %= 1.0
    return xs, ps


def phase_portrait(family, k, k2=None, n_orbits=100, steps=300, seed=0):
    """Point cloud of torus orbits from stratified random initial conditions.

    The torus is cut into a near-square grid of cells, one jittered initial
    condition per cell, so portraits cover uniformly at any orbit count.
    Returns an array of (x, p) rows, time-major: the n_orbits points of step
    0, then those of step 1, and so on, (steps + 1) * n_orbits rows in all.
    """
    check_map(family, k, k2)
    check_count("n_orbits", n_orbits)
    check_count("steps", steps)
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
    k2 = check_map(family, k, k2)
    check_count("horizon", horizon)
    check_count("n_orbits", n_orbits)
    rng = np.random.default_rng(seed)
    # every start is drawn before any block runs, so the stream order is fixed
    x0 = rng.random(n_orbits)
    p0 = rng.random(n_orbits)
    squares = []
    # an orbit that overflows gives a rate that is not finite, refused below
    with np.errstate(over="ignore", invalid="ignore"):
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
    (sm kick, hm momentum kick), as a (2, 1) column of that constant, which
    _orbit broadcasts once to the block.  Each step writes the plane
    difference of the pair, row 0 - row 1 of (x + wx, p + wp), into the next
    row of a time-major block of at most BLOCK_ROWS steps that fits the block
    budget, two ufunc calls per step.  Once per block the closeness
    exp(-sqrt(dx*dx + dp*dp)) of all its rows is formed in place by numpy's
    SIMD ufuncs (it agrees with the scalar libm hypot at rounding level), and
    measure_rows sums its rises.  The classical measure carries no factor 2,
    so that sum is halved.
    """
    x0, p0 = np.asarray(x0, dtype=float), np.asarray(p0, dtype=float)
    if family == "sm":
        k = np.array([[k], [k + delta_k]])
    else:
        k2 = np.array([[k2], [k2 + delta_k]])
    starts = (np.broadcast_to(c, (2,) + c.shape) for c in (x0, p0))
    orbit = _orbit(family, k, k2, *starts, t_max)
    plane = np.empty((2, 2) + x0.shape)
    fiducial, perturbed = plane[:, 0], plane[:, 1]

    def closeness():
        for steps in blocks(t_max + 1, 2 * x0.size, most=BLOCK_ROWS):
            # a fresh block each time, as measure_rows reads its last row again;
            # dx and dp are separate so that no ufunc below sees overlapping operands
            dx, dp = diffs = np.empty((2, steps.stop - steps.start) + x0.shape)
            for row, (x, _, wx, _) in zip(diffs.swapaxes(0, 1), orbit):
                np.add(x.base, wx.base, out=plane)
                np.subtract(fiducial, perturbed, out=row)
            dx *= dx
            dp *= dp
            dx += dp
            np.sqrt(dx, out=dx)
            np.negative(dx, out=dx)
            yield np.exp(dx, out=dx)

    return 0.5 * measure_rows(closeness())


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
    k2 = check_map(family, k, k2, delta_k)
    check_count("grid_side", grid_side)
    check_count("t_max", t_max)
    cells = grid_side * grid_side
    evolved = np.arange(cells // 2 if grid_side % 2 == 0 else cells)
    # an orbit that overflows gives a mean that is not finite, refused below
    with np.errstate(over="ignore", invalid="ignore"):
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
