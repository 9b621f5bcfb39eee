"""Classical kicked maps: orbits, portraits, diffusion, trajectory measure."""

import math

import numpy as np
import pytest

from torus_echo.classical import (
    _nm_batch,
    classical_nm_grid,
    diffusion_coefficient,
    iterate,
    phase_portrait,
)


def _step(family, k, k2, x, p):
    """One wrapped step of a single initial condition."""
    xs, ps = iterate(family, k, k2, x, p, steps=1)
    return xs[1], ps[1]


def test_free_standard_map_shears():
    x, p = _step("sm", 0.0, None, 0.2, 0.3)
    assert abs(x - 0.5) < 1e-12
    assert abs(p - 0.3) < 1e-12


def test_standard_map_hand_step():
    # K=1 from (0.25, 0): kick sin(pi/2) = 1 gives p' = 1/(2*pi), then
    # x' = 0.25 + p'
    x, p = _step("sm", 1.0, None, 0.25, 0.0)
    assert abs(p - 0.1591549) < 1e-7
    assert abs(x - 0.4091549) < 1e-7


def test_kickless_harper_is_identity():
    x, p = _step("hm", 0.0, 0.0, 0.37, 0.61)
    assert abs(x - 0.37) < 1e-12 and abs(p - 0.61) < 1e-12


def test_step_wraps_to_unit_square():
    x, p = _step("sm", 2.5, None, 0.9, 0.8)
    assert 0.0 <= x < 1.0 and 0.0 <= p < 1.0


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        _step("xx", 1.0, None, 0.1, 0.1)


@pytest.mark.parametrize("family,k", [("sm", 1.2), ("hm", 0.3)])
def test_wrapped_orbit_equals_plane_orbit_mod_one(family, k):
    x0, p0 = np.array([0.11, 0.62]), np.array([0.45, 0.83])
    xs_w, ps_w = iterate(family, k, None, x0, p0, 10000, wrapped=True)
    xs_u, ps_u = iterate(family, k, None, x0, p0, 10000, wrapped=False)
    assert np.abs(xs_w - xs_u % 1.0).max() < 1e-9
    assert np.abs(ps_w - ps_u % 1.0).max() < 1e-9


def test_standard_map_is_reversible():
    # exact inverse: x = x' - p', then p = p' - (K/2pi) sin(2 pi x);
    # kept below the strong-chaos regime so rounding noise cannot blow
    # up exponentially over the hundred-step round trip
    k = 0.9
    xs, ps = iterate("sm", k, None, 0.123, 0.456, 100, wrapped=False)
    x, p = xs[-1], ps[-1]
    for _ in range(100):
        x = x - p
        p = p - k / (2 * np.pi) * np.sin(2 * np.pi * x)
    assert abs(x - 0.123) < 1e-10
    assert abs(p - 0.456) < 1e-10


def test_free_portrait_is_horizontal_lines():
    points = phase_portrait("sm", 0.0, n_orbits=25, steps=40, seed=1)
    ps = points[:, 1].reshape(41, 25)
    assert np.abs(ps - ps[0]).max() < 1e-12


def _bounded_fraction(k, threshold=1.0):
    side = 10
    cells = np.arange(side * side)
    x0 = (cells % side + 0.5) / side
    p0 = (cells // side + 0.5) / side
    _, ps = iterate("sm", k, None, x0, p0, 300, wrapped=False)
    spread = ps.max(axis=0) - ps.min(axis=0)
    return float(np.mean(spread < threshold))


def test_momentum_confinement_below_and_above_the_border():
    assert _bounded_fraction(0.5) > 0.5
    assert _bounded_fraction(2.5) < 0.5


def test_diffusion_bounded_phase():
    assert diffusion_coefficient("sm", 0.5) < 1e-3
    assert diffusion_coefficient("hm", 0.05) < 1e-3


def test_diffusion_chaotic_phase_stable_across_horizons():
    d_short = diffusion_coefficient("sm", 2.5, horizon=1000)
    d_long = diffusion_coefficient("sm", 2.5, horizon=16000)
    assert d_long > 0.01
    assert 0.5 < d_short / d_long < 2.0


def _bessel_j(n, x, nodes=64):
    # J_n(x) = (1/2pi) * integral over one period of cos(n*tau - x*sin(tau));
    # the trapezoid rule on a periodic integrand converges geometrically
    tau = 2.0 * np.pi * np.arange(nodes) / nodes
    return float(np.mean(np.cos(n * tau - x * np.sin(tau))))


@pytest.mark.parametrize("k", [5.0, 9.0])
def test_diffusion_units_match_quasilinear_law(k):
    # Rechester & White, PRL 44, 1586 (1980): in Chirikov's action units
    # D_I = (K^2/2)(1 - 2 J2 - 2 J1^2 + 2 J2^2 + 2 J3^2) at large K.  The
    # momentum here lives on the unit torus, p = I / 2pi, so D_p = D_I / 4pi^2;
    # a missing or doubled 4pi^2 misses this by a factor ~40.
    j1, j2, j3 = (_bessel_j(n, k) for n in (1, 2, 3))
    d_action = 0.5 * k * k * (1.0 - 2.0 * j2 - 2.0 * j1**2 + 2.0 * j2**2 + 2.0 * j3**2)
    expected = d_action / (4.0 * np.pi**2)
    measured = diffusion_coefficient("sm", k, horizon=1000, n_orbits=4000, seed=0)
    assert abs(measured / expected - 1.0) < 0.15


def test_diffusion_seed_invariance_within_bracket():
    a = diffusion_coefficient("sm", 2.5, horizon=2000, seed=0)
    b = diffusion_coefficient("sm", 2.5, horizon=2000, seed=1)
    assert a >= 0.0 and b >= 0.0
    assert 0.5 < a / b < 2.0


def test_classical_measure_trivial_cases():
    assert _nm_batch("sm", 1.3, 1.3, 0.0, [0.2], [0.7], 500)[0] == 0.0
    # (0, 0) is fixed for every K, so fiducial and perturbed orbits agree
    assert _nm_batch("sm", 1.3, 1.3, 1e-3, [0.0], [0.0], 500)[0] == 0.0


def test_classical_measure_positive_on_generic_orbit():
    value = _nm_batch("sm", 0.9, 0.9, 1e-3, [0.3], [0.6], 2000)[0]
    assert value > 0.0


def test_classical_measure_grid_average_runs():
    value = classical_nm_grid("sm", 0.9, None, 1e-3, 8, 500)
    assert np.isfinite(value) and value >= 0.0


@pytest.mark.parametrize("call", [
    lambda: classical_nm_grid("sm", 1.0, None, math.nan, 2, 10),
    lambda: classical_nm_grid("sm", math.nan, None, 0.01, 2, 10),
    lambda: classical_nm_grid("hm", 0.3, math.inf, 0.01, 2, 10),
    lambda: classical_nm_grid("sm", 1.0, None, -math.inf, 2, 10),
    lambda: diffusion_coefficient("sm", math.nan, horizon=10, n_orbits=10),
    lambda: phase_portrait("sm", math.nan, n_orbits=4, steps=5),
    lambda: iterate("hm", 0.3, math.nan, [0.1], [0.2], 5),
    lambda: iterate("sm", math.inf, None, 0.2, 0.3, 1),
], ids=["nm-grid-delta_k", "nm-grid-K", "nm-grid-K2", "nm-delta_k", "diffusion-K",
        "portrait-K", "iterate-K2", "step-K"])
def test_non_finite_map_constants_are_rejected(call):
    with pytest.raises(ValueError, match="must be finite"):
        call()
