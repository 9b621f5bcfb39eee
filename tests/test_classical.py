"""Classical kicked maps: orbits, portraits, diffusion, trajectory measure."""

import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from torus_echo import classical, maps
from torus_echo.classical import (
    _centers,
    _nm_batch,
    _orbit,
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


@pytest.mark.parametrize("family,k,k2", [("sm", 0.9, None), ("hm", 0.3, 0.45)])
def test_nm_batch_matches_two_plane_histories(family, k, k2):
    # both routes wrap the starts the same way, so their plane coordinates
    # agree from t = 0
    rng = np.random.default_rng(7)
    x0, p0 = rng.random(40), rng.random(40)
    delta_k, steps = 1e-3, 300
    kb, k2b = (k + delta_k, None) if family == "sm" else (k, k2 + delta_k)
    xa, pa = iterate(family, k, k2, x0, p0, steps, wrapped=False)
    xb, pb = iterate(family, kb, k2b, x0, p0, steps, wrapped=False)
    f = np.exp(-np.hypot(xa - xb, pa - pb))
    rises = np.zeros_like(x0)
    for t in range(1, steps + 1):
        rises = rises + np.maximum(f[t] - f[t - 1], 0.0)
    value = _nm_batch(family, k, k if k2 is None else k2, delta_k, x0, p0, steps)
    assert np.array_equal(value, rises)
    assert sum(1 for _ in _orbit(family, k, k2, x0, p0, steps)) == steps + 1
    assert sum(1 for _ in _orbit(family, k, k2, x0, p0, 0)) == 1


def _orbit_spy(monkeypatch):
    """Patch classical._orbit; returns (starts, peak): the orbit count of each
    start, and the most orbits live at once (generators not yet collected)."""
    starts, peak, live = [], [0], weakref.WeakKeyDictionary()
    orbit = classical._orbit

    def spy(family, k, k2, x0, p0, steps):
        gen = orbit(family, k, k2, x0, p0, steps)
        live[gen] = np.size(x0)
        starts.append(np.size(x0))
        peak[0] = max(peak[0], sum(live.values()))
        return gen

    monkeypatch.setattr(classical, "_orbit", spy)
    return starts, peak


def test_classical_orbits_run_in_blocks_of_the_budget(monkeypatch):
    def results():
        return (classical_nm_grid("hm", 0.3, 0.4, 1e-3, 5, 40),
                classical_nm_grid("sm", 0.9, None, 1e-3, 4, 40),
                diffusion_coefficient("sm", 2.5, horizon=40, n_orbits=50, seed=1))

    expected = results()
    starts, peak = _orbit_spy(monkeypatch)
    monkeypatch.setattr(maps, "BLOCK_ELEMENTS", 7)
    assert results() == expected
    # two orbits per evolved grid cell (fiducial and perturbed): every cell at
    # odd side, half of them at even side; one orbit per diffusion start
    assert peak[0] <= 7 and sum(starts) == 2 * 25 + 16 + 50


def test_classical_imports_without_the_quantum_scans():
    code = "import sys, torus_echo.classical; print('torus_echo.scans' in sys.modules)"
    env = os.environ | {"PYTHONPATH": str(Path(classical.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False"]


# the orbits overflow on their way to the refused value
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_values_that_are_not_finite_are_refused():
    with pytest.raises(ValueError, match=r"diffusion rate at K=1e\+308 is not finite"):
        diffusion_coefficient("sm", 1e308, horizon=10, n_orbits=10)
    with pytest.raises(ValueError, match=r"classical measure at K=1e\+308 is not finite"):
        classical_nm_grid("hm", 1e308, None, 0.01, 2, 5)


@pytest.mark.parametrize("family,k,k2", [("sm", 0.98, None), ("hm", 0.3, 0.45)])
@pytest.mark.parametrize("side", [2, 4, 8])
def test_paired_grid_equals_every_cell_evolved(family, k, k2, side):
    idx = np.arange(side * side)
    every = _nm_batch(family, k, k if k2 is None else k2, 0.0245,
                      _centers(idx // side, side), _centers(idx % side, side), 300)
    assert classical_nm_grid(family, k, k2, 0.0245, side, 300) == float(every.mean())
    # partner cells start at exactly negated points and give equal values
    assert np.array_equal(every, every[::-1])


@pytest.mark.parametrize("side", [1, 2, 5, 6])
def test_grid_centers_are_the_cell_centers_of_the_torus(side):
    centers = _centers(np.arange(side), side)
    assert np.all((-0.5 < centers) & (centers <= 0.5))
    assert np.allclose(centers % 1.0, (np.arange(side) + 0.5) / side, rtol=0, atol=1e-15)
    if side % 2 == 0:
        assert np.array_equal(centers, -centers[::-1])


@pytest.mark.parametrize("side,pairs", [(4, 8), (6, 18), (5, 25), (3, 9)])
def test_even_sides_evolve_one_cell_per_parity_pair(monkeypatch, side, pairs):
    starts, _ = _orbit_spy(monkeypatch)
    classical_nm_grid("sm", 0.98, None, 0.0245, side, 20)
    assert sum(starts) == 2 * pairs


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
    lambda: iterate("sm", 1.0, None, math.nan, 0.3, 1),
    lambda: iterate("hm", 0.3, None, [0.1, 0.2], [0.2, -math.inf], 5),
], ids=["nm-grid-delta_k", "nm-grid-K", "nm-grid-K2", "nm-delta_k", "diffusion-K",
        "portrait-K", "iterate-K2", "step-K", "iterate-x0", "iterate-p0"])
def test_non_finite_map_constants_are_rejected(call):
    with pytest.raises(ValueError, match="must be finite"):
        call()


@pytest.mark.parametrize("call", [
    lambda: iterate("sm", 1.0, None, [0.1], [0.2], -1),
    lambda: iterate("sm", 1.0, None, [0.1], [0.2], 2.0),
    lambda: phase_portrait("sm", 1.0, n_orbits=0, steps=5),
    lambda: phase_portrait("hm", 0.3, n_orbits=4, steps=1.5),
    lambda: diffusion_coefficient("sm", 1.0, horizon=2.5, n_orbits=10),
    lambda: diffusion_coefficient("sm", 1.0, horizon=10, n_orbits=0),
    lambda: classical_nm_grid("sm", 1.0, None, 0.01, 2.5, 10),
    lambda: classical_nm_grid("sm", 1.0, None, 0.01, 2, 0),
    lambda: classical_nm_grid("hm", 0.3, None, 0.01, True, 10),
], ids=["iterate-steps-negative", "iterate-steps-float", "portrait-orbits",
        "portrait-steps-float", "diffusion-horizon-float", "diffusion-orbits",
        "nm-grid-side-float", "nm-grid-t", "nm-grid-side-bool"])
def test_bad_counts_are_rejected(call):
    with pytest.raises(ValueError, match="must be an integer >="):
        call()


@pytest.mark.parametrize("family,k", [("sm", 2.5), ("hm", 1.3)])
def test_in_place_buffers_leave_caller_arrays_alone(family, k):
    # wrapped float arrays are the case where a view in place of a copy
    # would let the step write into the caller's starts
    rng = np.random.default_rng(3)
    x0, p0 = rng.random(64), rng.random(64)
    saved = x0.copy(), p0.copy()
    _, ps = iterate(family, k, None, x0, p0, 200, wrapped=False)
    _nm_batch(family, k, k, 1e-3, x0, p0, 200)
    assert np.array_equal(x0, saved[0]) and np.array_equal(p0, saved[1])
    # diffusion draws the same starts from its seed; its reference momenta
    # must survive the in-place steps
    spread = ps[-1] - p0
    expected = float(np.mean(spread * spread) / 200)
    assert diffusion_coefficient(family, k, horizon=200, n_orbits=64, seed=3) == expected


# the sm drift is fixed and the classical sm step has no K2, so a K2 given
# for sm would be echoed and ignored
@pytest.mark.parametrize("call", [
    lambda: iterate("sm", 1.0, 5.0, [0.1], [0.2], 5),
    lambda: phase_portrait("sm", 1.0, k2=5.0, n_orbits=4, steps=5),
    lambda: diffusion_coefficient("sm", 1.0, k2=5.0, horizon=10, n_orbits=10),
    lambda: classical_nm_grid("sm", 1.0, 5.0, 0.01, 2, 10),
], ids=["iterate", "portrait", "diffusion", "nm-grid"])
def test_k2_is_refused_for_the_standard_map(call):
    with pytest.raises(ValueError, match="K2 applies to the hm family only"):
        call()
