"""Quantum kicked maps: propagators, perturbation pairs, echo operator."""

import numpy as np
import pytest

from torus_echo import classical, echo, maps, scans
from torus_echo.classical import classical_nm_grid
from torus_echo.maps import (
    MATRIX_GUARD,
    GuardError,
    MapSpec,
    PerturbedPair,
    apply_map,
    build_matrix,
    drift_phase,
)
from torus_echo.scans import SweepSpec, scan_phase_space, sweep
from torus_echo.torus import TorusState


def _momentum_state(n, k):
    # momentum eigenstate |p_k> in the position representation
    return TorusState(np.exp(2j * np.pi * k * np.arange(n) / n) / np.sqrt(n))


def test_map_spec_validation():
    with pytest.raises(ValueError):
        MapSpec(family="xx", n=8, k=1.0)
    with pytest.raises(ValueError):
        MapSpec(family="sm", n=8, k=-1.0)
    with pytest.raises(ValueError, match="K2 applies"):
        MapSpec(family="sm", n=8, k=1.0, k2=5.0)
    # the phases scale K by N: an N*K that overflows to inf is refused
    with pytest.raises(ValueError, match=r"K must be finite and >= 0, with N\*K finite"):
        MapSpec(family="sm", n=8, k=1e308)
    with pytest.raises(ValueError, match=r"K2 must be finite and >= 0, with N\*K2 finite"):
        MapSpec(family="hm", n=8, k=1.0, k2=1e308)
    assert MapSpec(family="hm", n=8, k=1.0, k2=1e307).k2 == 1e307


def test_harper_momentum_kick_defaults_to_k():
    spec = MapSpec(family="hm", n=8, k=0.3)
    assert spec.k2 == 0.3
    assert MapSpec(family="hm", n=8, k=0.3, k2=0.7).k2 == 0.7


def test_dkh_unit_per_family():
    assert MapSpec(family="sm", n=64, k=1.0).dkh_unit == 2 * np.pi / 64
    assert MapSpec(family="hm", n=64, k=0.2).dkh_unit == 1 / 64


def test_perturbation_placement():
    sm = PerturbedPair.from_base(MapSpec(family="sm", n=32, k=1.0), 0.05)
    assert sm.u1.k == 1.05 and sm.u0.k == 1.0
    hm = PerturbedPair.from_base(MapSpec(family="hm", n=32, k=0.2), 0.05)
    assert hm.u1.k == 0.2 and hm.u1.k2 == 0.25

    pair = PerturbedPair.from_dkh(MapSpec(family="sm", n=32, k=1.0), 2.0)
    assert abs(pair.delta_k - 2.0 * 2 * np.pi / 32) < 1e-15


def test_free_standard_map_is_momentum_diagonal():
    # a momentum eigenstate only picks up the drift phase exp(-i*pi*k^2/N)
    n, k = 16, 5
    state = _momentum_state(n, k)
    out = apply_map(MapSpec(family="sm", n=n, k=0.0), state)
    np.testing.assert_allclose(np.abs(out.amps), np.abs(state.amps), atol=1e-12)
    np.testing.assert_allclose(out.amps, np.exp(-1j * np.pi * k**2 / n) * state.amps,
                               atol=1e-12)


def test_kickless_harper_is_identity():
    state = _momentum_state(16, 3)
    out = apply_map(MapSpec(family="hm", n=16, k=0.0, k2=0.0), state)
    assert abs(abs(np.vdot(out.amps, state.amps)) - 1.0) < 1e-12


def test_two_site_standard_map_matches_hand_computation():
    # N=2: kick diag(e^{-iK/pi}, e^{+iK/pi}) from cos(2*pi*q) = +/-1, drift
    # diag(1, -i) from exp(-i*pi*k^2/2), and the 2-point transform
    # F = [[1,1],[1,-1]]/sqrt(2); U = F D F V evaluates in closed form.
    k = 0.7
    a, b = np.exp(-1j * k / np.pi), np.exp(1j * k / np.pi)
    hand = 0.5 * np.array([[(1 - 1j) * a, (1 + 1j) * b],
                           [(1 + 1j) * a, (1 - 1j) * b]])
    spec = MapSpec(family="sm", n=2, k=k)
    np.testing.assert_allclose(build_matrix(spec), hand, atol=1e-12)
    out = apply_map(spec, TorusState(np.eye(2)[0]))
    np.testing.assert_allclose(out.amps, hand[:, 0], atol=1e-12)


def test_free_map_matrix_diagonal_in_momentum():
    n = 32
    u = build_matrix(MapSpec(family="sm", n=n, k=0.0))
    f = np.fft.fft(np.eye(n), axis=0, norm="ortho")
    in_momentum = f @ u @ f.conj().T
    off = in_momentum - np.diag(np.diag(in_momentum))
    assert np.abs(off).max() < 1e-10


@pytest.mark.parametrize("family,k", [("sm", 1.3), ("hm", 0.37)])
def test_matrix_unitarity(family, k):
    for n in (64, 512):
        u = build_matrix(MapSpec(family=family, n=n, k=k))
        residual = np.abs(u.conj().T @ u - np.eye(n)).max()
        assert residual < 1e-10


def test_matrix_guard():
    with pytest.raises(GuardError):
        build_matrix(MapSpec(family="sm", n=MATRIX_GUARD * 2, k=1.0))


def test_norm_preserved_by_propagation():
    rng = np.random.default_rng(11)
    amps = rng.normal(size=64) + 1j * rng.normal(size=64)
    state = TorusState(amps / np.linalg.norm(amps))
    for spec in (MapSpec(family="sm", n=64, k=2.5),
                 MapSpec(family="hm", n=64, k=0.4)):
        out = apply_map(spec, state)
        assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12


def test_echo_operator_standard_map():
    # the drift cancels between the pair, leaving the position-diagonal
    # kick difference exp(+i*dkh*cos(2*pi*q))
    n, dkh = 64, 1.3
    pair = PerturbedPair.from_dkh(MapSpec(family="sm", n=n, k=0.9), dkh)
    m = build_matrix(pair.u1).conj().T @ build_matrix(pair.u0)
    q = np.arange(n) / n
    expected = np.diag(np.exp(1j * dkh * np.cos(2 * np.pi * q)))
    assert np.abs(m - expected).max() < 1e-10


def test_echo_operator_harper_map():
    # with the perturbation on the momentum kick, the cyclic echo U0 U1^dag
    # is momentum-diagonal; the phase orientation follows from u1 carrying
    # the stronger kick
    n, dkh = 64, 1.3
    pair = PerturbedPair.from_dkh(MapSpec(family="hm", n=n, k=0.2), dkh)
    m = build_matrix(pair.u0) @ build_matrix(pair.u1).conj().T
    f = np.fft.fft(np.eye(n), axis=0, norm="ortho")
    in_momentum = f @ m @ f.conj().T
    p = np.arange(n) / n
    expected = np.diag(np.exp(-1j * dkh * np.cos(2 * np.pi * p)))
    assert np.abs(in_momentum - expected).max() < 1e-10


def test_iterated_map_matches_matrix_power():
    spec = MapSpec(family="sm", n=32, k=1.7)
    state = TorusState(np.eye(32)[7])
    for _ in range(5):
        state = apply_map(spec, state)
    column = np.linalg.matrix_power(build_matrix(spec), 5)[:, 7]
    np.testing.assert_allclose(state.amps, column, atol=1e-8)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the reference needs an extended-precision long double")
def test_standard_map_drift_phase_is_exact_at_large_n():
    # a float argument pi k^2 / N grows to pi N, and its rounding error with it
    # (8e-10 here); k^2 mod 2N keeps the argument below 2 pi
    n = 2**20 + 1
    k = np.arange(n, dtype=np.int64)
    angle = 4 * np.arctan(np.longdouble(1)) * (k * k % (2 * n)).astype(np.longdouble) / n
    exact = np.cos(angle).astype(float) - 1j * np.sin(angle).astype(float)
    assert np.abs(drift_phase(MapSpec(family="sm", n=n, k=1.0)) - exact).max() <= 1e-15


def test_one_budget_sizes_every_block(monkeypatch):
    # one patch of the budget in maps shrinks the blocks of every route: the
    # coherent states of a pure scan (10 parity orbits of a 4 x 4 grid), the
    # perturbed maps of a trace pass (17 rows at N=32) and the classical grid
    # cells (8 of 16 evolved, two orbits each); the results stay as they were
    sizes = []

    def spy(label, fn, size):
        def recorded(*args):
            sizes.append((label, size(*args)))
            return fn(*args)
        return recorded

    def rows_and_maps(u0, u1s, start, t_max):
        return start.shape[0], len(u1s)

    def orbits(family, k, k2, x0, p0, steps):
        return x0.shape

    monkeypatch.setattr(scans, "_overlaps", spy("pure", echo._overlaps, rows_and_maps))
    monkeypatch.setattr(echo, "_overlaps", spy("trace", echo._overlaps, rows_and_maps))
    monkeypatch.setattr(classical, "_orbit", spy("classical", classical._orbit, orbits))

    def run():
        sizes.clear()
        values = (scan_phase_space("sm", 0.9, 2.0, 64, 5, 4).values,
                  [r.value for r in sweep(SweepSpec(family="sm", k_values=(0.9,),
                                                    dkh_values=(1.0, 2.0, 3.0), n=32, t_max=5))],
                  classical_nm_grid("sm", 0.9, None, 1e-3, 4, 10))
        return values, list(sizes)

    values, whole = run()
    assert whole == [("pure", (10, 1)), ("trace", (17, 3)), ("classical", (2, 8))]
    monkeypatch.setattr(maps, "BLOCK_ELEMENTS", 7)
    split_values, split = run()
    assert split == ([("pure", (1, 1))] * 10 + [("trace", (17, 1))] * 3
                     + [("classical", (2, 3))] * 2 + [("classical", (2, 2))])
    assert np.array_equal(split_values[0], values[0])
    assert split_values[1:] == values[1:]
