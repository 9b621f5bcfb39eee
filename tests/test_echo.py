"""Fidelity-amplitude series from perturbed evolution pairs."""

import numpy as np
import pytest

from torus_echo.echo import (
    FidelitySeries,
    fidelity_from_state,
    fidelity_pure,
    fidelity_trace,
    load_series,
    save_series,
)
from torus_echo.maps import MATRIX_GUARD, GuardError, MapSpec, PerturbedPair, build_matrix
from torus_echo.measures import measure
from torus_echo.torus import PhasePoint, TorusState, coherent_state


def _pair(family, k, n, dkh):
    return PerturbedPair.from_dkh(MapSpec(family=family, n=n, k=k), dkh)


def test_series_starts_at_one_and_is_bounded():
    series = fidelity_pure(_pair("sm", 2.5, 64, 2.0), PhasePoint(0.3, 0.3), 50)
    assert series.values[0] == 1.0
    assert np.abs(series.values).max() <= 1 + 1e-9
    assert series.t_max == 50 and len(series.values) == 51


def test_series_kind_is_validated():
    with pytest.raises(ValueError):
        FidelitySeries(np.ones(3, dtype=complex), kind="other")


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan)])
def test_series_values_must_be_finite(tmp_path, bad):
    values = np.array([1.0, 0.5, bad, 0.3], dtype=complex)
    with pytest.raises(ValueError, match="finite"):
        FidelitySeries(values, kind="trace")
    path = tmp_path / "series.csv"
    rows = [f"{t},{v.real!r},{v.imag!r},{abs(v)!r}" for t, v in enumerate(values.tolist())]
    path.write_text("\n".join(["# kind=trace", "t,re_f,im_f,abs_f", *rows]) + "\n")
    with pytest.raises(ValueError, match="finite"):
        load_series(path)


def test_empty_series_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="non-empty"):
        FidelitySeries(np.array([], dtype=complex), kind="trace")
    path = tmp_path / "series.csv"
    path.write_text("# kind=trace\nt,re_f,im_f,abs_f\n")
    with pytest.raises(ValueError, match="non-empty"):
        load_series(path)


@pytest.mark.parametrize("family,k", [("sm", 1.1), ("hm", 0.3)])
def test_zero_perturbation_keeps_unit_fidelity(family, k):
    pair = PerturbedPair.from_base(MapSpec(family=family, n=64, k=k), 0.0)
    pure = fidelity_pure(pair, PhasePoint(0.2, 0.6), 20)
    trace = fidelity_trace(pair, 20)
    assert np.abs(np.abs(pure.values) - 1.0).max() < 1e-10
    assert np.abs(np.abs(trace.values) - 1.0).max() < 1e-10


def test_pure_series_matches_dense_matrix_evolution():
    pair = _pair("sm", 0.5, 512, 2.0)
    center = PhasePoint(0.3, 0.3)
    series = fidelity_pure(pair, center, 10)

    u0, u1 = build_matrix(pair.u0), build_matrix(pair.u1)
    psi0 = psi1 = coherent_state(512, center).amps
    for t in range(1, 11):
        psi0, psi1 = u0 @ psi0, u1 @ psi1
        f = np.vdot(psi1, psi0)
        assert abs(abs(series.values[t]) - abs(f)) < 1e-8


def test_first_kick_reduces_to_kick_difference_expectation():
    # after one step the echo operator is the position-diagonal phase
    # exp(i*dkh*cos(2*pi*q)), so f(1) is its expectation in the initial state
    n, dkh = 256, 1.7
    pair = _pair("sm", 0.9, n, dkh)
    psi = coherent_state(n, PhasePoint(0.41, 0.17)).amps
    weights = np.abs(psi) ** 2
    expected = np.sum(weights * np.exp(1j * dkh * np.cos(2 * np.pi * np.arange(n) / n)))
    series = fidelity_pure(pair, PhasePoint(0.41, 0.17), 1)
    assert abs(abs(series.values[1]) - abs(expected)) < 1e-10


@pytest.mark.parametrize("family,k", [("sm", 2.5), ("hm", 0.3)])
def test_first_kick_trace_is_grid_average_of_kick_phase(family, k):
    # <f(1)> = (1/N) sum_n exp(i*dkh*cos(2*pi*n/N)), the Riemann sum that
    # converges to the Bessel function J0(dkh)
    n, dkh = 500, 2.0
    series = fidelity_trace(_pair(family, k, n, dkh), 1)
    oracle = np.mean(np.exp(1j * dkh * np.cos(2 * np.pi * np.arange(n) / n)))
    assert abs(abs(series.values[1]) - abs(oracle)) < 1e-10
    assert abs(abs(series.values[1]) - 0.22389) < 5e-3


def test_trace_equals_position_basis_average():
    n, t = 64, 5
    pair = _pair("sm", 0.9, n, 2.0)
    trace = fidelity_trace(pair, t).values
    avg = np.zeros(t + 1, dtype=complex)
    for j in range(n):
        avg += fidelity_from_state(pair, TorusState(np.eye(n)[j]), t).values
    np.testing.assert_allclose(trace, avg / n, atol=1e-10)


def test_trace_equals_momentum_basis_average():
    n, t = 64, 5
    pair = _pair("hm", 0.3, n, 2.0)
    trace = fidelity_trace(pair, t).values
    avg = np.zeros(t + 1, dtype=complex)
    for j in range(n):
        momentum_j = np.exp(2j * np.pi * j * np.arange(n) / n) / np.sqrt(n)
        avg += fidelity_from_state(pair, TorusState(momentum_j), t).values
    np.testing.assert_allclose(trace, avg / n, atol=1e-10)


def _dense_standard_map(n, k):
    # U = F^dag D F V with the DFT matrix F written out entry by entry,
    # D = exp(-i pi m^2 / N) on momentum index m and
    # V = exp(-i (N K / 2pi) cos(2 pi j / N)) on position index j
    idx = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)
    drift = np.exp(-1j * np.pi * idx**2 / n)
    kick = np.exp(-1j * (n * k / (2 * np.pi)) * np.cos(2 * np.pi * idx / n))
    return dft.conj().T @ (drift[:, None] * dft) * kick[None, :]


@pytest.mark.parametrize("k", [0.7, 0.9])
def test_long_trace_series_matches_dense_matrix_powers(k):
    # the rate M(T)/T that the sm border-peak check compares, recomputed
    # from matrix powers of the dense propagators: f(t) = Tr[U1^t^dag U0^t]/N
    n, t_max, dkh = 64, 1000, 2.0
    u0 = _dense_standard_map(n, k)
    u1 = _dense_standard_map(n, k + dkh * 2 * np.pi / n)
    a = b = np.eye(n, dtype=complex)
    dense = np.empty(t_max + 1, dtype=complex)
    dense[0] = 1.0
    for t in range(1, t_max + 1):
        a, b = u0 @ a, u1 @ b
        dense[t] = np.vdot(b, a) / n
    rises = np.diff(np.abs(dense))
    dense_m = 2.0 * rises[rises > 0.0].sum()

    series = fidelity_trace(_pair("sm", k, n, dkh), t_max)
    assert np.abs(series.values - dense).max() < 1e-10
    assert abs(measure(series).value - dense_m) < 1e-9


def test_first_kick_modulus_even_in_perturbation():
    n = 128
    up = fidelity_trace(_pair("sm", 2.5, n, 2.0), 1)
    down = fidelity_trace(_pair("sm", 2.5, n, -2.0), 1)
    assert abs(abs(up.values[1]) - abs(down.values[1])) < 1e-10


def test_trace_guard():
    with pytest.raises(GuardError):
        fidelity_trace(_pair("sm", 1.0, MATRIX_GUARD * 2, 2.0), 3)


def test_save_load_roundtrip(tmp_path):
    series = fidelity_trace(_pair("sm", 2.5, 64, 2.0), 12)
    path = tmp_path / "series.csv"
    save_series(series, path, header="demo run")
    lines = path.read_text().splitlines()
    assert lines[0] == "# demo run"
    assert lines[1] == "# kind=trace"
    assert lines[2] == "t,re_f,im_f,abs_f"
    assert len(lines) == 3 + 13

    back = load_series(path)
    assert back.kind == "trace"
    # repr round-trips doubles exactly
    assert np.array_equal(back.values, series.values)
