"""Quantum kicked maps: propagators, perturbation pairs, echo operator."""

import re

import numpy as np
import pytest

from torus_echo import classical, echo, maps, scans
from torus_echo.classical import classical_nm_grid
from torus_echo.echo import FidelitySeries, fidelity_pure, fidelity_trace
from torus_echo.maps import (
    MATRIX_GUARD,
    GuardError,
    MapSpec,
    PerturbedPair,
    apply_map,
    build_matrix,
    check_map,
    drift_phase,
)
from torus_echo.qubit import blp_sampled
from torus_echo.scans import SweepSpec, line_scan, scan_phase_space, sweep
from torus_echo.torus import PhasePoint, TorusState


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


@pytest.mark.parametrize("family,k,k2", [
    ("xx", 1.0, None), ("sm", 1.0, 5.0), ("sm", -1.0, None), ("sm", float("nan"), None),
    ("hm", -0.5, None), ("hm", 0.5, -1.0), ("hm", 0.5, float("inf")),
])
def test_quantum_and_classical_maps_share_one_kick_rule(family, k, k2):
    with pytest.raises(ValueError) as quantum:
        MapSpec(family=family, n=8, k=k, k2=k2)
    with pytest.raises(ValueError) as plane:
        classical.iterate(family, k, k2, [0.1], [0.2], 1)
    # the quantum message adds the scaled form, ", with N*K finite; got ... at N=8"
    assert str(quantum.value).startswith(str(plane.value).split(", got")[0])


def test_only_the_quantum_rule_scales_the_kick_by_n():
    with pytest.raises(ValueError, match=r"N\*K finite"):
        MapSpec(family="sm", n=8, k=1e308)
    assert classical.iterate("sm", 1e308, None, [0.1], [0.2], 1)[0].shape == (2, 1)


def test_harper_momentum_kick_defaults_to_k():
    spec = MapSpec(family="hm", n=8, k=0.3)
    assert spec.k2 == 0.3
    assert MapSpec(family="hm", n=8, k=0.3, k2=0.7).k2 == 0.7


def test_check_map_returns_the_k2_a_map_uses():
    assert check_map("sm", 1.0) is None and MapSpec("sm", 8, 1.0).k2 is None
    assert check_map("hm", 0.3) == 0.3
    assert check_map("hm", 0.3, 0.7, delta_k=0.1, n=8) == 0.7


_PAIR = PerturbedPair.from_dkh(MapSpec("sm", 16, 0.9), 2.0)
_SERIES = FidelitySeries([1.0, 0.5, 0.7])
_CENTER = PhasePoint(0.25, 0.5)


def _sweep_spec(**changes):
    return SweepSpec(**{**dict(family="sm", k_values=(0.9,), dkh_values=(2.0,), n=16,
                               t_max=3), **changes})


# every count of the library goes through maps.check_count: an integer that
# is not a bool, at or above its minimum, refused before anything propagates
@pytest.mark.parametrize("call,message", [
    (lambda: MapSpec("sm", 16.0, 0.5), "dimension must be an integer, got 16.0"),
    (lambda: MapSpec("sm", 16.5, 0.5), "dimension must be an integer, got 16.5"),
    (lambda: MapSpec("hm", True, 0.5), "dimension must be an integer, got True"),
    (lambda: MapSpec("sm", 1, 0.5), "dimension must be >= 2, got 1"),
    (lambda: fidelity_trace(_PAIR, True), "t_max must be an integer, got True"),
    (lambda: fidelity_trace(_PAIR, 2.0), "t_max must be an integer, got 2.0"),
    (lambda: fidelity_trace(_PAIR, 0), "t_max must be >= 1, got 0"),
    (lambda: fidelity_pure(_PAIR, _CENTER, 2.5), "t_max must be an integer, got 2.5"),
    (lambda: scan_phase_space("sm", 0.9, 2.0, 16, 3, 2.0),
     "grid side must be an integer, got 2.0"),
    (lambda: scan_phase_space("sm", 0.9, 2.0, 16, True, 2), "t_max must be an integer, got True"),
    (lambda: scan_phase_space("sm", 0.9, 2.0, 16, 3, 0), "grid side must be >= 1, got 0"),
    (lambda: line_scan("hm", 0.2, 2.0, 16, 2.0, [_CENTER]), "t_max must be an integer, got 2.0"),
    (lambda: _sweep_spec(t_max=2.5), "t_max must be an integer, got 2.5"),
    (lambda: _sweep_spec(kind="pure-average", s=2.0), "grid side must be an integer, got 2.0"),
    (lambda: _sweep_spec(kind="pure-average", s=0), "grid side must be >= 1, got 0"),
    (lambda: _sweep_spec(s=-7), "grid side must be >= 1, got -7"),
    (lambda: _sweep_spec(s=2.5), "grid side must be an integer, got 2.5"),
    (lambda: blp_sampled(_SERIES, n_pairs=2.5), "n_pairs must be an integer, got 2.5"),
    (lambda: blp_sampled(_SERIES, n_pairs=True), "n_pairs must be an integer, got True"),
    (lambda: blp_sampled(_SERIES, n_pairs=0), "n_pairs must be >= 1, got 0"),
], ids=["mapspec-n-float", "mapspec-n-fraction", "mapspec-n-bool", "mapspec-n-1",
        "trace-t-bool", "trace-t-float", "trace-t-0", "pure-t-fraction", "scan-s-float",
        "scan-t-bool", "scan-s-0", "line-t-float", "sweep-t-fraction", "average-s-float",
        "average-s-0", "sweep-s-negative", "sweep-s-fraction", "blp-pairs-fraction",
        "blp-pairs-bool", "blp-pairs-0"])
def test_every_count_has_one_rule(monkeypatch, call, message):
    def propagate(*args):
        raise AssertionError("propagated before the count check")

    monkeypatch.setattr(echo, "_overlaps", propagate)
    monkeypatch.setattr(scans, "_overlaps", propagate)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_fidelity_pure_refuses_t_before_building_its_state(monkeypatch):
    calls = []
    for name in ("coherent_state", "_overlaps"):
        monkeypatch.setattr(echo, name, lambda *args, name=name: calls.append(name))
    with pytest.raises(ValueError, match="^t_max must be >= 1, got 0$"):
        fidelity_pure(_PAIR, _CENTER, 0)
    assert calls == []


def test_numpy_integer_counts_are_counts():
    with pytest.raises(ValueError, match="^dimension must be >= 2, got 1$"):
        MapSpec("sm", np.int64(1), 0.5)
    n, t, s = np.int64(16), np.int64(3), np.int64(2)
    pair = PerturbedPair.from_dkh(MapSpec("sm", n, 0.9), 2.0)
    assert pair.n == 16
    assert fidelity_trace(pair, t).values.tobytes() == fidelity_trace(_PAIR, 3).values.tobytes()
    assert fidelity_pure(pair, _CENTER, t).values.tobytes() == \
        fidelity_pure(_PAIR, _CENTER, 3).values.tobytes()
    assert np.array_equal(scan_phase_space("sm", 0.9, 2.0, n, t, s).values,
                          scan_phase_space("sm", 0.9, 2.0, 16, 3, 2).values)
    assert sweep(_sweep_spec(n=n, t_max=t, kind="pure-average", s=s)) == \
        sweep(_sweep_spec(kind="pure-average", s=2))
    assert blp_sampled(_SERIES, n_pairs=np.int32(5)) == blp_sampled(_SERIES, n_pairs=5)
    assert classical.iterate("sm", 1.0, None, [0.1], [0.2], np.int64(2))[0].shape == (3, 1)


def test_dkh_unit_per_family():
    assert MapSpec(family="sm", n=64, k=1.0).dkh_unit == 2 * np.pi / 64
    assert MapSpec(family="hm", n=64, k=0.2).dkh_unit == 1 / 64


def test_perturbation_placement():
    sm = PerturbedPair.from_base(MapSpec(family="sm", n=32, k=1.0), 0.05)
    assert sm.u1.k == 1.05 and sm.u0.k == 1.0
    hm = PerturbedPair.from_base(MapSpec(family="hm", n=32, k=0.2), 0.05)
    assert hm.u1.k == 0.2 and hm.u1.k2 == 0.25

    pair = PerturbedPair.from_dkh(MapSpec(family="sm", n=32, k=1.0), 2.0)
    assert abs((pair.u1.k - pair.u0.k) - 2.0 * 2 * np.pi / 32) < 1e-15


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


def test_apply_map_refuses_a_state_of_another_dimension():
    with pytest.raises(ValueError, match="state dimension 8 does not match spec 16"):
        apply_map(MapSpec(family="sm", n=16, k=1.0), _momentum_state(8, 3))


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
