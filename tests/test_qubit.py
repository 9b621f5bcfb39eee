"""Dephasing channel, trace distance, and the sampled measure bound."""

import tracemalloc

import numpy as np
import pytest

from torus_echo import maps, qubit
from torus_echo.echo import FidelitySeries, fidelity_trace
from torus_echo.maps import MapSpec, PerturbedPair
from torus_echo.measures import BLOCK_ROWS
from torus_echo.qubit import (
    _apply_channel,
    _random_pure_pairs,
    blp_sampled,
    bloch_state,
    closed_form,
    trace_distance,
)


def _series(absvals):
    return FidelitySeries(np.asarray(absvals, dtype=complex))


def _blp_loop(series, n_pairs, seed):
    """Sampled measure pair by pair and kick by kick, from the 2x2 matrices."""
    best = 0.0
    for na, nb in _random_pure_pairs(n_pairs, seed):
        rho_a, rho_b = bloch_state(*na), bloch_state(*nb)
        gain = 0.0
        d_prev = trace_distance(rho_a, rho_b)
        for f in series.values[1:]:
            d = trace_distance(_apply_channel(f, rho_a), _apply_channel(f, rho_b))
            if d > d_prev:
                gain += d - d_prev
            d_prev = d
        best = max(best, 2.0 * gain)
    return best


def _random_states(count, seed):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(count, 3))
    vecs *= rng.uniform(0, 1, size=(count, 1)) / np.linalg.norm(vecs, axis=1, keepdims=True)
    return [bloch_state(*v) for v in vecs]


def test_bloch_state_poles_and_equator():
    np.testing.assert_allclose(bloch_state(0, 0, 1), [[1, 0], [0, 0]], atol=1e-15)
    np.testing.assert_allclose(bloch_state(1, 0, 0), [[0.5, 0.5], [0.5, 0.5]],
                               atol=1e-15)
    with pytest.raises(ValueError):
        bloch_state(1.0, 1.0, 0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            bloch_state(bad, 0.0, 0.0)


def test_bloch_states_are_valid_density_matrices():
    for rho in _random_states(20, seed=5):
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_channel_identity_and_full_dephasing():
    rho = bloch_state(0.6, 0.3, 0.5)
    np.testing.assert_allclose(_apply_channel(1.0, rho), rho, atol=1e-15)
    dephased = _apply_channel(0.0, rho)
    assert dephased[0, 1] == 0.0 and dephased[1, 0] == 0.0
    np.testing.assert_allclose(np.diag(dephased), np.diag(rho), atol=1e-15)


def test_channel_halves_equatorial_coherence():
    out = _apply_channel(0.5, bloch_state(1, 0, 0))
    np.testing.assert_allclose(out, [[0.5, 0.25], [0.25, 0.5]], atol=1e-15)


def test_refusals_of_the_channel_and_the_sampled_measure():
    with pytest.raises(ValueError, match="expected a 2x2 density matrix, got shape"):
        _apply_channel(0.5, np.eye(3) / 3)
    with pytest.raises(ValueError, match="n_pairs must be >= 1, got 0"):
        blp_sampled(_series([1.0, 0.5, 0.7]), n_pairs=0)


def test_channel_preserves_trace_and_positivity():
    rng = np.random.default_rng(9)
    for rho in _random_states(30, seed=2):
        f = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        out = _apply_channel(f, rho)
        assert abs(np.trace(out) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out).min() > -1e-12


def test_trace_distance_basic_values():
    zero, one = bloch_state(0, 0, 1), bloch_state(0, 0, -1)
    assert trace_distance(zero, zero) == 0.0
    assert abs(trace_distance(zero, one) - 1.0) < 1e-12


def test_equatorial_pair_distance_equals_fidelity_modulus():
    # for opposite equatorial states the dephased difference is f*sigma
    # restricted to the xy block, whose eigenvalues are +/-|f|
    f = 0.3 * np.exp(1j * np.pi / 5)
    plus, minus = bloch_state(1, 0, 0), bloch_state(-1, 0, 0)
    d = trace_distance(_apply_channel(f, plus), _apply_channel(f, minus))
    assert abs(d - 0.3) < 1e-12


def test_channel_is_a_contraction():
    rng = np.random.default_rng(21)
    states = _random_states(12, seed=13)
    for i in range(0, 12, 2):
        f = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        before = trace_distance(states[i], states[i + 1])
        after = trace_distance(_apply_channel(f, states[i]),
                               _apply_channel(f, states[i + 1]))
        assert after <= before + 1e-12


def test_trace_distance_unitary_invariance():
    rng = np.random.default_rng(31)
    a, b = _random_states(2, seed=17)
    for _ in range(5):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(m)
        rotated = trace_distance(u @ a @ u.conj().T, u @ b @ u.conj().T)
        assert abs(rotated - trace_distance(a, b)) < 1e-12


def test_random_pairs_are_antipodal_unit_vectors():
    pairs = _random_pure_pairs(40, seed=3)
    assert pairs.shape == (40, 2, 3)
    np.testing.assert_allclose(np.linalg.norm(pairs, axis=2), 1.0, atol=1e-12)
    np.testing.assert_allclose(pairs[:, 0], -pairs[:, 1], atol=0)


def test_sampled_measure_on_constant_series_is_zero():
    assert blp_sampled(_series([1.0, 0.7, 0.7, 0.7]), n_pairs=20, seed=1) == 0.0


def test_sampled_measure_converges_from_below():
    series = _series([1.0, 0.5, 0.8])
    exact = closed_form(series)
    assert abs(exact - 0.6) < 1e-12
    few = blp_sampled(series, n_pairs=50, seed=7)
    many = blp_sampled(series, n_pairs=500, seed=7)
    # the first 50 axes of the seed-7 stream are a prefix of the 500
    assert few <= many <= exact + 1e-9
    assert many >= 0.98 * exact


def test_sampled_measure_never_exceeds_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(5):
        series = _series(rng.uniform(0, 1, size=12))
        assert blp_sampled(series, n_pairs=60, seed=2) <= closed_form(series) + 1e-9


def _trace_series(k, t_max):
    return fidelity_trace(PerturbedPair.from_dkh(MapSpec("sm", 64, k), 1.0), t_max)


@pytest.mark.parametrize("case", ["regular", "chaotic", "complex-phase", "first-below-one"])
@pytest.mark.parametrize("n_pairs,seed", [(60, 7), (1, 1)])
def test_sampled_measure_matches_pair_loop(case, n_pairs, seed):
    rng = np.random.default_rng(11)
    if case == "regular":
        series = _trace_series(0.5, 120)
    elif case == "chaotic":
        series = _trace_series(2.5, 120)
    elif case == "complex-phase":
        phases = np.exp(2j * np.pi * rng.uniform(size=80))
        series = FidelitySeries(rng.uniform(0, 1, size=80) * phases)
    else:
        # row 0 is the undephased pair, whatever the stored f(0) says
        series = _series(np.r_[0.2, 0.9, rng.uniform(0, 1, size=60)])
    assert blp_sampled(series, n_pairs, seed) == pytest.approx(
        _blp_loop(series, n_pairs, seed), abs=1e-12)


def test_sampled_measure_memory_does_not_grow_with_horizon():
    n_pairs = 500
    peaks = {}
    for t_max in (200, 5000):
        series = _series(np.random.default_rng(t_max).uniform(0, 1, size=t_max + 1))
        tracemalloc.start()
        try:
            blp_sampled(series, n_pairs=n_pairs, seed=0)
            peaks[t_max] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a pairs x T float buffer at T=5000 would be 20 MB
    assert peaks[5000] - peaks[200] < n_pairs * 5000 * 8 / 8


def _blp_per_kick(series, n_pairs, seed):
    """The sampled measure from one row of pair distances per kick, each rise
    added to the running total as its kick arrives."""
    nx, ny, nz = _random_pure_pairs(n_pairs, seed)[:, 0].T
    nxy2, nz2 = nx * nx + ny * ny, nz * nz
    prev, total = np.sqrt(nxy2 + nz2), 0.0
    for g in np.abs(series.values[1:]) ** 2:
        row = np.sqrt(nz2 + g * nxy2)
        total = total + np.maximum(row - prev, 0.0)
        prev = row
    return float(np.max(2.0 * total))


# T kicks end short of a block edge, on it or one kick past it
@pytest.mark.parametrize("t_max", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 1])
def test_sampled_measure_in_blocks_of_kicks_has_the_per_kick_bits(t_max):
    rng = np.random.default_rng(t_max)
    series = FidelitySeries(np.r_[1.0, rng.uniform(0, 1, t_max) * np.exp(2j * rng.random(t_max))])
    assert blp_sampled(series, 300, 5) == _blp_per_kick(series, 300, 5)


def test_sampled_measure_runs_in_blocks_of_the_budget(monkeypatch):
    shapes, reduce = [], qubit.measure_rows

    def spy(blocks):
        def seen():
            for block in blocks:
                shapes.append(np.shape(block))
                yield block
        return reduce(seen())

    monkeypatch.setattr(qubit, "measure_rows", spy)
    series = _trace_series(2.5, 2 * BLOCK_ROWS + 5)
    expected = blp_sampled(series, n_pairs=3, seed=4)
    # the start row, then blocks of at most BLOCK_ROWS kicks x pairs
    assert shapes == [(1, 3), (BLOCK_ROWS, 3), (BLOCK_ROWS, 3), (5, 3)]
    shapes.clear()
    monkeypatch.setattr(maps, "BLOCK_ELEMENTS", 7)
    assert blp_sampled(series, n_pairs=3, seed=4) == expected
    assert all(rows * pairs <= 7 for rows, pairs in shapes)
    assert sum(rows for rows, _ in shapes) == 2 * BLOCK_ROWS + 6
