"""Hilbert space on the unit torus: grids, transform, coherent states."""

import numpy as np
import pytest

from torus_echo.torus import (
    HilbertDim,
    PhasePoint,
    TorusState,
    basis_state,
    coherent_state,
    dft,
    idft,
    overlap,
)


def test_hbar_ties_to_dimension_exactly():
    for n in (2, 3, 64, 500, 2048):
        assert HilbertDim(n).hbar * 2.0 * np.pi * n == 1.0


def test_dimension_must_be_at_least_two():
    with pytest.raises(ValueError):
        HilbertDim(1)


def test_position_grid_is_n_over_n():
    dim = HilbertDim(8)
    np.testing.assert_allclose(dim.position_grid(), np.arange(8) / 8, rtol=0, atol=0)


def test_momentum_grid_plain_and_centered():
    dim = HilbertDim(4)
    np.testing.assert_allclose(dim.momentum_grid(), [0.0, 0.25, 0.5, 0.75])
    centered = dim.momentum_grid(centered=True)
    assert sorted(centered) == [-0.5, -0.25, 0.0, 0.25]


def test_phase_point_wraps_into_unit_square():
    pt = PhasePoint(1.2, -0.3)
    assert abs(pt.q - 0.2) < 1e-12
    assert abs(pt.p - 0.7) < 1e-12


def test_state_rejects_unnormalized_amplitudes():
    with pytest.raises(ValueError):
        TorusState(np.array([1.0, 1.0]))


def test_state_rejects_nan_amplitudes():
    with pytest.raises(ValueError):
        TorusState(np.full(4, np.nan, dtype=complex))


def test_dft_of_delta_is_flat():
    out = dft(basis_state(8, 0))
    np.testing.assert_allclose(np.abs(out.amps), np.full(8, 1 / np.sqrt(8)),
                               atol=1e-12)


def test_dft_two_point_transform():
    out = dft(basis_state(2, 0))
    np.testing.assert_allclose(out.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)],
                               atol=1e-12)
    # the k=1 column picks up the alternating sign of the 2-point kernel
    out1 = dft(basis_state(2, 1))
    np.testing.assert_allclose(out1.amps, [1 / np.sqrt(2), -1 / np.sqrt(2)],
                               atol=1e-12)


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return TorusState(amps / np.linalg.norm(amps))


def test_dft_roundtrip_and_norm():
    state = _random_state(64, seed=3)
    back = idft(dft(state))
    np.testing.assert_allclose(back.amps, state.amps, atol=1e-12)
    assert abs(np.linalg.norm(dft(state).amps) - 1.0) < 1e-12


def test_overlap_basics():
    e0, e1 = basis_state(4, 0), basis_state(4, 1)
    assert overlap(e0, e0) == 1.0
    assert overlap(e0, e1) == 0.0


def test_coherent_state_normalized():
    for center in [(0.5, 0.0), (0.3, 0.4), (0.0, 0.99)]:
        state = coherent_state(128, PhasePoint(*center))
        assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-10


def test_coherent_profile_symmetric_about_center():
    amps = coherent_state(128, PhasePoint(0.5, 0.0)).amps
    for m in range(1, 40):
        assert abs(abs(amps[64 + m]) - abs(amps[64 - m])) < 1e-10


def test_momentum_boost_is_alternating_phase():
    # shifting p0 by one half multiplies amp_n by exp(i*pi*n): same profile,
    # alternating sign pattern
    base = coherent_state(128, PhasePoint(0.3, 0.2)).amps
    boosted = coherent_state(128, PhasePoint(0.3, 0.7)).amps
    np.testing.assert_allclose(np.abs(boosted), np.abs(base), atol=1e-12)
    phase = np.exp(1j * np.pi * np.arange(128))
    np.testing.assert_allclose(boosted, base * phase, atol=1e-10)


def test_far_separated_coherent_states_nearly_orthogonal():
    a = coherent_state(512, PhasePoint(0.2, 0.2))
    b = coherent_state(512, PhasePoint(0.8, 0.8))
    assert abs(overlap(a, b)) < 1e-3


def test_position_shift_by_one_site_permutes_profile():
    n = 128
    base = np.abs(coherent_state(n, PhasePoint(0.3, 0.4)).amps)
    shifted = np.abs(coherent_state(n, PhasePoint(0.3 + 1 / n, 0.4)).amps)
    np.testing.assert_allclose(shifted, np.roll(base, 1), atol=1e-8)
