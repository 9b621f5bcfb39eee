"""Hilbert space on the unit torus: phase points, states, coherent states."""

import numpy as np
import pytest

from torus_echo.maps import MapSpec
from torus_echo.torus import PhasePoint, TorusState, coherent_state


def test_phase_point_wraps_into_unit_square():
    pt = PhasePoint(1.2, -0.3)
    assert abs(pt.q - 0.2) < 1e-12
    assert abs(pt.p - 0.7) < 1e-12


def test_dimension_must_be_at_least_two():
    # the dimension N is fixed where a map is specified
    for n in (1, 0):
        with pytest.raises(ValueError):
            MapSpec(family="sm", n=n, k=1.0)


def test_state_rejects_unnormalized_amplitudes():
    with pytest.raises(ValueError):
        TorusState(np.array([1.0, 1.0]))


def test_state_rejects_nan_amplitudes():
    with pytest.raises(ValueError):
        TorusState(np.full(4, np.nan, dtype=complex))


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
    assert abs(np.vdot(a.amps, b.amps)) < 1e-3


def test_position_shift_by_one_site_permutes_profile():
    n = 128
    base = np.abs(coherent_state(n, PhasePoint(0.3, 0.4)).amps)
    shifted = np.abs(coherent_state(n, PhasePoint(0.3 + 1 / n, 0.4)).amps)
    np.testing.assert_allclose(shifted, np.roll(base, 1), atol=1e-8)
