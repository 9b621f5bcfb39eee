"""Hilbert space on the unit torus: phase points, states, coherent states."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torus_echo.maps import MapSpec
from torus_echo.torus import PhasePoint, TorusState, coherent_state


def test_phase_point_wraps_into_unit_square():
    pt = PhasePoint(1.2, -0.3)
    assert abs(pt.q - 0.2) < 1e-12
    assert abs(pt.p - 0.7) < 1e-12


# x % 1.0 alone rounds a negative x above about -1.1e-16 up to 1.0
@settings(derandomize=True, max_examples=200, deadline=None)
@example(q=-1e-17, p=-1e-17)
@example(q=-5e-324, p=1.0)
@given(q=st.floats(allow_nan=False, allow_infinity=False),
       p=st.floats(allow_nan=False, allow_infinity=False))
def test_phase_point_coordinates_lie_in_the_unit_interval(q, p):
    pt = PhasePoint(q, p)
    assert 0.0 <= pt.q < 1.0 and 0.0 <= pt.p < 1.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_phase_point_refuses_coordinates_that_are_not_finite(bad):
    # x % 1.0 of an inf or a nan is nan, which reaches coherent_state
    for q, p in ((bad, 0.2), (0.2, bad)):
        with pytest.raises(ValueError, match="must be finite"):
            PhasePoint(q, p)


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


def _match_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - c b| for the global phase c that best aligns b with a."""
    overlap = np.vdot(b, a)
    return np.abs(a - overlap / abs(overlap) * b).max()


# every image the sum drops weighs below 2**-53, so parity (q, p) -> (-q, -p)
# reflects the index n -> -n mod N and, at even N, the half shift
# (q, p) -> (q + 1/2, p) rolls it by N/2, both up to a global phase and
# rounding, down to N = 2
@pytest.mark.parametrize("n", range(2, 17))
def test_coherent_states_carry_parity_and_the_half_shift_to_rounding(n):
    rng = np.random.default_rng(n)
    for q, p in rng.random((50, 2)):
        amps = coherent_state(n, PhasePoint(q, p)).amps
        reflected = coherent_state(n, PhasePoint(-q, -p)).amps
        assert _match_up_to_phase(reflected, np.roll(amps[::-1], 1)) <= 1e-14
        if n % 2 == 0:
            shifted = coherent_state(n, PhasePoint(q + 0.5, p)).amps
            assert _match_up_to_phase(shifted, np.roll(amps, n // 2)) <= 1e-14


# from N = 12 on the sum keeps the three images m = -1, 0, 1 in this order,
# so the states of the benchmark and the README keep their bits; one
# DOT_SLICE holds the whole norm at these N
@pytest.mark.parametrize("n", [12, 64, 256, 2000])
def test_coherent_state_is_the_three_image_sum_from_n_12(n):
    q = np.arange(n) / n
    rng = np.random.default_rng(n)
    for q0, p0 in [(0.0, 0.0), (0.5, 0.5), *rng.random((50, 2))]:
        center = PhasePoint(q0, p0)
        amps = np.zeros(n, dtype=complex)
        for m in (-1, 0, 1):
            amps += (np.exp(-math.pi * n * (q - center.q - m) ** 2)
                     * np.exp(2j * math.pi * n * center.p * (q - m)))
        amps /= np.sqrt(amps.real.dot(amps.real) + amps.imag.dot(amps.imag))
        assert np.array_equal(coherent_state(n, center).amps, amps)


def test_state_freezes_a_copy_of_the_callers_array():
    amps = np.array([0.6, 0.8j])
    state = TorusState(amps)
    assert amps.flags.writeable and not state.amps.flags.writeable
    amps[0] = 1.0
    assert state.amps.tolist() == [0.6, 0.8j]
