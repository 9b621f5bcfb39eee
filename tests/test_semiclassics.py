"""Bessel evaluation and the first-kick decay-rate prediction."""

import math

import numpy as np
import pytest

from torus_echo import semiclassics
from torus_echo.maps import MATRIX_GUARD
from torus_echo.semiclassics import (
    ShortTimeCheck,
    bessel_j0,
    gamma_curve,
    gamma_rate,
    short_time_check,
)

# first three positive zeros of J0, root-found to double precision
J0_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911013)


def _j0_quadrature(x):
    """J0(x) = (1/pi) * integral of cos(x sin t) over [0, pi].

    The integrand is smooth and periodic, so the trapezoid rule converges
    spectrally; 4096 panels leave an error far below 1e-13.
    """
    t = np.linspace(0.0, np.pi, 4097)
    return np.trapezoid(np.cos(x * np.sin(t)), t) / np.pi


def test_j0_reference_values():
    assert bessel_j0(0.0) == 1.0
    assert abs(bessel_j0(2.0) - 0.2238907791412357) < 1e-12
    assert abs(bessel_j0(2.0) - _j0_quadrature(2.0)) < 1e-10


def test_j0_matches_quadrature_across_both_branches():
    # the implementation switches from the power series to the asymptotic
    # form at |x| = 12; sample densely through the seam
    for x in np.arange(0.0, 14.0, 0.37):
        assert abs(bessel_j0(x) - _j0_quadrature(x)) < 1e-10
    for x in (11.999, 12.0, 12.001):
        assert abs(bessel_j0(x) - _j0_quadrature(x)) < 1e-10


def test_j0_matches_quadrature_at_large_arguments():
    # the 4096-panel rule is an 8192-node periodic rule, exact this far out
    for x in (50.5, 123.4, 777.7, 2500.0, 7999.0):
        assert abs(bessel_j0(x) - _j0_quadrature(x)) < 1e-10


def test_j0_is_even():
    for x in (0.3, 2.0, 7.7):
        assert bessel_j0(-x) == bessel_j0(x)


def test_first_zero_by_bisection():
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bessel_j0(lo) * bessel_j0(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert abs(lo - 2.4048256) < 1e-6
    assert abs(lo - J0_ZEROS[0]) < 1e-9


def test_gamma_rate_values():
    assert gamma_rate(0.0) == 0.0
    assert math.copysign(1.0, gamma_rate(0.0)) == 1.0
    assert abs(gamma_rate(2.0) - 1.4966) < 1e-3
    assert gamma_rate(2.0) == pytest.approx(-math.log(0.2238907791412357), abs=1e-10)


def test_gamma_rate_diverges_on_zeros():
    assert math.isinf(gamma_rate(J0_ZEROS[0]))
    assert math.isinf(gamma_rate(-J0_ZEROS[0]))


def test_gamma_rate_is_even_in_dkh():
    # |f(1)| = |J0(dkh)| at either sign, and J0 is even
    grid = np.linspace(0.0, 11.5, 47)
    assert np.array_equal(gamma_curve(-grid), gamma_curve(grid))
    assert gamma_rate(-1.0) == gamma_rate(1.0) > 0.0


def test_gamma_curve_peaks_sit_on_bessel_zeros():
    # the grid stops short of the fourth Bessel zero at 11.79, so the
    # curve has exactly three local maxima, one per zero in J0_ZEROS
    grid = np.arange(0.0, 11.5, 5e-4)
    curve = gamma_curve(grid)
    peaks = [
        grid[i]
        for i in range(1, len(grid) - 1)
        if curve[i] >= curve[i - 1] and curve[i] >= curve[i + 1]
    ]
    assert len(peaks) == 3
    for found, zero in zip(peaks, J0_ZEROS):
        assert abs(found - zero) < 1e-3


def test_short_time_check_zero_perturbation():
    result = short_time_check("sm", 2.5, 0.0, 64)
    assert result.measured == 0.0 and result.predicted == 0.0
    assert not result.diverged


@pytest.mark.parametrize("family,k", [("sm", 2.5), ("hm", 0.3)])
def test_short_time_check_matches_prediction(family, k):
    result = short_time_check(family, k, 2.0, 500)
    assert isinstance(result, ShortTimeCheck)
    assert not result.diverged
    assert result.residual < 0.02
    assert abs(result.measured - result.predicted) == pytest.approx(result.residual)


def test_short_time_check_flags_divergence():
    result = short_time_check("sm", 2.5, J0_ZEROS[0], 500)
    assert result.diverged
    assert math.isnan(result.residual)


def test_short_time_check_reports_rounding_noise_as_unresolved():
    # on a J0 zero |<f(1)>| at N=128 is rounding noise, below the floor that
    # gamma_curve applies to J0, and -ln of it is no measured rate
    result = short_time_check("hm", 0.3, J0_ZEROS[0], 128)
    assert result.measured == math.inf
    assert result.diverged
    assert math.isnan(result.residual)


@pytest.mark.parametrize("dkh", [math.nan, math.inf, -math.inf])
def test_gamma_rejects_non_finite_dkh(dkh):
    with pytest.raises(ValueError, match=f"finite with \\|x\\| <= {MATRIX_GUARD}"):
        gamma_rate(dkh)
    with pytest.raises(ValueError, match=f"finite with \\|x\\| <= {MATRIX_GUARD}"):
        gamma_curve([1.0, dkh])


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, MATRIX_GUARD + 1.0])
def test_j0_refuses_arguments_out_of_range(x):
    with pytest.raises(ValueError, match=f"finite with \\|x\\| <= {MATRIX_GUARD}"):
        bessel_j0(x)
    with pytest.raises(ValueError, match=f"finite with \\|x\\| <= {MATRIX_GUARD}"):
        bessel_j0([0.0, x])


def test_j0_range_ends_at_the_matrix_guard():
    # two Hankel terms leave an error of 9/(128 x^2) times the amplitude
    x = float(MATRIX_GUARD)
    chi = x - 0.25 * math.pi
    hankel = math.sqrt(2.0 / (math.pi * x)) * (math.cos(chi) + math.sin(chi) / (8.0 * x))
    assert abs(bessel_j0(-x) - hankel) < 1e-10
    with pytest.raises(ValueError, match="finite with"):
        gamma_rate(x + 1.0)
    with pytest.raises(ValueError, match="finite with"):
        gamma_curve([1.0, x + 1.0])


def test_short_time_check_refuses_dkh_before_propagating(monkeypatch):
    def propagate(*args):
        raise AssertionError("propagated before the dkh check")

    monkeypatch.setattr(semiclassics, "fidelity_trace", propagate)
    for dkh in (math.nan, -(MATRIX_GUARD + 1.0)):
        with pytest.raises(ValueError, match="finite with"):
            short_time_check("sm", 2.5, dkh, 2000)
