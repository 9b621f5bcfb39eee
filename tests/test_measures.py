"""Measure extraction from fidelity series."""

import math

import numpy as np
import pytest

from torus_echo.echo import FidelitySeries, fidelity_trace
from torus_echo.maps import MapSpec, PerturbedPair
from torus_echo.measures import measure, measure_value
from torus_echo.qubit import blp_sampled


def _series(absvals):
    return FidelitySeries(np.asarray(absvals, dtype=complex))


def _extrema_value(y):
    """Independent formulation: 2 * sum of (local max - preceding local min).

    Plateaus are collapsed first so extrema alternate strictly; each ascending
    leg of the collapsed series then runs from one local minimum to the next
    local maximum.
    """
    y = np.asarray(y, dtype=float)
    collapsed = [y[0]]
    for v in y[1:]:
        if v != collapsed[-1]:
            collapsed.append(v)
    total = 0.0
    i = 0
    while i < len(collapsed) - 1:
        if collapsed[i + 1] > collapsed[i]:
            j = i
            while j < len(collapsed) - 1 and collapsed[j + 1] > collapsed[j]:
                j += 1
            total += collapsed[j] - collapsed[i]
            i = j
        else:
            i += 1
    return 2.0 * total


def test_hand_example():
    vals = np.array([1.0, 0.5, 0.8, 0.3, 0.6])
    assert abs(measure_value(vals) - 1.2) < 1e-12


def test_monotone_series_has_zero_measure():
    assert measure_value(np.array([1.0, 0.8, 0.5, 0.5, 0.1])) == 0.0


def test_result_carries_labels_and_segment_sum():
    pair = PerturbedPair.from_dkh(MapSpec(family="sm", n=64, k=2.5), 2.0)
    series = fidelity_trace(pair, 40)
    result = measure(series)
    # a bare series carries no map coordinates; scans.sweep attaches them
    assert math.isnan(result.k) and math.isnan(result.dkh)
    assert result.value == measure_value(np.abs(series.values))


def _prefix(absvals):
    """Measure of every prefix f(0..t), t = 0..T."""
    return np.array([measure_value(absvals[: t + 1]) for t in range(len(absvals))])


def test_prefix_values():
    np.testing.assert_allclose(_prefix(np.array([1.0, 0.5, 0.8, 0.3, 0.6])),
                               [0, 0, 0.6, 0.6, 1.2], atol=1e-12)


def test_prefix_is_nondecreasing_and_ends_at_measure():
    rng = np.random.default_rng(8)
    series = _series(rng.uniform(0, 1, size=200))
    prefix = _prefix(np.abs(series.values))
    assert np.all(np.diff(prefix) >= 0)
    assert abs(prefix[-1] - measure(series).value) < 1e-12
    assert prefix[0] == 0.0


def test_constant_series_measures_zero():
    assert measure(_series(np.ones(10))).value == 0.0


def test_increment_and_extrema_formulations_agree():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        length = rng.integers(2, 40)
        y = rng.uniform(0, 1, size=length)
        if rng.uniform() < 0.3:
            # inject a plateau, which must contribute nothing
            j = int(rng.integers(1, length))
            y[j] = y[j - 1]
        assert abs(measure_value(y) - _extrema_value(y)) < 1e-12


def test_measure_dominates_sampled_estimate():
    rng = np.random.default_rng(77)
    series = _series(rng.uniform(0, 1, size=30))
    assert measure(series).value >= blp_sampled(series, n_pairs=40, seed=3) - 1e-9


def test_chaotic_series_growth_turns_linear():
    # once |f| saturates at its fluctuation floor, rises accumulate at a
    # steady rate; a line fits the late prefix to within a few percent
    pair = PerturbedPair.from_dkh(MapSpec(family="sm", n=256, k=10.0), 2.0)
    absvals = np.abs(fidelity_trace(pair, 2000).values)
    prefix = np.concatenate([[0.0], 2.0 * np.cumsum(np.maximum(np.diff(absvals), 0.0))])
    assert prefix[-1] == pytest.approx(measure_value(absvals), rel=1e-12)
    window = prefix[500:2001]
    t = np.arange(500, 2001, dtype=float)
    slope, intercept = np.polyfit(t, window, 1)
    residual = np.abs(window - (slope * t + intercept)).max()
    assert residual < 0.05 * (window.max() - window.min())
