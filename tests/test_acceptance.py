"""Acceptance gate: eleven numbered checks, one per headline claim.

Each test prints a single PASS/FAIL line with the measured numbers before
asserting, so `pytest -v -s tests/test_acceptance.py` doubles as a status
report.  Check 3 decides on the sweep rates together with their standard
errors and asks the border cell to rise above both the regular cell K=0.5
and the chaotic cells; at its settings the border does not rise resolvably
above K=0.5, so it fails.  Check 8 tells diffusive from bounded momentum
transport by how D changes with the horizon.  The README records the
expected outcome.
"""

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from torus_echo.classical import classical_nm_grid, diffusion_coefficient
from torus_echo.echo import fidelity_pure, fidelity_trace, load_series, save_series
from torus_echo.maps import MapSpec, PerturbedPair, apply_map, build_matrix
from torus_echo.measures import measure, measure_value
from torus_echo.qubit import blp_sampled, bloch_state, closed_form, trace_distance
from torus_echo.scans import SweepSpec, line_scan, sweep
from torus_echo.torus import PhasePoint, TorusState

WORKERS = min(4, os.cpu_count() or 1)

SM_GRID = (0.5, 0.7, 0.9, 0.98, 1.1, 1.5, 2.5)
HM_GRID = (0.05, 0.1, 0.15, 0.2, 0.3, 0.5)

# Both families share one matched physical perturbation for the size and
# classical checks: the strength that makes dkh = 2 at N = 512.
DELTA_K = 2.0 * (2.0 * math.pi / 512)

# Check 3's error model.  The rises of |f| are grouped into RATE_BLOCKS runs
# of T / RATE_BLOCKS kicks (each rise segment by the kick at which it ends);
# the scatter of the block rates gives the standard error of M(T)/T.  Four
# blocks of 250 kicks at T = 1000 each span about one Heisenberg time N = 256.
# Each error is itself estimated from 4 blocks, i.e. with 3 degrees of
# freedom, so it is uncertain by about 40%, and the first block holds the
# initial decay, so the blocks are not identically distributed.  With 3 dof
# a band of RATE_SIGMAS = 2 estimated errors covers about 86% of a Student t
# (91% at the 6 dof of a Welch difference of two equal errors), not the 95%
# of a known sigma.  Rates closer than that are not told apart.
RATE_BLOCKS = 4
RATE_SIGMAS = 2.0
SM_BORDER = (0.9, 1.1)
# The most regular cell of SM_GRID, which the border peak must exceed.
SM_REGULAR = 0.5

# Greene's critical kick strength of the standard map, where the last
# rotational invariant circle breaks.
K_CRITICAL = 0.9716


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {num:02d} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _argmax_rate(results, t_max):
    rates = {r.k: r.value / t_max for r in results}
    best = max(rates, key=rates.get)
    return best, rates


def test_01_first_kick_bessel_identity():
    j0_abs = {1.0: 0.7651976865579666, 2.0: 0.22389077914123567,
              3.0: 0.26005195490193334}
    worst = 0.0
    for family, k in (("sm", 2.5), ("hm", 0.3)):
        for dkh, ref in j0_abs.items():
            pair = PerturbedPair.from_dkh(MapSpec(family, 500, k), dkh)
            f1 = fidelity_trace(pair, 1).values[1]
            worst = max(worst, abs(abs(f1) - ref))
    report(1, "first-kick Bessel identity", worst < 0.01,
           f"max | |f(1)| - |J0| | = {worst:.2e} over sm/hm, dkh in 1..3")


def test_02_rate_divergence_then_revival():
    pair = PerturbedPair.from_dkh(MapSpec("sm", 500, 2.5), 2.405)
    absvals = np.abs(fidelity_trace(pair, 20).values)
    f1 = float(absvals[1])
    revival = float(absvals[2:].max())
    ok = f1 < 0.02 and revival > 3.0 * f1
    report(2, "collapse and revival at the Bessel zero", ok,
           f"|f(1)|={f1:.2e}, max |f(2..20)|={revival:.2e}")


def _abs_trace(k):
    """|f(t)| of check 3's sm trace cell at kick strength k."""
    pair = PerturbedPair.from_dkh(MapSpec("sm", 256, k), 2.0)
    return np.abs(fidelity_trace(pair, 1000).values)


def _rate_error(absvals):
    """Standard error of M(T)/T from the scatter of its block rates.

    A rise segment is a maximal run of increases of |f|, from index start to
    index end; its rise counts in the block of the kick at which it ends.
    """
    t_max = len(absvals) - 1
    edges = np.diff(np.r_[0, np.diff(absvals) > 0.0, 0])
    start, end = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    block_sums = np.zeros(RATE_BLOCKS)
    np.add.at(block_sums, (end - 1) * RATE_BLOCKS // t_max,
              2.0 * (absvals[end] - absvals[start]))
    block_rates = block_sums * RATE_BLOCKS / t_max
    return float(block_rates.std(ddof=1) / math.sqrt(RATE_BLOCKS))


def _border_peak(rates, errors, border, regular):
    """Check 3's decision on rates with standard errors, keyed by K.

    The best cell inside the border band must lie within RATE_SIGMAS
    combined errors of the grid maximum, and the regular cell and every cell
    above the band must lie below that border cell by more than the same
    allowance.  Returns (ok, grid argmax, border cell, gap, allowance,
    margins), where margins maps each compared K to (margin, allowance).
    """
    def allowance(a, b):
        return RATE_SIGMAS * math.hypot(errors[a], errors[b])

    top = max(rates, key=rates.get)
    peak = max((k for k in rates if border[0] <= k <= border[1]), key=rates.get)
    gap = rates[top] - rates[peak]
    margins = {k: (rates[peak] - rates[k], allowance(peak, k))
               for k in rates if k == regular or k > border[1]}
    ok = gap <= allowance(top, peak) and all(m > a for m, a in margins.values())
    return ok, top, peak, gap, allowance(top, peak), margins


def test_03_sm_trace_peak_near_border():
    # each cell's series gives both its rate, equal to its sweep value / T to
    # the last bit, and the rate's error
    with ProcessPoolExecutor(WORKERS) as pool:
        absvals = dict(zip(SM_GRID, pool.map(_abs_trace, SM_GRID)))
    rates = {k: measure_value(a) / (len(a) - 1) for k, a in absvals.items()}
    errors = {k: _rate_error(a) for k, a in absvals.items()}
    ok, top, peak, gap, allow, margins = _border_peak(
        rates, errors, SM_BORDER, SM_REGULAR)
    listing = ", ".join(f"K={k:g}: {rates[k]:.5f}+-{errors[k]:.5f}" for k in SM_GRID)
    below = ", ".join(f"K={k:g} by {m:.5f} (> {a:.5f})" for k, (m, a) in margins.items())
    report(3, "sm trace-measure peak", ok,
           f"argmax K={top:g}, border peak K={peak:g} within {gap:.5f} "
           f"(<= {allow:.5f}); below it {below} ({listing})")


def test_border_peak_rule_rejects_off_border_peaks():
    # check 3's decision on synthetic rates: a border peak resolved above the
    # regular and the chaotic cells passes; a resolved peak off the border, a
    # border cell the errors cannot lift above the regular cell, a sweep that
    # only falls with K, and a flat grid fail
    errors = dict.fromkeys(SM_GRID, 0.0005)
    near = dict(zip(SM_GRID, (0.0220, 0.0250, 0.0246, 0.0225, 0.0222, 0.0157, 0.0103)))
    low = {**near, 0.5: 0.0300}
    unresolved = {**near, 0.5: 0.0240}
    high = {**near, 1.5: 0.0250}
    falling = dict(zip(SM_GRID, (0.0260, 0.0255, 0.0250, 0.0240, 0.0230, 0.0157, 0.0103)))
    flat = dict.fromkeys(SM_GRID, 0.0200)
    assert _border_peak(near, errors, SM_BORDER, SM_REGULAR)[0]
    for rates in (low, unresolved, high, falling, flat):
        assert not _border_peak(rates, errors, SM_BORDER, SM_REGULAR)[0]


def test_04_hm_trace_peak_near_border():
    spec = SweepSpec(family="hm", k_values=HM_GRID, dkh_values=(2.0,),
                     n=256, t_max=1000, kind="trace", s=16)
    best, rates = _argmax_rate(sweep(spec, workers=WORKERS), spec.t_max)
    ok = 0.15 <= best <= 0.3
    listing = ", ".join(f"K={k:g}: {rates[k]:.4f}" for k in HM_GRID)
    report(4, "hm trace-measure peak", ok, f"argmax K={best:g} ({listing})")


def test_05_grid_averaged_pure_measure_agrees():
    sm = SweepSpec(family="sm", k_values=SM_GRID, dkh_values=(2.0,),
                   n=256, t_max=500, kind="pure-average", s=16)
    hm = SweepSpec(family="hm", k_values=HM_GRID, dkh_values=(2.0,),
                   n=256, t_max=500, kind="pure-average", s=16)
    best_sm, _ = _argmax_rate(sweep(sm, workers=WORKERS), sm.t_max)
    best_hm, _ = _argmax_rate(sweep(hm, workers=WORKERS), hm.t_max)
    ok = (0.9 <= best_sm <= 1.1) and (0.15 <= best_hm <= 0.3)
    report(5, "grid-averaged pure measure", ok,
           f"sm argmax K={best_sm:g}, hm argmax K={best_hm:g}")


def test_06_border_enhancement_on_the_diagonal():
    points = [PhasePoint(v, v) for v in np.linspace(0.0, 1.0, 41)]
    vals = line_scan("hm", 0.1, 2.0, 2000, 1000, points)
    border = float(vals[11])   # q = p = 0.275
    sea = float(vals[2])       # q = p = 0.05
    center = float(vals[20])   # q = p = 0.5, elliptic fixed point
    ok = border >= 3.0 * sea and center < vals[19] and center < vals[21]
    report(6, "border enhancement", ok,
           f"value(0.275)={border:.2f}, value(0.05)={sea:.2f} "
           f"(ratio {border / sea:.1f}), center {center:.2f} vs "
           f"neighbors {vals[19]:.2f}/{vals[21]:.2f}")


def test_07_measure_scaling_with_system_size():
    vals = {}
    for n in (512, 2048):
        pair = PerturbedPair.from_base(MapSpec("sm", n, 2.5), DELTA_K)
        sea = measure(fidelity_pure(pair, PhasePoint(0.2, 0.2), 2000)).value
        island = measure(fidelity_pure(pair, PhasePoint(0.516, 0.0), 2000)).value
        vals[n] = (sea, island)
    sea_ratio = vals[512][0] / vals[2048][0]
    island_ratio = vals[2048][1] / vals[512][1]
    ok = 1.6 <= sea_ratio <= 2.9 and 1.4 <= island_ratio <= 2.9
    report(7, "size scaling of the measure", ok,
           f"sea M(512)/M(2048)={sea_ratio:.3f}, "
           f"island M(2048)/M(512)={island_ratio:.3f}")


def test_08_classical_diffusion_transition():
    # D = <dp^2>/t.  Bounded motion keeps <dp^2> finite, so quadrupling the
    # horizon divides D by four; diffusion keeps D constant.  The ratio
    # D(16000)/D(4000) therefore tends to 1/4 below the border and to 1
    # above it, and 0.5 splits the two.
    d = {(k, h): diffusion_coefficient("sm", k, horizon=h, n_orbits=4000, seed=0)
         for k in (0.5, 1.2) for h in (4000, 16000)}
    ratio = {k: d[k, 16000] / d[k, 4000] for k in (0.5, 1.2)}
    ok = d[0.5, 16000] < 1e-3 and ratio[0.5] < 0.5 and ratio[1.2] > 0.5
    # near the border cantori throttle transport: D_I ~ 0.3 (K - Kc)^3 in
    # action units (Chirikov 1979), and D_p = D_I / 4pi^2 on the unit torus
    chirikov = 0.3 * (1.2 - K_CRITICAL) ** 3 / (4.0 * math.pi**2)
    listing = "; ".join(
        f"K={k:g}: D(4000)={d[k, 4000]:.3e}, D(16000)={d[k, 16000]:.3e}, "
        f"ratio {ratio[k]:.3f}" for k in (0.5, 1.2))
    report(8, "diffusion transition", ok,
           f"D(0.5)={d[0.5, 16000]:.3e} (< 1e-3 required), ratio < 0.5 at "
           f"K=0.5 and > 0.5 at K=1.2 required ({listing}); D(1.2)="
           f"{d[1.2, 16000]:.3e} beside Chirikov 0.3(K-Kc)^3/4pi^2={chirikov:.3e}")


def test_09_classical_measure_peak():
    grid = (0.5, 0.8, 0.98, 1.2, 2.0)
    rates = {k: classical_nm_grid("sm", k, None, DELTA_K, 32, 20000) / 20000
             for k in grid}
    best = max(rates, key=rates.get)
    ok = 0.8 <= best <= 1.2
    listing = ", ".join(f"K={k:g}: {v:.2e}" for k, v in rates.items())
    report(9, "classical measure peak", ok, f"argmax K={best:g} ({listing})")


def test_10_sampled_blp_matches_closed_form(tmp_path):
    pair = PerturbedPair.from_dkh(MapSpec("sm", 256, 2.5), 2.0)
    path = tmp_path / "stored_series.csv"
    save_series(fidelity_trace(pair, 500), path, header="acceptance series")
    loaded = load_series(path)
    closed = closed_form(loaded)
    sampled = blp_sampled(loaded, n_pairs=500, seed=7)
    ok = sampled >= 0.98 * closed and sampled <= closed + 1e-9
    report(10, "sampled BLP vs closed form", ok,
           f"sampled={sampled:.6f}, closed={closed:.6f} "
           f"(ratio {sampled / closed:.4f})")


def test_11_invariant_bundle_is_fast():
    start = time.monotonic()

    for family, k in (("sm", 1.3), ("hm", 0.37)):
        u = build_matrix(MapSpec(family, 128, k))
        assert np.max(np.abs(u.conj().T @ u - np.eye(128))) < 1e-10

    rng = np.random.default_rng(5)
    amps = rng.normal(size=256) + 1j * rng.normal(size=256)
    state = TorusState(amps / np.linalg.norm(amps))
    spec = MapSpec("sm", 256, 0.9)
    for _ in range(50):
        state = apply_map(spec, state)
    assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-12

    for family, k in (("sm", 1.1), ("hm", 0.3)):
        pair = PerturbedPair.from_dkh(MapSpec(family, 128, k), 0.0)
        flat = np.abs(fidelity_trace(pair, 30).values)
        assert np.max(np.abs(flat - 1.0)) < 1e-10

    assert measure_value(np.array([1.0, 0.4, 0.7, 0.2, 0.5, 0.5])) == pytest.approx(1.2)

    rho_plus = bloch_state(1, 0, 0)
    rho_minus = bloch_state(-1, 0, 0)
    assert trace_distance(rho_plus, rho_plus) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(rho_plus, rho_minus) == pytest.approx(1.0, abs=1e-12)

    elapsed = time.monotonic() - start
    report(11, "invariant bundle", elapsed < 120.0, f"completed in {elapsed:.1f}s")
