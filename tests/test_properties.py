"""Property tests: the split-operator routes against dense matrices, unitary
map matrices, every entry of the symmetry table against the map matrix, the
symmetry-reduced trace against the full basis, the real Harper trace at even
N, the stored measure against the streamed rise sum, the chirp factorisation of the sm drift at even N,
symmetry-paired scans against every center evolved, scan representatives
against a brute-force lattice rule,
the in-place classical step against a textbook out-of-place step and its exact
oddness under (x, p) -> (-x, -p), sweeps that
do not depend on their worker count, byte-identical CLI reruns, and lossless
round trips of the series and grid files.

The reference builds each map as F^dag D F V from an explicit DFT matrix F
and the phase formulas of the maps module docstring, so it shares no code
with the FFT kernel; odd N and N = 2 are drawn too.
"""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from torus_echo import cli, scans
from torus_echo.classical import _step, _step_constants
from torus_echo.echo import (
    _overlaps,
    FidelitySeries,
    fidelity_from_state,
    fidelity_trace,
    load_series,
    save_series,
)
from torus_echo.maps import (
    C_TAU,
    PARITY,
    MapSpec,
    PerturbedPair,
    Symmetry,
    build_matrix,
    kick_phase,
)
from torus_echo.measures import measure_rows, measure_value
from torus_echo.scans import PhaseGrid, SweepSpec, load_grid, save_grid, sweep
from torus_echo.semiclassics import bessel_j0
from torus_echo.torus import PhasePoint, TorusState

maps = dict(
    family=st.sampled_from(["sm", "hm"]),
    n=st.integers(2, 24),
    k=st.floats(0.0, 3.0),
    t_max=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
derandomized = settings(derandomize=True, max_examples=60, deadline=None)


def _dense(spec: MapSpec) -> np.ndarray:
    n = spec.n
    idx = np.arange(n)
    f = np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)
    q = p = idx / n
    if spec.family == "sm":
        kick = np.exp(-1j * n * spec.k / (2 * np.pi) * np.cos(2 * np.pi * q))
        drift = np.exp(-1j * np.pi * idx**2 / n)
    else:
        kick = np.exp(1j * n * spec.k * np.cos(2 * np.pi * q))
        drift = np.exp(1j * n * spec.k2 * np.cos(2 * np.pi * p))
    return f.conj().T @ np.diag(drift) @ f @ np.diag(kick)


def _random_state(n: int, seed: int) -> TorusState:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return TorusState(amps / np.linalg.norm(amps))


@derandomized
@given(dkh=st.floats(0.0, 3.0), **maps)
def test_routes_match_dense_matrices(family, n, k, dkh, t_max, seed):
    pair = PerturbedPair.from_dkh(MapSpec(family=family, n=n, k=k), dkh)
    state = _random_state(n, seed)
    trace = fidelity_trace(pair, t_max).values
    pure = fidelity_from_state(pair, state, t_max).values
    u0, u1 = _dense(pair.u0), _dense(pair.u1)
    m0 = m1 = np.eye(n, dtype=complex)
    for t in range(1, t_max + 1):
        m0, m1 = u0 @ m0, u1 @ m1
        assert abs(trace[t] - np.vdot(m1, m0) / n) <= 1e-12
        assert abs(pure[t] - np.vdot(m1 @ state.amps, m0 @ state.amps)) <= 1e-12
    assert np.abs(trace).max() <= 1 + 1e-12
    assert np.abs(pure).max() <= 1 + 1e-12


@derandomized
@given(family=st.sampled_from(["sm", "hm"]), n=st.integers(2, 200), k=st.floats(0.0, 3.0),
       k2=st.floats(0.0, 3.0))
def test_map_matrix_is_unitary(family, n, k, k2):
    # hm draws its momentum kick K2 apart from K; odd N is drawn too
    u = build_matrix(MapSpec(family=family, n=n, k=k, k2=k2 if family == "hm" else None))
    assert np.linalg.norm(u.conj().T @ u - np.eye(n), np.inf) <= 1e-12


@derandomized
@given(**maps)
def test_zero_perturbation_keeps_fidelity_at_one(family, n, k, t_max, seed):
    pair = PerturbedPair.from_dkh(MapSpec(family=family, n=n, k=k), 0.0)
    trace = fidelity_trace(pair, t_max).values
    pure = fidelity_from_state(pair, _random_state(n, seed), t_max).values
    assert np.abs(trace - 1.0).max() <= 1e-12
    assert np.abs(pure - 1.0).max() <= 1e-12


def _symmetry_miss(spec: MapSpec, sym: Symmetry) -> float:
    # P sends e_n to e_m, m = (sq n + aq N) mod N; an antiunitary entry also
    # shifts momentum by N/2, the sign (-1)^n, and conjugates
    n = spec.n
    idx = np.arange(n)
    perm = np.zeros((n, n))
    perm[(sym.sq * idx + int(sym.aq * n)) % n, idx] = 1.0
    u = build_matrix(spec)
    if sym.antiunitary:
        t = perm * (-1.0) ** idx
        return np.abs((t @ u @ t.T).conj() - u).max()
    return np.abs(perm @ u @ perm.T - u).max()


@derandomized
@given(family=maps["family"], n=st.integers(2, 32), k=maps["k"])
def test_every_symmetry_in_the_table_commutes_with_the_map(family, n, k):
    spec = MapSpec(family=family, n=n, k=k)
    for sym in spec.symmetries:
        assert _symmetry_miss(spec, sym) <= 1e-12


# negative controls: the sm drift is not even under the half shift, nor under
# parity at odd N (misses of about 0.42 at N=16 and 0.65 at N=15)
@derandomized
@given(half_n=st.integers(1, 16), k=maps["k"])
def test_standard_map_breaks_the_symmetries_it_lacks(half_n, k):
    even, odd = (MapSpec(family="sm", n=2 * half_n + i, k=k) for i in (0, 1))
    assert C_TAU not in even.symmetries and odd.symmetries == ()
    assert _symmetry_miss(even, C_TAU) >= 0.1
    assert _symmetry_miss(odd, PARITY) >= 0.1


# sm is drawn at even N only, where its drift is parity-even
@derandomized
@given(family=maps["family"], n=st.integers(2, 64), k=maps["k"], dkh=st.floats(0.0, 3.0),
       t_max=maps["t_max"])
def test_parity_reduced_trace_matches_full_basis(family, n, k, dkh, t_max):
    n -= n % 2 if family == "sm" else 0
    pair = PerturbedPair.from_dkh(MapSpec(family=family, n=n, k=k), dkh)
    assert pair.u0.symmetries
    kicks = _overlaps(pair.u0, [pair.u1], np.eye(n, dtype=complex), t_max)
    full = np.array([n, *(r.sum() for (r,) in kicks)]) / n
    reduced = fidelity_trace(pair, t_max).values
    assert reduced[0] == 1.0
    assert np.abs(reduced - full).max() <= 1e-12


# hm at even N commutes with C.tau, complex conjugation in the position basis
# after the half-period shift by N/2 in position and momentum.  C.tau sends
# e_n to +-e_{n + N/2} and conjugates its diagonal element of U1^dag(t) U0(t),
# so the trace is real, and the trace pass keeps its real part; this is the
# symmetry that pairs the half-shift images of the scans
@derandomized
@given(half_n=st.integers(1, 32), k=maps["k"], k2=maps["k"], dkh=st.floats(0.0, 3.0),
       t_max=st.integers(1, 100))
def test_harper_trace_at_even_n_is_real(half_n, k, k2, dkh, t_max):
    pair = PerturbedPair.from_dkh(MapSpec(family="hm", n=2 * half_n, k=k, k2=k2), dkh)
    imag = fidelity_trace(pair, t_max).values.imag
    assert (imag == 0.0).all() and not np.signbit(imag).any()


# without the symmetry the trace is complex: hm at odd N, and sm, whose drift
# phase pi k^2 / N is not even under the shift
@pytest.mark.parametrize("family,n,k,least", [("hm", 63, 0.2, 0.05), ("sm", 64, 0.98, 0.2)])
def test_trace_without_the_symmetry_is_complex(family, n, k, least):
    pair = PerturbedPair.from_dkh(MapSpec(family=family, n=n, k=k), 2.0)
    assert np.abs(fidelity_trace(pair, 500).values.imag).max() >= least


def _chirp_sandwich(n: int) -> np.ndarray:
    # exp(-i pi/4) C F C with C = diag(exp(i pi m^2 / N)) and the unitary DFT F
    idx = np.arange(n)
    f = np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)
    chirp = np.exp(1j * np.pi * idx**2 / n)
    return np.exp(-0.25j * np.pi) * chirp[:, None] * f * chirp[None, :]


def _sm_drift(n: int, k: float) -> np.ndarray:
    # the position-space drift of build_matrix, its kick divided out
    spec = MapSpec(family="sm", n=n, k=k)
    return build_matrix(spec) * kick_phase(spec).conj()[None, :]


# the quadratic Gauss sum behind the one-FFT step of the sm chirp frame
@derandomized
@given(half_n=st.integers(1, 32), k=maps["k"])
def test_standard_map_drift_is_a_chirp_sandwich_at_even_n(half_n, k):
    n = 2 * half_n
    assert np.abs(_sm_drift(n, k) - _chirp_sandwich(n)).max() <= 1e-12


# at odd N the drift is not periodic in k and the Gauss sum does not apply:
# the sandwich misses by a spectral norm of about 2, so the frame needs even N
@derandomized
@given(half_n=st.integers(1, 31), k=maps["k"])
def test_chirp_sandwich_fails_at_odd_n(half_n, k):
    n = 2 * half_n + 1
    assert np.linalg.norm(_sm_drift(n, k) - _chirp_sandwich(n), 2) >= 0.1


# sm is drawn at even N only.  Coherent states are periodized to rounding at
# every N, so the paired route agrees with every center evolved to rounding
# from N = 2 on.  The example is an hm grid at even N with s=6: on a 4 x 4
# grid the false image (q + 1/2, p + 1/2) joins only centers the true orbits
# join too
@derandomized
@example(family="hm", n=16, k=1.3, dkh_values=[2.0], t_max=30, s=6,
         points=[(0.13, 0.71), (0.5, 0.25)])
@given(family=maps["family"], n=st.integers(2, 32), k=maps["k"],
       dkh_values=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=2),
       t_max=maps["t_max"], s=st.integers(1, 6),
       points=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), max_size=4))
def test_paired_scan_matches_every_center_evolved(family, n, k, dkh_values, t_max, s, points):
    # grid centers, free points, their parity images as 1 - q and half-shift
    # images as (q + 0.5, 0.5 - p) (not always the bits of the computed
    # images mod 1) and repeats shifted by whole periods
    n -= n % 2 if family == "sm" else 0
    centers = [PhasePoint(i / s, j / s) for i in range(s) for j in range(s)]
    centers += [PhasePoint(q, p) for q, p in points]
    centers += [PhasePoint(1.0 - q, 1.0 - p) for q, p in points]
    centers += [PhasePoint(q + 0.5, 0.5 - p) for q, p in points]
    centers += [PhasePoint(q + 1.0, p - 2.0) for q, p in points]
    u0, u1s = scans._maps(family, n, k, dkh_values)
    paired = scans._measure_columns(u0, u1s, centers, t_max)
    every_center = (np.array([(c.q, c.p) for c in centers]), slice(None))
    with mock.patch.object(scans, "_orbit_representatives", lambda u0, c: every_center):
        every = scans._measure_columns(u0, u1s, centers, t_max)
    assert paired.shape == every.shape == (len(dkh_values), len(centers))
    assert np.abs(paired - every).max() <= 1e-11


def _lattice_point(q: float, p: float) -> tuple[int, int]:
    cells = scans._CELLS
    return round(q * cells) % cells, round(p * cells) % cells


# a brute-force reference: the representative of a center is the earliest
# center that, itself or through one of its images under the table, rounds
# to the same lattice point mod 1; sm at odd N has an empty table, so only
# repeated points share a representative there
@pytest.mark.parametrize("family", ["sm", "hm"])
@pytest.mark.parametrize("parity", [0, 1])
@derandomized
@example(half_n=32, s=4, points=[(-1e-17, 0.3), (1e-17, -1e-17)])
@given(half_n=st.integers(1, 20), s=st.integers(1, 12),
       points=st.lists(st.tuples(st.floats(-2.0, 2.0) | st.sampled_from([-1e-17, 1e-17]),
                                 st.floats(-2.0, 2.0) | st.sampled_from([-1e-17, 1e-17])),
                       max_size=6))
def test_orbit_representatives_match_the_lattice_rule(family, parity, half_n, s, points):
    n = 2 * half_n + parity
    centers = [PhasePoint(i / s, j / s) for i in range(s) for j in range(s)]
    centers += [PhasePoint(q, p) for q, p in points]
    centers += [PhasePoint(1.0 - q, 1.0 - p) for q, p in points]
    centers += [PhasePoint(q + 0.5, 0.5 - p) for q, p in points]
    centers += [PhasePoint(q + 1.0, p - 2.0) for q, p in points]
    u0 = MapSpec(family=family, n=n, k=0.5)
    qp = np.array([(c.q, c.p) for c in centers])
    reps, index = scans._orbit_representatives(u0, centers)
    orbits = [{_lattice_point(q, p)}
              | {_lattice_point(g.sq * q + g.aq, g.sp * p + g.ap) for g in u0.symmetries}
              for q, p in qp]
    first = [min(j for j, orbit in enumerate(orbits) if _lattice_point(q, p) in orbit)
             for q, p in qp]
    assert np.array_equal(reps, qp[sorted(set(first))])
    assert np.array_equal(reps[index], qp[first])


# the first kick averages exp(i dkh cos 2 pi q) over N grid points: J0 up to
# the aliasing term 2 |J_N(dkh)|, at most 2e-14 for N >= 48 and dkh <= 20
@derandomized
@given(family=st.sampled_from(["sm", "hm"]), n=st.integers(48, 200),
       k=st.floats(0.0, 3.0), dkh=st.floats(0.0, 20.0))
def test_first_kick_is_bessel_j0_to_rounding(family, n, k, dkh):
    pair = PerturbedPair.from_dkh(MapSpec(family=family, n=n, k=k), dkh)
    f1 = fidelity_trace(pair, 1).values[1]
    assert abs(abs(f1) - abs(bessel_j0(dkh))) <= 1e-13


# every example starts a process pool, so fewer of them
@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    family=st.sampled_from(["sm", "hm"]),
    kind=st.sampled_from(["trace", "pure-average"]),
    k_values=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3),
    dkh_values=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
    n=st.integers(2, 24),
    t_max=st.integers(1, 12),
    s=st.integers(1, 3),
)
def test_sweep_does_not_depend_on_worker_count(family, kind, k_values, dkh_values, n,
                                               t_max, s):
    # the pool runs whole K rows; results come back in cell order either way
    spec = SweepSpec(family=family, k_values=k_values, dkh_values=dkh_values, n=n,
                     t_max=t_max, kind=kind, s=s)
    serial, parallel = sweep(spec, workers=1), sweep(spec, workers=2)
    assert [(r.k, r.dkh) for r in serial] == spec.cells()
    assert serial == parallel
    assert (np.array([r.value for r in serial]).tobytes()
            == np.array([r.value for r in parallel]).tobytes())


# every example runs a command twice, so fewer of them
@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    command=st.sampled_from(["fidelity-trace", "fidelity-pure", "nm-sweep", "phase-scan"]),
    family=st.sampled_from(["sm", "hm"]),
    k=st.floats(0.0, 3.0),
    dkh_values=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3),
    n=st.integers(2, 24),
    t_max=st.integers(1, 12),
)
def test_cli_reruns_are_byte_identical(tmp_path_factory, command, family, k, dkh_values, n,
                                       t_max):
    # both runs write to a relative `out`, so the config echo lines agree too
    dkh = ",".join(map(repr, dkh_values))
    base = ["--map", family, "--k", repr(k), "--n", str(n), "--t", str(t_max)]
    argv = {
        "fidelity-trace": ["fidelity", *base, "--dkh", dkh_values[0]],
        "fidelity-pure": ["fidelity", *base, "--dkh", dkh_values[0], "--kind", "pure",
                          "--q0", "0.25", "--p0", "0.5"],
        "nm-sweep": ["nm-sweep", *base, "--dkh-values", dkh],
        "phase-scan": ["phase-scan", *base, "--dkh", dkh_values[0], "--s", "2"],
    }[command]
    runs = []
    for _ in range(2):
        home = tmp_path_factory.mktemp("rerun")
        cwd = os.getcwd()
        os.chdir(home)
        try:
            assert cli.main([str(a) for a in argv] + ["--plot", "--out-dir", "out"]) == 0
        finally:
            os.chdir(cwd)
        runs.append({path.name: path.read_bytes() for path in (home / "out").iterdir()})
    assert runs[0] and runs[0] == runs[1]


# runs of one value make plateaus, and the pool repeats values across the series
@derandomized
@given(runs=st.lists(st.tuples(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
                               st.integers(1, 3)), max_size=400))
def test_stored_measure_adds_rises_in_streamed_order(runs):
    absvals = np.repeat([v for v, _ in runs], [r for _, r in runs]).astype(float)
    assert measure_value(absvals) == float(measure_rows(iter(absvals)))


finite = st.floats(allow_nan=False, allow_infinity=False)
# signed zeros, the smallest subnormal and values near the top of the range
edge_values = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]


@derandomized
@given(
    values=st.lists(st.builds(complex, finite, finite), min_size=1, max_size=20),
)
@example(values=[complex(a, b) for a in edge_values for b in edge_values])
def test_series_file_round_trip_is_bit_exact(tmp_path_factory, values):
    series = FidelitySeries(np.array(values, dtype=complex))
    path = tmp_path_factory.mktemp("series") / "series.csv"
    save_series(series, path, header="demo")
    back = load_series(path)
    assert back.values.tobytes() == series.values.tobytes()


@derandomized
@given(values=st.integers(1, 6).flatmap(lambda s: arrays(float, (s, s), elements=finite)))
@example(values=np.array([[-1e308]]))
@example(values=np.array([[-0.0, 5e-324], [1e308, -2.2250738585072014e-308]]))
def test_grid_file_round_trip_is_bit_exact(tmp_path_factory, values):
    grid = PhaseGrid(values)
    path = tmp_path_factory.mktemp("grid") / "grid.csv"
    save_grid(grid, path, header="demo")
    assert load_grid(path).values.tobytes() == grid.values.tobytes()


def _reference_step(family, k, k2, x, p, wx, wp):
    """Textbook classical step: new arrays, wrapping into [-1/2, 1/2] by rint."""
    if family == "sm":
        pn = p + (k / (2.0 * np.pi)) * np.sin(2.0 * np.pi * x)
        pw = pn - np.rint(pn)
        wp = wp + (pn - pw)
        xn = x + pw
        xw = xn - np.rint(xn)
        wx = wx + (xn - xw) + wp
    else:
        pn = p - k * np.sin(2.0 * np.pi * x)
        pw = pn - np.rint(pn)
        wp = wp + (pn - pw)
        xn = x + k2 * np.sin(2.0 * np.pi * pw)
        xw = xn - np.rint(xn)
        wx = wx + (xn - xw)
    return xw, pw, wx, wp


coordinate = st.floats(-2.0, 2.0)


# x = 0 makes the first kick exactly zero, so pn = p: p just below 0, pn an
# integer, and the half-integers where rint rounds half to even
@derandomized
@given(
    family=st.sampled_from(["sm", "hm"]),
    k=st.floats(0.0, 3.0),
    k2=st.floats(0.0, 3.0),
    points=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=8),
    steps=st.integers(1, 20),
)
@example(family="sm", k=0.98, k2=0.0, points=[(0.0, -2.0**-40)], steps=5)
@example(family="hm", k=0.3, k2=0.7, points=[(0.0, -2.0**-40)], steps=5)
@example(family="sm", k=1.3, k2=0.0, points=[(0.0, 1.0), (0.0, -1.0)], steps=5)
@example(family="hm", k=1.3, k2=1.1, points=[(0.0, 1.0), (0.0, -1.0)], steps=5)
@example(family="sm", k=2.5, k2=0.0, points=[(0.0, -1e-20), (0.0, -5e-324)], steps=5)
@example(family="hm", k=0.2, k2=0.2, points=[(0.0, -1e-20), (0.0, -5e-324)], steps=5)
@example(family="sm", k=1.3, k2=0.0, points=[(0.0, 0.5), (0.0, -0.5), (0.0, 1.5), (0.0, -1.5)],
         steps=5)
@example(family="hm", k=1.3, k2=1.1,
         points=[(0.0, 0.5), (0.0, -0.5), (0.0, 1.5), (0.0, -1.5), (0.5, 0.0), (-1.5, 0.0)],
         steps=5)
def test_in_place_step_matches_textbook_step_bit_for_bit(family, k, k2, points, steps):
    x, p = (np.array(c, dtype=float) for c in zip(*points))
    wx, wp = np.zeros_like(x), np.zeros_like(x)
    ref = (x.copy(), p.copy(), wx.copy(), wp.copy())
    tmp = np.empty_like(x)
    consts = _step_constants(family, k, k2, x.shape)
    for _ in range(steps):
        _step(family, *consts, x, p, wx, wp, tmp)
        ref = _reference_step(family, k, k2, *ref)
        for got, want in zip((x, p, wx, wp), ref):
            assert got.tobytes() == want.tobytes()


# the grid measure pairs cells whose starts are exact negations, so a step of
# -(x, p, wx, wp) must be the exact negation of the step of (x, p, wx, wp);
# values are compared, since v - rint(v) gives +0.0 at both signs of an integer
@derandomized
@given(
    family=st.sampled_from(["sm", "hm"]),
    k=st.floats(0.0, 3.0),
    k2=st.floats(0.0, 3.0),
    points=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=8),
    steps=st.integers(1, 20),
)
@example(family="sm", k=0.98, k2=0.0, points=[(0.5, 0.5), (0.25, -0.5), (1.5, 0.0)], steps=5)
@example(family="hm", k=0.3, k2=0.45, points=[(0.5, 0.5), (0.25, -0.5), (0.0, 1.5)], steps=5)
def test_classical_step_is_exactly_odd(family, k, k2, points, steps):
    x, p = (np.array(c, dtype=float) for c in zip(*points))
    plus = [x, p, np.zeros_like(x), np.zeros_like(x)]
    minus = [-v for v in plus]
    tmp = np.empty_like(x)
    consts = _step_constants(family, k, k2, x.shape)
    for _ in range(steps):
        _step(family, *consts, *plus, tmp)
        _step(family, *consts, *minus, tmp)
        for a, b in zip(plus, minus):
            assert np.array_equal(b, -a)
