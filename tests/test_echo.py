"""Fidelity-amplitude series from perturbed evolution pairs."""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from torus_echo import echo, maps
from torus_echo.echo import (
    _overlaps,
    FidelitySeries,
    fidelity_from_state,
    fidelity_pure,
    fidelity_trace,
    load_series,
    save_series,
)
from torus_echo.maps import (
    MATRIX_GUARD,
    GuardError,
    MapSpec,
    PerturbedPair,
    apply_map,
    build_matrix,
    drift_phase,
    kick_phase,
    split_step,
    step_phases,
)
from torus_echo.measures import measure
from torus_echo.torus import PhasePoint, TorusState, coherent_state


def _pair(family, k, n, dkh):
    return PerturbedPair.from_dkh(MapSpec(family=family, n=n, k=k), dkh)


@pytest.mark.parametrize("family,k,n", [("sm", 0.9, 256), ("hm", 0.3, 100), ("sm", 2.5, 33)])
@pytest.mark.parametrize("rows", [None, 1, 5, "n"])
def test_in_place_step_matches_allocating_step_bit_for_bit(family, k, n, rows):
    # the operand order of the kernel is pinned: drift * x, not x * drift,
    # and so is its scaling: an unscaled forward FFT and a 1/N inverse
    spec = MapSpec(family=family, n=n, k=k)
    kick, drift = kick_phase(spec), drift_phase(spec)
    shape = (n,) if rows is None else (n if rows == "n" else rows, n)
    rng = np.random.default_rng(7)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    expected = np.fft.ifft(drift * np.fft.fft(kick * x))
    y = x.copy()
    for _ in range(3):
        assert split_step(y, kick, drift) is y
        assert np.array_equal(y, expected)
        expected = np.fft.ifft(drift * np.fft.fft(kick * expected))


@pytest.mark.parametrize("family,n,ffts,iffts", [
    ("sm", 64, 1, 0), ("sm", 2, 1, 0), ("sm", 63, 1, 1), ("hm", 64, 1, 1), ("hm", 63, 1, 1),
])
def test_fft_calls_per_block_and_kick(monkeypatch, family, n, ffts, iffts):
    # a pass steps its G + 1 blocks as one stack, so every FFT call of a kick
    # transforms all (G + 1) * rows rows; sm at even N steps in the chirp
    # frame, one forward FFT per kick, and a silent fall back to the position
    # frame would add an inverse FFT
    t_max, rows = 5, 2
    u0 = MapSpec(family=family, n=n, k=0.9)
    u1s = [PerturbedPair.from_dkh(u0, dkh).u1 for dkh in (1.0, 2.0)]
    calls = {"fft": [], "ifft": []}
    for name in calls:
        def counted(x, *args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            calls[_name].append(x.size // n)
            return _fn(x, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    for _ in _overlaps(u0, u1s, np.eye(rows, n, dtype=complex), t_max):
        pass
    stacked = (len(u1s) + 1) * rows
    assert calls == {"fft": [stacked] * ffts * t_max, "ifft": [stacked] * iffts * t_max}


def _per_block_overlaps(u0, u1s, start, t_max):
    # the reference: each block stepped alone, one split_step per block and
    # one overlap call per map
    a = np.array(start, dtype=complex)
    entry, kick0, drift0 = step_phases(u0)
    phases = [step_phases(u1)[1:] for u1 in u1s]
    if entry is not None:
        np.multiply(entry, a, out=a)
    bs = [a.copy() for _ in u1s]
    for _ in range(t_max):
        split_step(a, kick0, drift0)
        for b, (kick, drift) in zip(bs, phases):
            split_step(b, kick, drift)
        yield [echo._row_overlaps(b, a) for b in bs]


@pytest.mark.parametrize("family,n", [("sm", 64), ("sm", 63), ("hm", 64), ("hm", 63)])
@pytest.mark.parametrize("g", [1, 2, 3])
def test_stacked_pass_matches_blocks_stepped_alone(family, n, g):
    u0 = MapSpec(family=family, n=n, k=0.9)
    u1s = [PerturbedPair.from_dkh(u0, dkh).u1 for dkh in (1.0, 2.0, 3.0)[:g]]
    start = np.array([coherent_state(n, PhasePoint(q, 0.3)).amps for q in (0.1, 0.45, 0.7)])
    for stacked, alone in zip(_overlaps(u0, u1s, start, 20),
                              _per_block_overlaps(u0, u1s, start, 20), strict=True):
        assert stacked.shape == (g, 3)
        assert np.array_equal(stacked, np.array(alone))


def _ortho_step(x, kick, drift):
    # the FFT pair scaled by 1/sqrt(N) on each side
    np.multiply(kick, x, out=x)
    np.fft.fft(x, norm="ortho", out=x)
    if drift is not None:
        np.multiply(drift, x, out=x)
        np.fft.ifft(x, norm="ortho", out=x)
    return x


@pytest.mark.parametrize("family", ["sm", "hm"])
@pytest.mark.parametrize("n,tol", [(64, 0.0), (256, 0.0), (63, 1e-12), (250, 1e-12)])
def test_fft_pair_scaling_matches_the_ortho_pair(monkeypatch, family, n, tol):
    # an unscaled forward FFT and a 1/N inverse give the bits of the ortho
    # pair when sqrt(N) is a power of two, and agree at rounding level elsewhere
    pair = _pair(family, 0.9, n, 2.0)
    state = coherent_state(n, PhasePoint(0.3, 0.2))
    amps, trace = apply_map(pair.u0, state).amps, fidelity_trace(pair, 100).values
    monkeypatch.setattr(maps, "split_step", _ortho_step)
    monkeypatch.setattr(echo, "split_step", _ortho_step)
    ortho_amps, ortho_trace = apply_map(pair.u0, state).amps, fidelity_trace(pair, 100).values
    assert np.abs(amps - ortho_amps).max() <= tol
    assert np.abs(trace - ortho_trace).max() <= tol


def test_chirp_frame_matches_position_frame_steps():
    # _overlaps runs sm at even N in the chirp frame; apply_map stays in the
    # position frame, so this compares the two routes kick by kick
    n, t_max = 16384, 100
    pair = _pair("sm", 0.98, n, 2.0)
    start = coherent_state(n, PhasePoint(0.3, 0.2))
    chirped = fidelity_from_state(pair, start, t_max).values
    a = b = start
    for t in range(1, t_max + 1):
        a, b = apply_map(pair.u0, a), apply_map(pair.u1, b)
        assert abs(chirped[t] - np.vdot(b.amps, a.amps)) <= 1e-10


_TRACE_BYTES = """
import sys
from torus_echo.echo import fidelity_trace
from torus_echo.maps import MapSpec, PerturbedPair
pair = PerturbedPair.from_dkh(MapSpec(family="sm", n=256, k=0.98), 2.0)
sys.stdout.buffer.write(fidelity_trace(pair, 20).values.tobytes())
"""


def test_trace_bytes_do_not_depend_on_blas_threads():
    # a block-wide BLAS dot splits its sum by thread, and the split moves the
    # last bits; per-row overlaps of N <= 8192 amplitudes do not.  On a
    # one-CPU machine both runs use one thread, so there this cannot fail.
    src = str(Path(echo.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = os.environ | {"OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        runs.append(subprocess.run([sys.executable, "-c", _TRACE_BYTES], env=env,
                                   capture_output=True, check=True).stdout)
    assert len(runs[0]) == 21 * 16
    assert runs[0] == runs[1]


_PURE_BYTES = """
import sys
from torus_echo.echo import fidelity_pure
from torus_echo.maps import MapSpec, PerturbedPair
from torus_echo.torus import PhasePoint
pair = PerturbedPair.from_dkh(MapSpec(family="sm", n=16384, k=2.5), 2.0)
sys.stdout.buffer.write(fidelity_pure(pair, PhasePoint(0.5, 0.5), 3).values.tobytes())
"""


def test_pure_bytes_do_not_depend_on_blas_threads():
    # a row of 16384 amplitudes is reduced in two fixed 8192-amplitude slices,
    # each below the size at which BLAS splits a dot product by thread.  On a
    # one-CPU machine both runs use one thread, so there this cannot fail.
    src = str(Path(echo.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = os.environ | {"OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        runs.append(subprocess.run([sys.executable, "-c", _PURE_BYTES], env=env,
                                   capture_output=True, check=True).stdout)
    assert len(runs[0]) == 4 * 16
    assert runs[0] == runs[1]


def test_series_starts_at_one_and_is_bounded():
    series = fidelity_pure(_pair("sm", 2.5, 64, 2.0), PhasePoint(0.3, 0.3), 50)
    assert series.values[0] == 1.0
    assert np.abs(series.values).max() <= 1 + 1e-9
    assert series.t_max == 50 and len(series.values) == 51


def test_series_freezes_a_copy_of_the_callers_array():
    values = np.array([1.0, 0.5j, 0.25])
    series = FidelitySeries(values)
    assert values.flags.writeable and not series.values.flags.writeable
    values[1] = 0.0
    assert series.values.tolist() == [1.0, 0.5j, 0.25]


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan)])
def test_series_values_must_be_finite(tmp_path, bad):
    values = np.array([1.0, 0.5, bad, 0.3], dtype=complex)
    with pytest.raises(ValueError, match="finite"):
        FidelitySeries(values)
    path = tmp_path / "series.csv"
    rows = [f"{t},{v.real!r},{v.imag!r},{abs(v)!r}" for t, v in enumerate(values.tolist())]
    path.write_text("\n".join(["# kind=trace", "t,re_f,im_f,abs_f", *rows]) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*finite"):
        load_series(path)


def test_empty_series_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="non-empty"):
        FidelitySeries(np.array([], dtype=complex))
    path = tmp_path / "series.csv"
    path.write_text("# kind=trace\nt,re_f,im_f,abs_f\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*non-empty"):
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


def test_odd_standard_map_trace_equals_position_basis_average():
    # the sm drift is not parity-even at odd N, so the trace keeps all N rows;
    # a half basis would be off by up to 5e-2 here
    n, t = 63, 40
    pair = _pair("sm", 0.9, n, 2.0)
    trace = fidelity_trace(pair, t).values
    avg = np.zeros(t + 1, dtype=complex)
    for j in range(n):
        avg += fidelity_from_state(pair, TorusState(np.eye(n)[j]), t).values
    np.testing.assert_allclose(trace, avg / n, atol=1e-10)


@pytest.mark.parametrize("family,n,rows", [
    ("hm", 64, 17), ("hm", 62, 16), ("hm", 2, 1), ("hm", 63, 32), ("sm", 64, 33),
    ("sm", 63, 63), ("sm", 2, 2), ("hm", 3, 2),
])
def test_trace_pass_starts_from_the_parity_reduced_basis(monkeypatch, family, n, rows):
    # parity alone (hm at odd N, sm at even N) starts from e_0 .. e_{N//2},
    # parity and C.tau (hm at even N) from e_0 .. e_{N//4}, sm at odd N from
    # all N rows
    starts = []

    def spy(u0, u1s, start, t_max):
        starts.append(np.array(start))
        return _overlaps(u0, u1s, start, t_max)

    monkeypatch.setattr(echo, "_overlaps", spy)
    fidelity_trace(_pair(family, 0.9, n, 2.0), 3)
    (start,) = starts
    assert np.array_equal(start, np.eye(n)[:rows])


def _peak_bytes(fn) -> int:
    fn()  # the first call fills one-off caches
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("family", ["sm", "hm"])
def test_split_step_allocates_no_block(family):
    # sm at N=256 steps in the chirp frame (one FFT), hm runs the FFT pair; a
    # scratch block, or a copy that numpy made for the aliased out=, would
    # add a whole block of 64 x 256 amplitudes.  The broadcast kick multiply
    # fills numpy's ufunc buffer, np.getbufsize() amplitudes whatever the block
    spec = MapSpec(family=family, n=256, k=0.9)
    _, kick, drift = step_phases(spec)
    x = np.ones((64, 256), dtype=complex)
    ufunc_buffer = np.getbufsize() * x.itemsize
    assert _peak_bytes(lambda: split_step(x, kick, drift)) < x.nbytes / 4 + ufunc_buffer


_TRACE_PASS_SHAPES = pytest.mark.parametrize("family,n,rows", [
    ("sm", 512, 257), ("hm", 512, 129), ("sm", 511, 511), ("hm", 511, 256),
])


@_TRACE_PASS_SHAPES
def test_trace_pass_holds_three_blocks(family, n, rows):
    # one perturbed map: U0's block and U1's block of the pass's rows, and no
    # scratch block; a start held beside them would make a third, and a
    # fourth block breaks this bound
    pair = _pair(family, 0.9, n, 2.0)
    assert _peak_bytes(lambda: fidelity_trace(pair, 5)) <= 3.5 * rows * n * 16


@_TRACE_PASS_SHAPES
def test_one_map_trace_pass_holds_two_blocks(family, n, rows):
    # U0's block and U1's block alone; a scratch block or a start held beside
    # them would make a third
    pair = _pair(family, 0.9, n, 2.0)
    assert _peak_bytes(lambda: fidelity_trace(pair, 5)) <= 2.5 * rows * n * 16


def test_a_pass_budget_counts_u0_and_the_perturbed_blocks(monkeypatch):
    # a budget of 3 blocks of the pass's rows holds U0's block and G = 2
    # perturbed blocks; a pass that also reserved a scratch block gets G = 1
    rows, n = 17, 32
    monkeypatch.setattr(maps, "BLOCK_ELEMENTS", 3 * rows * n)
    assert [len(g) for g in echo._passes([0.5, 1.0, 1.5, 2.0, 2.5], rows, n)] == [2, 2, 1]


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
    assert lines[1] == "t,re_f,im_f,abs_f"
    assert len(lines) == 2 + 13
    assert lines[2].startswith("0,1.0,0.0,1.0")

    back = load_series(path)
    # repr round-trips doubles exactly
    assert np.array_equal(back.values, series.values)
    save_series(series, path)
    assert path.read_text().splitlines()[0] == "t,re_f,im_f,abs_f"
    assert np.array_equal(load_series(path).values, series.values)


def test_series_file_with_a_kind_line_still_loads(tmp_path):
    # the older layout: the config echo, a `# kind=` line, the column header, the rows
    series = fidelity_pure(_pair("hm", 0.3, 32, 1.5), PhasePoint(0.25, 0.5), 10)
    rows = [f"{t},{v.real!r},{v.imag!r},{abs(v)!r}" for t, v in enumerate(series.values.tolist())]
    path = tmp_path / "series.csv"
    path.write_text("\n".join(["# torus-echo fidelity kind=pure", "# kind=pure",
                               "t,re_f,im_f,abs_f", *rows]) + "\n")
    assert load_series(path).values.tobytes() == series.values.tobytes()


@pytest.mark.parametrize("rows", [
    ["0,1.0,0.0,1.0", "5,0.5,0.0,0.5", "2,0.25,0.0,0.25"],
    ["1,1.0,0.0,1.0", "2,0.5,0.0,0.5"],
    ["0,1.0,0.0,1.0", "1,0.5,0.0,0.5", "1,0.25,0.0,0.25"],
    ["0,1.0,0.0,1.0", "1,0.5,0.0"],
    ["0,1.0,0.0,1.0", "1,0.5,0.0,0.5,0.0"],
], ids=["t-jumps", "t-from-1", "t-repeats", "three-fields", "five-fields"])
def test_series_rows_must_count_t_in_order(tmp_path, rows):
    path = tmp_path / "series.csv"
    path.write_text("\n".join(["# demo", "t,re_f,im_f,abs_f", *rows]) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: expected the row"):
        load_series(path)


def test_a_field_that_is_not_a_number_is_refused_naming_the_file(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("# demo\nt,re_f,im_f,abs_f\n0,1.0,0.0,1.0\n1,half,0.0,0.5\n")
    message = f"{path}: could not convert string to float: 'half'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_series(path)


def test_a_modulus_beyond_the_double_range_is_written_as_inf(tmp_path):
    # both parts are finite, but |f| overflows a double
    series = FidelitySeries(np.array([1.0, 1.5e308 * (1 + 1j)]))
    path = tmp_path / "series.csv"
    save_series(series, path)
    assert path.read_text().splitlines()[-1] == "1,1.5e+308,1.5e+308,inf"
    assert np.array_equal(load_series(path).values, series.values)


def test_refusals_of_the_series_routes():
    pair = _pair("sm", 1.0, 16, 2.0)
    with pytest.raises(ValueError, match="t_max must be >= 1, got 0"):
        fidelity_trace(pair, 0)
    with pytest.raises(ValueError, match="state dimension 8 does not match pair 16"):
        fidelity_from_state(pair, coherent_state(8, PhasePoint(0.5, 0.5)), 3)
