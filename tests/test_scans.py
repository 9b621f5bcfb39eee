"""Sweep engines and phase-space imaging of the pure-state measure."""

import tracemalloc

import numpy as np
import pytest

from torus_echo import scans
from torus_echo.echo import _overlaps, fidelity_pure, fidelity_trace
from torus_echo.maps import MapSpec, PerturbedPair
from torus_echo.measures import measure_value
from torus_echo.scans import (
    PhaseGrid,
    SweepSpec,
    grid_average,
    line_scan,
    load_grid,
    save_grid,
    save_grid_pgm,
    scan_phase_space,
    sweep_avg_mp,
    sweep_mm,
)
from torus_echo.torus import PhasePoint


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(family="sm", k_values=(), dkh_values=(2.0,), n=64, t_max=10)
    with pytest.raises(ValueError):
        SweepSpec(family="sm", k_values=(1.0,), dkh_values=(2.0,), n=64,
                  t_max=10, kind="other")
    spec = SweepSpec(family="sm", k_values=(1.0, 2.0), dkh_values=(1.0, 3.0),
                     n=64, t_max=10)
    assert spec.cells() == [(1.0, 1.0), (1.0, 3.0), (2.0, 1.0), (2.0, 3.0)]


def test_phase_grid_shape_checked():
    with pytest.raises(ValueError):
        PhaseGrid(family="sm", k=1.0, dkh=2.0, n=64, t_max=10, s=3,
                  values=np.zeros((2, 2)))


def test_zero_perturbation_scan_is_all_zero():
    # |f| sits at 1 up to rounding, so the summed rises are pure jitter
    grid = scan_phase_space("sm", 1.1, 0.0, 64, 20, 4)
    assert np.all(grid.values < 1e-12)


def test_sweep_results_follow_cell_order():
    spec = SweepSpec(family="sm", k_values=(0.5, 2.5), dkh_values=(1.0, 2.0),
                     n=64, t_max=30)
    results = sweep_mm(spec)
    assert [(r.k, r.dkh) for r in results] == spec.cells()
    assert all(r.kind == "trace" and r.n == 64 and r.t_max == 30 for r in results)
    assert all(r.value >= 0.0 for r in results)


def test_average_sweep_matches_grid_mean():
    grid = scan_phase_space("sm", 0.9, 2.0, 64, 50, 4)
    spec = SweepSpec(family="sm", k_values=(0.9,), dkh_values=(2.0,), n=64,
                     t_max=50, kind="pure-average", s=4)
    (result,) = sweep_avg_mp(spec)
    assert abs(result.value - grid_average(grid)) < 1e-12
    assert result.kind == "pure-average"


def test_grid_cells_match_direct_evaluation():
    # registration: values[i, j] belongs to the coherent center (i/s, j/s)
    grid = scan_phase_space("sm", 0.9, 2.0, 64, 50, 4)
    pair = PerturbedPair.from_dkh(MapSpec(family="sm", n=64, k=0.9), 2.0)
    for (i, j) in [(1, 2), (3, 0)]:
        series = fidelity_pure(pair, PhasePoint(i / 4, j / 4), 50)
        direct = measure_value(np.abs(series.values))
        assert abs(grid.values[i, j] - direct) < 1e-12


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("route,columns", [("trace", 64), ("scan", 16)])
def test_peak_memory_does_not_grow_with_horizon(route, columns):
    # overlaps are reduced kick by kick; a (T+1) x columns complex buffer
    # would add 16 * columns bytes per kick, and the allowance is an eighth
    pair = PerturbedPair.from_dkh(MapSpec(family="sm", n=64, k=0.9), 2.0)
    runs = {
        "trace": lambda t: fidelity_trace(pair, t),
        "scan": lambda t: scan_phase_space("sm", 0.9, 2.0, 64, t, 4),
    }
    run = runs[route]
    run(1)  # the first call fills one-off caches
    short, long = _peak_bytes(lambda: run(50)), _peak_bytes(lambda: run(800))
    assert long - short < (800 - 50) * 16 * columns / 8


def test_start_states_are_built_per_block(monkeypatch):
    # 64-row blocks at N=64: going from s=8 to s=32 adds 960 coherent states,
    # 0.98 MB of complex start rows if they were all built up front; the
    # allowance is a quarter of that
    monkeypatch.setattr(scans, "_BLOCK_ELEMENTS", 1 << 12)

    def scan(s):
        return scan_phase_space("sm", 0.9, 2.0, 64, 5, s)

    scan(2)  # the first call fills one-off caches
    small, large = _peak_bytes(lambda: scan(8)), _peak_bytes(lambda: scan(32))
    assert large - small < (32**2 - 8**2) * 64 * 16 / 4


def test_line_scan_returns_points_in_order():
    points = [PhasePoint(0.25, 0.5), PhasePoint(0.75, 0.0)]
    out = line_scan("sm", 0.9, 2.0, 64, 50, points)
    assert [pt for pt, _ in out] == points
    grid = scan_phase_space("sm", 0.9, 2.0, 64, 50, 4)
    assert abs(out[0][1] - grid.values[1, 2]) < 1e-12
    with pytest.raises(ValueError):
        line_scan("sm", 0.9, 2.0, 64, 50, [])
    with pytest.raises(ValueError, match="t_max"):
        line_scan("sm", 0.9, 2.0, 64, 0, points)


def test_blocked_scan_matches_unsplit_scan(monkeypatch):
    # 16 coherent states at N=64 in blocks of 5 rows: 5, 5, 5 and a ragged 1
    whole = scan_phase_space("sm", 0.9, 2.0, 64, 50, 4)
    sizes = []

    def spy(pair, start, t_max, reduce):
        sizes.append(start.shape[0])
        return _overlaps(pair, start, t_max, reduce)

    monkeypatch.setattr(scans, "_BLOCK_ELEMENTS", 5 * 64)
    monkeypatch.setattr(scans, "_overlaps", spy)
    split = scan_phase_space("sm", 0.9, 2.0, 64, 50, 4)
    assert sizes == [5, 5, 5, 1]
    assert np.abs(split.values - whole.values).max() < 1e-13


def test_scan_is_deterministic():
    a = scan_phase_space("hm", 0.2, 2.0, 64, 30, 4)
    b = scan_phase_space("hm", 0.2, 2.0, 64, 30, 4)
    assert np.array_equal(a.values, b.values)


def test_parallel_sweep_matches_serial():
    spec = SweepSpec(family="sm", k_values=(0.5, 1.0, 2.5), dkh_values=(2.0,),
                     n=64, t_max=30)
    serial = sweep_mm(spec, workers=1)
    parallel = sweep_mm(spec, workers=3)
    assert [(r.k, r.value) for r in serial] == [(r.k, r.value) for r in parallel]


def test_harper_grid_nearly_symmetric_under_transpose():
    # K1 = K2 gives the classical map a position/momentum exchange symmetry
    # (composed with time reversal); the quantum image inherits it as a
    # strong statistical correlation rather than an exact identity
    grid = scan_phase_space("hm", 0.2, 2.0, 256, 100, 32)
    corr = np.corrcoef(grid.values.ravel(), grid.values.T.ravel())[0, 1]
    assert corr > 0.95


def test_grid_save_load_roundtrip(tmp_path):
    grid = scan_phase_space("sm", 0.9, 2.0, 64, 30, 4)
    path = tmp_path / "grid.csv"
    save_grid(grid, path, header="demo")
    lines = path.read_text().splitlines()
    assert lines[0] == "# demo"
    assert lines[1].startswith("# sm,")
    assert len(lines) == 2 + 4

    back = load_grid(path)
    assert (back.family, back.k, back.dkh) == ("sm", 0.9, 2.0)
    assert (back.n, back.t_max, back.s) == (64, 30, 4)
    assert np.array_equal(back.values, grid.values)


def test_pgm_rendering_scales_min_to_max(tmp_path):
    values = np.array([[0.0, 1.0], [2.0, 3.0]])
    grid = PhaseGrid(family="sm", k=1.0, dkh=2.0, n=64, t_max=10, s=2,
                     values=values)
    path = tmp_path / "grid.pgm"
    save_grid_pgm(grid, path)
    data = path.read_bytes()
    assert data.startswith(b"P5 2 2 255\n")
    # raster rows go top to bottom in decreasing p: ((1,3) then (0,2)) / 3
    assert data[-4:] == bytes([85, 255, 0, 170])


def test_pgm_constant_grid_is_black(tmp_path):
    grid = PhaseGrid(family="sm", k=1.0, dkh=2.0, n=64, t_max=10, s=2,
                     values=np.full((2, 2), 0.7))
    path = tmp_path / "flat.pgm"
    save_grid_pgm(grid, path)
    assert path.read_bytes()[-4:] == bytes(4)


def test_trace_peak_sits_at_harper_transition():
    spec = SweepSpec(family="hm", k_values=(0.1, 0.2, 0.5), dkh_values=(2.0,),
                     n=256, t_max=1000)
    vals = {r.k: r.value for r in sweep_mm(spec, workers=3)}
    assert vals[0.2] > vals[0.1] and vals[0.2] > vals[0.5]


def test_average_peak_sits_at_harper_transition():
    spec = SweepSpec(family="hm", k_values=(0.1, 0.2, 0.5), dkh_values=(2.0,),
                     n=256, t_max=1000, kind="pure-average", s=16)
    vals = {r.k: r.value for r in sweep_avg_mp(spec, workers=3)}
    assert vals[0.2] > vals[0.1] and vals[0.2] > vals[0.5]


@pytest.mark.xfail(
    strict=True,
    reason="at N=256 and T=1000 the trace sweep puts K=0.98 below K=0.5, "
    "as it still does at N=256, T=4000 and at N=512, T=2000; acceptance "
    "check 3 decides on the sweep rates with their errors",
)
def test_trace_peak_sits_at_standard_map_border():
    spec = SweepSpec(family="sm", k_values=(0.5, 0.98, 2.5), dkh_values=(2.0,),
                     n=256, t_max=1000)
    vals = {r.k: r.value for r in sweep_mm(spec, workers=3)}
    assert vals[0.98] > vals[0.5] and vals[0.98] > vals[2.5]


@pytest.mark.xfail(
    strict=True,
    reason="the coherent-grid average at N=256, T=1000 puts K=0.5 above "
    "K=0.98",
)
def test_average_peak_sits_at_standard_map_border():
    spec = SweepSpec(family="sm", k_values=(0.5, 0.98, 2.5), dkh_values=(2.0,),
                     n=256, t_max=1000, kind="pure-average", s=16)
    vals = {r.k: r.value for r in sweep_avg_mp(spec, workers=3)}
    assert vals[0.98] > vals[0.5] and vals[0.98] > vals[2.5]


def test_island_interior_darker_than_border():
    # at Harper K=0.25 the cell near (0.05, 0.05) sits inside a regular
    # island and accumulates far less than the border cell near (0.275,
    # 0.275); cells are evaluated directly through the grid registration
    pair = PerturbedPair.from_dkh(MapSpec(family="hm", n=1000, k=0.25), 2.0)
    inside = measure_value(np.abs(
        fidelity_pure(pair, PhasePoint(3 / 64, 3 / 64), 200).values))
    border = measure_value(np.abs(
        fidelity_pure(pair, PhasePoint(18 / 64, 18 / 64), 200).values))
    assert inside < border


def test_chaotic_sea_average_shrinks_with_dimension():
    # seven deep-sea points at the border kick strength; quadrupling N
    # roughly halves the average measure (floor fluctuations ~ 1/sqrt(N))
    sea = [(0.02, 0.02), (0.3, 0.1), (0.7, 0.1), (0.15, 0.05),
           (0.85, 0.07), (0.4, 0.13), (0.5, 0.2)]
    means = {}
    for n in (256, 1024):
        pair = PerturbedPair.from_dkh(MapSpec(family="sm", n=n, k=0.98), 2.0)
        vals = [measure_value(np.abs(fidelity_pure(pair, PhasePoint(q, p), 1000).values))
                for q, p in sea]
        means[n] = np.mean(vals)
    assert 1.3 < means[256] / means[1024] < 3.0
