"""Sweep engines and phase-space imaging of the pure-state measure."""

import dataclasses
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from torus_echo import echo, maps, scans
from torus_echo.echo import _overlaps, fidelity_pure, fidelity_trace
from torus_echo.maps import MATRIX_GUARD, GuardError, MapSpec, PerturbedPair
from torus_echo.measures import measure, measure_value
from torus_echo.scans import (
    PhaseGrid,
    SweepSpec,
    line_scan,
    load_grid,
    save_grid,
    save_grid_pgm,
    scan_phase_space,
    sweep,
)
from torus_echo.torus import PhasePoint


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(family="sm", k_values=(), dkh_values=(2.0,), n=64, t_max=10)
    with pytest.raises(ValueError):
        SweepSpec(family="sm", k_values=(1.0,), dkh_values=(2.0,), n=64,
                  t_max=10, kind="other")
    # refused at construction, before any cell runs (or any worker starts)
    with pytest.raises(ValueError, match="grid side"):
        SweepSpec(family="sm", k_values=(1.0,), dkh_values=(2.0,), n=64,
                  t_max=10, kind="pure-average", s=0)
    fields = dict(family="sm", k_values=(1.0,), dkh_values=(2.0,), n=64, t_max=10)
    # a bad K or dkh is refused with the spec, though the good K=1.0 row comes first
    for bad, match in ((dict(family="xx"), "unknown map family"),
                       (dict(n=1), "dimension must be >= 2"),
                       (dict(t_max=0), "t_max must be >= 1"),
                       (dict(k_values=(1.0, float("nan"))), "K must be finite and >= 0"),
                       (dict(k_values=(1.0, -1.0)), "K must be finite and >= 0"),
                       (dict(dkh_values=(2.0, float("nan"))), "K must be finite and >= 0")):
        with pytest.raises(ValueError, match=match):
            SweepSpec(**(fields | bad))
    # the dense guard holds for the trace only
    with pytest.raises(GuardError):
        SweepSpec(**(fields | dict(n=MATRIX_GUARD + 1)))
    SweepSpec(**(fields | dict(n=MATRIX_GUARD + 1, kind="pure-average")))
    spec = SweepSpec(family="sm", k_values=(1.0, 2.0), dkh_values=(1.0, 3.0),
                     n=64, t_max=10)
    assert spec.cells() == [(1.0, 1.0), (1.0, 3.0), (2.0, 1.0), (2.0, 3.0)]


def test_phase_grid_shape_checked():
    for shape in ((2, 3), (4,), (0, 0), (2, 2, 2)):
        with pytest.raises(ValueError, match="non-empty s x s square"):
            PhaseGrid(np.zeros(shape))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_phase_grid_refuses_non_finite_values(tmp_path, bad):
    # a nan would render as an all-black PGM; a file of the older layout,
    # with its metadata line, is refused as well
    with pytest.raises(ValueError, match="grid values must be finite"):
        PhaseGrid(np.array([[0.0, 1.0], [2.0, float(bad)]]))
    path = tmp_path / "grid.csv"
    path.write_text(f"# demo\n# sm,0.9,2.0,16,3,2\n0.0,2.0\n1.0,{bad}\n")
    with pytest.raises(ValueError, match="grid values must be finite"):
        load_grid(path)


def test_phase_grid_side_is_read_from_its_values():
    grid = PhaseGrid(np.arange(9.0).reshape(3, 3))
    assert grid.s == 3 and [f.name for f in dataclasses.fields(grid)] == ["values"]


def test_phase_grid_freezes_a_copy_of_the_callers_array():
    values = np.arange(4.0).reshape(2, 2)
    grid = PhaseGrid(values)
    assert values.flags.writeable and not grid.values.flags.writeable
    values[0, 0] = 9.0
    assert grid.values.tolist() == [[0.0, 1.0], [2.0, 3.0]]


def test_zero_perturbation_scan_is_all_zero():
    # |f| sits at 1 up to rounding, so the summed rises are pure jitter
    grid = scan_phase_space("sm", 1.1, 0.0, 64, 20, 4)
    assert np.all(grid.values < 1e-12)


def test_sweep_results_follow_cell_order():
    # each row carries its cell's K and dkh exactly as given: dkh = 1.7 at
    # sm N=60 and 0.7 at hm N=20 do not survive dkh -> delta_k -> dkh
    specs = [SweepSpec(family="sm", k_values=(0.5, 2.5), dkh_values=(1.0, 2.0),
                       n=64, t_max=30)]
    for family, n, dkh in (("sm", 60, 1.7), ("hm", 20, 0.7)):
        specs += [SweepSpec(family=family, k_values=(0.3, 0.9), dkh_values=(dkh,),
                            n=n, t_max=5, kind=kind, s=2)
                  for kind in ("trace", "pure-average")]
    for spec in specs:
        results = sweep(spec)
        assert [(r.k, r.dkh) for r in results] == spec.cells()
        assert all(r.value >= 0.0 for r in results)


def test_average_sweep_matches_grid_mean():
    grid = scan_phase_space("sm", 0.9, 2.0, 64, 50, 4)
    spec = SweepSpec(family="sm", k_values=(0.9,), dkh_values=(2.0,), n=64,
                     t_max=50, kind="pure-average", s=4)
    (result,) = sweep(spec)
    assert abs(result.value - grid.values.mean()) < 1e-12


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


@pytest.mark.parametrize("route,columns", [("trace", 64), ("scan", 16), ("sweep", 1)])
def test_peak_memory_does_not_grow_with_horizon(route, columns):
    # overlaps are reduced kick by kick; a (T+1) x columns complex buffer
    # would add 16 * columns bytes per kick, and the allowance is an eighth.
    # A trace-sweep cell keeps no series, so even one stored column fails
    pair = PerturbedPair.from_dkh(MapSpec(family="sm", n=64, k=0.9), 2.0)
    runs = {
        "trace": lambda t: fidelity_trace(pair, t),
        "scan": lambda t: scan_phase_space("sm", 0.9, 2.0, 64, t, 4),
        "sweep": lambda t: sweep(SweepSpec(family="sm", k_values=(0.9,), dkh_values=(2.0,),
                                           n=64, t_max=t)),
    }
    run = runs[route]
    run(1)  # the first call fills one-off caches
    short, long = _peak_bytes(lambda: run(50)), _peak_bytes(lambda: run(800))
    assert long - short < (800 - 50) * 16 * columns / 8


def test_start_states_are_built_per_block(monkeypatch):
    # 32-row blocks at N=64, with room for U0 and one perturbed map: going
    # from s=8 to s=32 adds 960 coherent states, 0.98 MB of complex start
    # rows if they were all built up front; the allowance is a quarter of that
    monkeypatch.setattr(maps, "BLOCK_ELEMENTS", 1 << 12)

    def scan(s):
        return scan_phase_space("sm", 0.9, 2.0, 64, 5, s)

    scan(2)  # the first call fills one-off caches
    small, large = _peak_bytes(lambda: scan(8)), _peak_bytes(lambda: scan(32))
    assert large - small < (32**2 - 8**2) * 64 * 16 / 4


def test_line_scan_returns_points_in_order():
    points = [PhasePoint(0.25, 0.5), PhasePoint(0.75, 0.0)]
    out = line_scan("sm", 0.9, 2.0, 64, 50, points)
    grid = scan_phase_space("sm", 0.9, 2.0, 64, 50, 4)
    assert out.shape == (2,)
    assert abs(out[0] - grid.values[1, 2]) < 1e-12
    assert abs(out[1] - grid.values[3, 0]) < 1e-12
    with pytest.raises(ValueError):
        line_scan("sm", 0.9, 2.0, 64, 50, [])
    with pytest.raises(ValueError, match="t_max"):
        line_scan("sm", 0.9, 2.0, 64, 0, points)


def test_blocked_scan_matches_unsplit_scan(monkeypatch):
    # the 16 centers of a 4 x 4 grid at N=64 form 10 parity orbits; a budget
    # of 6 rows leaves room for U0 and the one perturbed map of 3 rows, so
    # the representatives run in blocks of 3, 3, 3 and a ragged 1
    whole = scan_phase_space("sm", 0.9, 2.0, 64, 50, 4)
    sizes = []

    def spy(u0, u1s, start, t_max):
        sizes.append(start.shape[0])
        return _overlaps(u0, u1s, start, t_max)

    monkeypatch.setattr(maps, "BLOCK_ELEMENTS", 6 * 64)
    monkeypatch.setattr(scans, "_overlaps", spy)
    split = scan_phase_space("sm", 0.9, 2.0, 64, 50, 4)
    assert sizes == [3, 3, 3, 1]
    assert np.abs(split.values - whole.values).max() < 1e-13


def _spy_rows(monkeypatch) -> list[int]:
    """Start rows of every _overlaps call that scans makes, in call order."""
    rows = []

    def spy(u0, u1s, start, t_max):
        rows.append(start.shape[0])
        return _overlaps(u0, u1s, start, t_max)

    monkeypatch.setattr(scans, "_overlaps", spy)
    return rows


def _spy_passes(monkeypatch) -> list[tuple[int, int]]:
    """(start rows, perturbed maps) of every pass that echo and scans run, in call order."""
    passes = []

    def spy(u0, u1s, start, t_max):
        passes.append((start.shape[0], len(u1s)))
        return _overlaps(u0, u1s, start, t_max)

    monkeypatch.setattr(echo, "_overlaps", spy)
    monkeypatch.setattr(scans, "_overlaps", spy)
    return passes


_DIAGONAL = [PhasePoint(v, v) for v in np.linspace(0.0, 1.0, 41)]  # acceptance check 6


def test_scans_evolve_one_center_per_parity_orbit(monkeypatch):
    # hm at even N has parity and the half shift (q, p) -> (q + 1/2, -p - 1/2):
    # the 4 fixed points of parity pair up into 2 orbits, and the other 252
    # grid centers fall into 63 orbits of four, 65 in all.  On check 6's
    # diagonal (q, p) = (v, v) the end points are one point, v pairs with
    # 1 - v under parity, and the half shift joins (0, 0) with (1/2, 1/2);
    # only 15 of the 41 parity images agree bit for bit, so 20 orbits remain.
    # sm has parity alone: 4 fixed points and 126 pairs.
    rows = _spy_rows(monkeypatch)
    grid = scan_phase_space("hm", 0.2, 2.0, 64, 5, 16)
    diagonal = line_scan("hm", 0.1, 2.0, 64, 5, _DIAGONAL)
    sweep(SweepSpec(family="sm", k_values=(0.9,), dkh_values=(1.0, 2.0), n=64, t_max=5,
                    kind="pure-average", s=16))
    assert rows == [65, 20, 130]
    # every center takes the value of its representative, so images agree exactly
    values = grid.values
    assert np.array_equal(values, np.roll(values[::-1, ::-1], 1, axis=(0, 1)))
    s = grid.s
    i, j = np.indices(values.shape)
    assert np.array_equal(values, values[(i + s // 2) % s, (-j - s // 2) % s])
    assert np.array_equal(diagonal, diagonal[::-1])


def test_centers_in_one_lattice_cell_are_evolved_once(monkeypatch):
    # 0.25 lies on the 2**-44 lattice and 0.25 + 1e-14 is 0.18 steps off it:
    # one point, though the two are not equal bit for bit
    rows = _spy_rows(monkeypatch)
    points = [PhasePoint(0.25, 0.4), PhasePoint(0.25 + 1e-14, 0.4)]
    values = line_scan("hm", 0.3, 2.0, 64, 5, points)
    assert rows == [1] and values[0] == values[1]


def test_centers_1e_10_apart_are_evolved_separately(monkeypatch):
    # 1e-10 is about 1760 steps of the lattice: two points, each evolved, and
    # each value that of the center evolved alone
    rows = _spy_rows(monkeypatch)
    points = [PhasePoint(0.25, 0.4), PhasePoint(0.25 + 1e-10, 0.4)]
    values = line_scan("hm", 0.3, 2.0, 64, 5, points)
    assert rows == [2]
    assert values.tolist() == [line_scan("hm", 0.3, 2.0, 64, 5, [c])[0] for c in points]


def test_a_center_just_below_zero_is_the_center_at_zero(monkeypatch):
    rows = _spy_rows(monkeypatch)
    values = line_scan("sm", 0.98, 2.0, 64, 5, [PhasePoint(-1e-17, 0.3), PhasePoint(0.0, 0.3)])
    assert rows == [1] and values[0] == values[1]
    # a coordinate stored as 1.0 folds onto 0 on the lattice too
    u0 = MapSpec(family="hm", n=63, k=0.5)
    reps, index = scans._orbit_representatives(u0, [SimpleNamespace(q=1.0, p=0.3),
                                                    PhasePoint(0.0, 0.3)])
    assert reps.tolist() == [[1.0, 0.3]] and index.tolist() == [0, 0]


@pytest.mark.parametrize("family,n", [("hm", 63), ("sm", 64), ("hm", 7)])
def test_parity_alone_pairs_odd_hm_and_sm(monkeypatch, family, n):
    # the half shift needs N/2 grid steps and an hm drift, so these maps
    # keep the parity pairs of an s=16 grid: 4 fixed points and 126 pairs,
    # also at small N, since coherent states are periodized to rounding
    rows = _spy_rows(monkeypatch)
    scan_phase_space(family, 0.98, 2.0, n, 5, 16)
    assert rows == [130]


@pytest.mark.parametrize("family,n", [("sm", 63)])
def test_unpaired_scans_evolve_every_center(monkeypatch, family, n):
    # sm at odd N has no symmetry, so every distinct center is evolved: the
    # diagonal's ends (0, 0) and (1, 1) are one point of the torus and share
    # one evolution
    assert not MapSpec(family=family, n=n, k=0.98).symmetries
    rows = _spy_rows(monkeypatch)
    scan_phase_space(family, 0.98, 2.0, n, 5, 16)
    values = line_scan(family, 0.98, 2.0, n, 5, _DIAGONAL)
    assert rows == [256, 40]
    assert values[0].tobytes() == values[-1].tobytes()


def test_paired_scans_rerun_byte_identical(tmp_path):
    runs = []
    for i in range(2):
        path = tmp_path / f"grid{i}.csv"
        save_grid(scan_phase_space("hm", 0.2, 2.0, 64, 30, 8), path)
        runs.append((path.read_bytes(),
                     line_scan("sm", 0.9, 2.0, 64, 30, _DIAGONAL).tobytes()))
    assert runs[0] == runs[1]


def test_row_pool_never_outnumbers_the_rows(monkeypatch):
    # a thread pool stands in for the process pool and records its size, so
    # no process starts; one row runs in this process and needs no pool
    import concurrent.futures

    sizes = []

    class Recorded(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    assert scans._run_rows(abs, [-1.5], 4, None, 1) == [1.5]
    assert scans._run_rows(abs, [-1.5, 2.0], 4, None, 1) == [1.5, 2.0]
    assert scans._run_rows(abs, [-1.5, 2.0, -3.0], 2, None, 1) == [1.5, 2.0, 3.0]
    assert sizes == [2, 2]


def test_sweep_row_results_do_not_depend_on_maps_per_pass(monkeypatch):
    # six dkh per K row at N=32: G = 1, 2 and 5 perturbed blocks per pass
    # (six passes of one, 2+2+2 and 5+1) give the same bits as one pass per cell.
    # A trace pass holds the 17 rows of the halved basis; a pure-average pass
    # holds one of the 5 parity representatives of the s=3 grid, since the
    # budget fits one row of U0 and g maps but not two rows
    dkh = (0.5, 1.0, 1.7, 2.0, 2.4, 3.1)
    groups = {1: [1] * 6, 2: [2, 2, 2], 5: [5, 1]}
    passes = _spy_passes(monkeypatch)
    results = {}
    for kind in ("trace", "pure-average"):
        spec = SweepSpec(family="sm", k_values=(0.5, 1.3), dkh_values=dkh, n=32,
                         t_max=25, kind=kind, s=3)
        rows, starts = (32 // 2 + 1, 2) if kind == "trace" else (1, 2 * 5)
        for g in (1, 2, 5):
            monkeypatch.setattr(maps, "BLOCK_ELEMENTS", (g + 1) * rows * 32)
            assert len(next(echo._passes(dkh, rows, 32))) == g
            passes.clear()
            results[kind, g] = sweep(spec)
            assert passes == [(rows, size) for size in groups[g]] * starts
        values = {g: np.array([r.value for r in results[kind, g]]) for g in (1, 2, 5)}
        assert np.array_equal(values[2], values[1])
        assert np.array_equal(values[5], values[1])
    u0 = MapSpec(family="sm", n=32, k=0.5)
    single = [measure(fidelity_trace(PerturbedPair.from_dkh(u0, d), 25)).value for d in dkh]
    assert np.array_equal([r.value for r in results["trace", 5][:6]], single)


@pytest.mark.parametrize("family,n", [("sm", 64), ("sm", 63), ("hm", 64)])
def test_trace_sweep_value_is_the_measure_of_its_series(family, n):
    # sm at even N runs the chirp frame and the halved basis, sm at odd N
    # the full basis; the streamed rise sum matches the stored series exactly
    t_max = 300
    spec = SweepSpec(family=family, k_values=(0.9,), dkh_values=(1.0, 2.0), n=n, t_max=t_max)
    u0 = MapSpec(family=family, n=n, k=0.9)
    stored = [measure_value(np.abs(fidelity_trace(PerturbedPair.from_dkh(u0, d), t_max).values))
              for d in spec.dkh_values]
    assert [r.value for r in sweep(spec)] == stored


def test_sweep_propagates_u0_once_per_k_row(monkeypatch):
    # 3 K x 2 dkh: one pass per K row, each evolving U0 and both perturbed maps
    passes = []

    def spy(u0, u1s, start, t_max):
        passes.append((u0.k, len(u1s)))
        return _overlaps(u0, u1s, start, t_max)

    monkeypatch.setattr(echo, "_overlaps", spy)
    monkeypatch.setattr(scans, "_overlaps", spy)
    for kind in ("trace", "pure-average"):
        passes.clear()
        spec = SweepSpec(family="sm", k_values=(0.5, 0.98, 2.5), dkh_values=(1.0, 2.0),
                         n=32, t_max=5, kind=kind, s=2)
        sweep(spec)
        assert passes == [(0.5, 2), (0.98, 2), (2.5, 2)]


@pytest.mark.parametrize("family,n,rows", [("sm", 32, 17), ("sm", 31, 31), ("hm", 31, 16)])
def test_trace_sweep_sizes_its_passes_by_the_rows_it_holds(monkeypatch, family, n, rows):
    sizes = []

    def spy(u0, u1s, start, t_max):
        sizes.append(start.shape)
        return _overlaps(u0, u1s, start, t_max)

    passes = echo._passes
    calls = []
    monkeypatch.setattr(echo, "_overlaps", spy)
    monkeypatch.setattr(echo, "_passes", lambda u1s, *a: calls.append(a) or passes(u1s, *a))
    sweep(SweepSpec(family=family, k_values=(0.5, 0.9), dkh_values=(1.0, 2.0), n=n, t_max=3))
    assert sizes == [(rows, n)] * 2
    assert calls == [(rows, n)] * 2


def test_maps_per_pass_are_capped_by_the_budget(monkeypatch):
    # with the budget at one N x N block, G = 1: a pass holds U0's block and
    # one perturbed block, so five dkh values in a row cost no more memory
    # than one; uncapped, the five-dkh pass would hold four blocks (256 KB at
    # N=64) more.  The slack is a quarter block.
    n = 64
    monkeypatch.setattr(maps, "BLOCK_ELEMENTS", n * n)
    assert [len(group) for group in echo._passes([1.0] * 5, n, n)] == [1] * 5

    def run(dkh_values):
        sweep(SweepSpec(family="sm", k_values=(0.9,), dkh_values=dkh_values, n=n, t_max=20))

    run((1.0,))  # the first call fills one-off caches
    one = _peak_bytes(lambda: run((1.0,)))
    five = _peak_bytes(lambda: run((1.0, 1.5, 2.0, 2.5, 3.0)))
    assert five <= one + n * n * 16 / 4


def _pure_average_row(n: int, s: int, dkh_values):
    return sweep(SweepSpec(family="sm", k_values=(0.9,), dkh_values=dkh_values, n=n, t_max=3,
                           kind="pure-average", s=s))


def test_a_pure_pass_fits_the_budget(monkeypatch):
    # a block of representatives leaves room for U0 and every perturbed map,
    # so a pass holds one budget of blocks; the start rows, the overlaps and
    # numpy's buffers come on top.  Rows sized by the budget alone, with U0
    # and the maps on top, held two budgets (2.34 here)
    n = 512
    budget = 64 * n
    monkeypatch.setattr(maps, "BLOCK_ELEMENTS", budget)
    for run in (lambda: scan_phase_space("sm", 0.9, 2.0, n, 3, 16),
                lambda: _pure_average_row(n, 16, (1.0, 2.0, 3.0))):
        run()  # the first call fills one-off caches
        assert _peak_bytes(run) <= 1.5 * budget * 16


def test_pure_average_row_propagates_u0_once_per_block(monkeypatch):
    # 10 parity representatives of a 4 x 4 grid at N=32 and a budget of 10
    # rows: blocks of 2 rows leave room for U0 and all three maps.  Filling
    # the budget with 10 rows would leave room for no map beside U0, and U0
    # would run again for every dkh value
    whole = _pure_average_row(32, 4, (1.0, 2.0, 3.0))
    monkeypatch.setattr(maps, "BLOCK_ELEMENTS", 10 * 32)
    passes = _spy_passes(monkeypatch)
    split = _pure_average_row(32, 4, (1.0, 2.0, 3.0))
    assert passes == [(2, 3)] * 5
    assert [r.value for r in split] == [r.value for r in whole]


def test_scan_is_deterministic():
    a = scan_phase_space("hm", 0.2, 2.0, 64, 30, 4)
    b = scan_phase_space("hm", 0.2, 2.0, 64, 30, 4)
    assert np.array_equal(a.values, b.values)


def test_parallel_sweep_matches_serial():
    for kind, s, workers in (("trace", 16, 3), ("pure-average", 4, 2)):
        spec = SweepSpec(family="sm", k_values=(0.5, 1.0, 2.5), dkh_values=(2.0,),
                         n=64, t_max=30, kind=kind, s=s)
        serial = sweep(spec, workers=1)
        parallel = sweep(spec, workers=workers)
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
    # the header, then one row per momentum index
    assert lines[0] == "# demo"
    assert lines[1:] == [",".join(repr(float(v)) for v in grid.values[:, j]) for j in range(4)]
    assert load_grid(path).values.tobytes() == grid.values.tobytes()
    save_grid(grid, path)
    assert path.read_text().splitlines() == lines[1:]
    assert load_grid(path).values.tobytes() == grid.values.tobytes()


def test_grid_file_with_a_metadata_line_still_loads(tmp_path):
    # grid files once held a `# family,k,dkh,n,t_max,s` line under the echo;
    # it reads as a comment
    grid = scan_phase_space("hm", 0.2, 2.0, 16, 5, 3)
    path = tmp_path / "grid.csv"
    save_grid(grid, path, header="torus-echo phase-scan dkh=2 k=0.2 map=hm n=16 s=3 t=5")
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], "# hm,0.2,2.0,16,5,3", *lines[1:]]) + "\n")
    assert load_grid(path).values.tobytes() == grid.values.tobytes()


def test_grid_load_skips_blank_lines(tmp_path):
    # a file edited by hand may hold blank lines between and after the rows
    grid = scan_phase_space("hm", 0.2, 2.0, 16, 10, 3)
    path = tmp_path / "grid.csv"
    save_grid(grid, path, header="demo")
    lines = path.read_text().splitlines()
    path.write_text("\n".join([*lines[:2], "", *lines[2:], "   "]) + "\n\n")
    assert load_grid(path).values.tobytes() == grid.values.tobytes()


def test_refusals_of_grids_and_their_files(tmp_path):
    with pytest.raises(ValueError, match="grid side must be >= 1, got 0"):
        scan_phase_space("sm", 0.9, 2.0, 16, 3, 0)
    path = tmp_path / "grid.csv"
    # every refusal names the file
    for body, match in (("", "non-empty s x s square"),
                        ("0.5,0.25\n0.125\n", "do not form an s x s square"),
                        ("0.5,0.25\n", "do not form an s x s square"),
                        ("0.5\n0.25\n", "do not form an s x s square"),
                        ("0.5,nan\n0.125,1.0\n", "grid values must be finite"),
                        ("0.5,0.25\n-inf,1.0\n", "grid values must be finite"),
                        ("0.5,x\n0.125,1.0\n", "could not convert string to float: 'x'")):
        path.write_text("# demo\n" + body)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{re.escape(match)}"):
            load_grid(path)


def test_pgm_rendering_scales_min_to_max(tmp_path):
    values = np.array([[0.0, 1.0], [2.0, 3.0]])
    grid = PhaseGrid(values)
    path = tmp_path / "grid.pgm"
    save_grid_pgm(grid, path)
    data = path.read_bytes()
    assert data.startswith(b"P5 2 2 255\n")
    # raster rows go top to bottom in decreasing p: ((1,3) then (0,2)) / 3
    assert data[-4:] == bytes([85, 255, 0, 170])


def test_pgm_constant_grid_is_black(tmp_path):
    grid = PhaseGrid(np.full((2, 2), 0.7))
    path = tmp_path / "flat.pgm"
    save_grid_pgm(grid, path)
    assert path.read_bytes()[-4:] == bytes(4)


def test_trace_peak_sits_at_harper_transition():
    spec = SweepSpec(family="hm", k_values=(0.1, 0.2, 0.5), dkh_values=(2.0,),
                     n=256, t_max=1000)
    vals = {r.k: r.value for r in sweep(spec, workers=3)}
    assert vals[0.2] > vals[0.1] and vals[0.2] > vals[0.5]


def test_average_peak_sits_at_harper_transition():
    spec = SweepSpec(family="hm", k_values=(0.1, 0.2, 0.5), dkh_values=(2.0,),
                     n=256, t_max=1000, kind="pure-average", s=16)
    vals = {r.k: r.value for r in sweep(spec, workers=3)}
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
    vals = {r.k: r.value for r in sweep(spec, workers=3)}
    assert vals[0.98] > vals[0.5] and vals[0.98] > vals[2.5]


@pytest.mark.xfail(
    strict=True,
    reason="the coherent-grid average at N=256, T=1000 puts K=0.5 above "
    "K=0.98",
)
def test_average_peak_sits_at_standard_map_border():
    spec = SweepSpec(family="sm", k_values=(0.5, 0.98, 2.5), dkh_values=(2.0,),
                     n=256, t_max=1000, kind="pure-average", s=16)
    vals = {r.k: r.value for r in sweep(spec, workers=3)}
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
