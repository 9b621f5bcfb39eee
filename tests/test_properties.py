"""Property tests: the split-operator routes against dense matrices, and
lossless round trips of the series and grid files.

The reference builds each map as F^dag D F V from an explicit DFT matrix F
and the phase formulas of the maps module docstring, so it shares no code
with the FFT kernel; odd N and N = 2 are drawn too.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from torus_echo.echo import (
    FidelitySeries,
    fidelity_from_state,
    fidelity_trace,
    load_series,
    save_series,
)
from torus_echo.maps import MapSpec, PerturbedPair
from torus_echo.scans import PhaseGrid, load_grid, save_grid
from torus_echo.torus import TorusState

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
@given(**maps)
def test_zero_perturbation_keeps_fidelity_at_one(family, n, k, t_max, seed):
    pair = PerturbedPair.from_dkh(MapSpec(family=family, n=n, k=k), 0.0)
    trace = fidelity_trace(pair, t_max).values
    pure = fidelity_from_state(pair, _random_state(n, seed), t_max).values
    assert np.abs(trace - 1.0).max() <= 1e-12
    assert np.abs(pure - 1.0).max() <= 1e-12


finite = st.floats(allow_nan=False, allow_infinity=False)
# signed zeros, the smallest subnormal and values near the top of the range
edge_values = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]


@derandomized
@given(
    values=st.lists(st.builds(complex, finite, finite), min_size=1, max_size=20),
    kind=st.sampled_from(["pure", "trace"]),
)
@example(values=[complex(a, b) for a in edge_values for b in edge_values], kind="pure")
def test_series_file_round_trip_is_bit_exact(tmp_path_factory, values, kind):
    series = FidelitySeries(np.array(values, dtype=complex), kind=kind)
    path = tmp_path_factory.mktemp("series") / "series.csv"
    save_series(series, path, header="demo")
    back = load_series(path)
    assert back.kind == kind
    assert back.values.tobytes() == series.values.tobytes()


@derandomized
@given(
    family=st.sampled_from(["sm", "hm"]),
    k=finite,
    dkh=finite,
    n=st.integers(2, 4096),
    t_max=st.integers(1, 10**6),
    values=st.integers(1, 6).flatmap(lambda s: arrays(float, (s, s), elements=finite)),
)
@example(family="sm", k=-0.0, dkh=5e-324, n=2, t_max=1, values=np.array([[-1e308]]))
def test_grid_file_round_trip_is_bit_exact(tmp_path_factory, family, k, dkh, n, t_max, values):
    s = values.shape[0]
    grid = PhaseGrid(family=family, k=k, dkh=dkh, n=n, t_max=t_max, s=s, values=values)
    path = tmp_path_factory.mktemp("grid") / "grid.csv"
    save_grid(grid, path, header="demo")
    back = load_grid(path)
    assert (back.family, back.n, back.t_max, back.s) == (family, n, t_max, s)
    assert (repr(back.k), repr(back.dkh)) == (repr(k), repr(dkh))
    assert back.values.tobytes() == grid.values.tobytes()
