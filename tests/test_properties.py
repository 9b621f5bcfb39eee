"""Property tests: the split-operator routes against dense matrices.

The reference builds each map as F^dag D F V from an explicit DFT matrix F
and the phase formulas of the maps module docstring, so it shares no code
with the FFT kernel; odd N and N = 2 are drawn too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_echo.echo import fidelity_from_state, fidelity_trace
from torus_echo.maps import MapSpec, PerturbedPair
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
