"""Dephasing qubit channel driven by a fidelity series.

The environment only multiplies the qubit coherence by f(t): populations are
untouched and rho_01 -> f * rho_01.  Distinguishability of two states then
evolves through the trace distance, and sampling many pure-state pairs
recovers the closed-form measure from below.  The sampled measure forms the
distances of all its pairs a block of at most measures.BLOCK_ROWS kicks at a
time, within the block budget, and measures.measure_rows sums their rises
with the bits of one kick at a time.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .maps import blocks, check_count
from .measures import BLOCK_ROWS, measure_rows, measure_value

if TYPE_CHECKING:
    from .echo import FidelitySeries

__all__ = [
    "blp_sampled",
    "bloch_state",
    "closed_form",
    "trace_distance",
]


def bloch_state(nx: float, ny: float, nz: float) -> np.ndarray:
    """Density matrix (I + n . sigma)/2 for a Bloch vector with |n| <= 1."""
    n2 = nx * nx + ny * ny + nz * nz
    if not n2 <= 1.0 + 1e-12:
        raise ValueError(f"Bloch vector has norm {np.sqrt(n2)} > 1")
    return 0.5 * np.array(
        [[1.0 + nz, nx - 1j * ny], [nx + 1j * ny, 1.0 - nz]], dtype=complex
    )


def _apply_channel(f: complex, rho: np.ndarray) -> np.ndarray:
    """Dephase a qubit state: diagonal kept, coherence scaled by f."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 density matrix, got shape {rho.shape}")
    out = rho.copy()
    out[0, 1] = f * rho[0, 1]
    out[1, 0] = np.conj(f * rho[0, 1])
    return out


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """D = Tr|rho1 - rho2| / 2 via the eigenvalues of the difference."""
    diff = np.asarray(rho1, dtype=complex) - np.asarray(rho2, dtype=complex)
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def _random_pure_pairs(n_pairs: int, seed: int) -> np.ndarray:
    """Antipodal Bloch pairs with axes drawn uniformly on the sphere.

    Distinguishability under dephasing is maximized by orthogonal pure
    states, so each draw places one state at a uniform random point and its
    partner at the opposite pole of the same axis (PCG64 stream).
    """
    rng = np.random.default_rng(seed)
    axes = rng.normal(size=(n_pairs, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    return np.stack([axes, -axes], axis=1)


def blp_sampled(series: FidelitySeries, n_pairs: int = 500, seed: int = 7) -> float:
    """Measure estimated by maximizing over sampled pure-state pairs.

    For an antipodal pair (n, -n) the dephased difference is n . sigma with
    its xy part scaled by f, so the trace distance after each kick is
    sqrt(nz^2 + |f|^2 (nx^2 + ny^2)); before the first kick it is |n|.  The
    distances of all pairs form one row per kick, in blocks of at most
    BLOCK_ROWS kicks that fit the block budget; positive jumps are summed
    along the rows, and the best pair is kept.  The same factor 2 as in the
    closed form is applied, so the estimate converges to measure_value(|f|)
    from below as n_pairs grows.
    """
    check_count("n_pairs", n_pairs)
    nx, ny, nz = _random_pure_pairs(n_pairs, seed)[:, 0].T
    nxy2, nz2 = nx * nx + ny * ny, nz * nz
    g = np.abs(series.values[1:]) ** 2
    rows = (np.sqrt(nz2 + g[kicks, None] * nxy2)
            for kicks in blocks(g.size, n_pairs, most=BLOCK_ROWS))
    return float(np.max(measure_rows(chain([np.sqrt(nxy2 + nz2)[None]], rows))))


def closed_form(series: FidelitySeries) -> float:
    """The supremum over state pairs, reached by opposite equatorial states."""
    return measure_value(np.abs(series.values))
