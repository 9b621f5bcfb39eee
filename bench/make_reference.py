"""Regenerate bench/reference.json, the values the benchmark's checks expect.

    python3 bench/make_reference.py

Quantum outputs (the M of each trace-sweep cell, the pure-scan grid, the
closed-form and, at the default seed, the sampled BLP) are taken from the
split-operator route at the default seed.  Classical outputs come from
chaotic orbits, so they are stored as a band: mean and standard deviation
over SPREAD_SEEDS seeds.  For diffusion the seed draws the initial
conditions; classical-nm has no random input, so its seeds are
rounding-level perturbations of delta_k, which change the orbits as a
reordering of floating-point work would.

Regenerate only when the reference route itself is meant to change.
"""

import json
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from torus_echo.classical import classical_nm_grid, diffusion_coefficient  # noqa: E402

SPREAD_SEEDS = 16


def band(values: list[float]) -> dict:
    return {"mean": statistics.fmean(values), "std": statistics.stdev(values)}


def reference(profile: str, work: Path) -> dict:
    seed = harness.DEFAULT_SEED
    ref = {}
    for workload in harness.SHAPES[profile]:
        out = work / profile / workload
        out.mkdir(parents=True)
        ref[workload] = harness.run_job(workload, profile, seed, "traced", out)["outputs"]
    ref["trace-sweep"] = {"cells": ref["trace-sweep"]["cells"]}
    ref["pure-scan"] = {"grid": ref["pure-scan"]["grid"]}
    sh = harness.SHAPES[profile]["classical-blp"]
    blp = ref["classical-blp"]
    blp_ref = {"closed": blp["closed"], "sampled": blp["sampled"], "D": []}
    for k in sh["diffusion_k"]:
        draws = [diffusion_coefficient(sh["map"], k, horizon=sh["horizon"],
                                       n_orbits=sh["orbits"], seed=s)
                 for s in range(SPREAD_SEEDS)]
        blp_ref["D"].append({"k": k, **band(draws)})
    draws = [classical_nm_grid(sh["map"], sh["nm_k"], None, sh["delta_k"] * (1 + 1e-12 * s),
                               sh["grid"], sh["nm_t"])
             for s in range(SPREAD_SEEDS)]
    blp_ref["nm"] = band(draws)
    ref["classical-blp"] = blp_ref
    return ref


def main() -> int:
    work = ROOT / ".bench_out" / "make-reference"
    shutil.rmtree(work, ignore_errors=True)
    try:
        refs = {profile: reference(profile, work) for profile in harness.SHAPES}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
