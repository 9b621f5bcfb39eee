"""Workloads, traced calls and correctness checks of the torus-echo benchmark.

Every job runs in a fresh process (see worker.py): one job at a time, the
next starts when the previous one ends (a closed loop with one client).  Each
job passes ``--threads 1`` to the command line and runs with
TORUS_ECHO_THREADS unset, pinned to one CPU with BLAS threads capped at 1,
so all of its work stays in that one process.

Workloads, and the layers each is meant to load or bypass:

trace-sweep    ``nm-sweep --map sm --k-values 0.5,0.98,2.5 --dkh-values 1,2
               --n 256 --t 100``.  Nearly all of its time is the N-column
               trace propagation in ``echo``; ``measures`` costs about 1 ms a
               cell.  Each K is paired with two dkh values, so a per-(family,
               N, K) U0 cache or an eigenphase trace route shows here.
pure-scan      ``phase-scan --map hm --k 0.2 --dkh 2 --n 256 --t 500 --s 16``.
               Runs 256 coherent columns through ``scans._measure_columns``,
               whose (T+1) x columns result buffer is the largest live
               allocation, so streaming measures or a single kernel show in
               time and in memory.  The trace route is never taken.
classical-blp  ``fidelity --kind trace --map sm --k 0.5 --dkh 1 --n 128
               --t 200``, read back with ``load_series`` and fed to
               ``closed_form`` and ``blp_sampled(n_pairs=500)``; then
               ``diffusion --k-values 0.5,2.5 --horizon 1000 --orbits 4000``
               and ``classical-nm --k-values 0.98 --delta-k 0.0245 --grid 32
               --t 2000``.  The qubit Python loop and the vectorized classical
               step take almost all of the time; quantum propagation is a
               small share.  A write sits beside a read, so an I/O change that
               helps one side and hurts the other shows.  The seed reaches
               ``--seed`` of diffusion and the BLP pair draw; the other two
               workloads have no random inputs.
               The series is the regular sm K=0.5, dkh=1 one: on the chaotic
               K=2.5 series |f| sits at its 1/N floor, where 500 random axes
               miss the rises and the sampled BLP falls below 0.98 of the
               closed form for some seeds (0.92 at worst over 1000 seeds).

Layer metrics of the traced run, and the end-to-end metric each should move:

  layer      metrics                                  moves
  cli        cli.parse_s                              setup_s, wall_s on all three
  torus      torus.coherent_s, torus.states           wall_s on pure-scan
  maps       maps.pair_s, maps.pairs                  wall_s, setup_s on trace-sweep
  echo       echo.trace_s, echo.trace_calls,          wall_s, peak_rss_mb on
             echo.column_kicks (2 T N a call),        trace-sweep
             echo.column_kicks_per_s, echo.peak_alloc_mb
  echo I/O   echo.save_s, echo.load_s, echo.io_bytes  wall_s on classical-blp
  measures   measures.measure_s, measures.series      wall_s on trace-sweep
  scans      scans.scan_s, scans.columns,             wall_s, peak_rss_mb on
             scans.column_kicks, scans.column_kicks_per_s,  pure-scan
             scans.peak_alloc_mb, scans.save_s, scans.io_bytes
  qubit      qubit.blp_s, qubit.closed_form_s,        wall_s on classical-blp
             qubit.pair_kicks, qubit.pair_kicks_per_s,
             qubit.sampled_over_closed
  classical  classical.diffusion_s, classical.nm_s,   wall_s on classical-blp
             classical.orbit_steps, classical.orbit_steps_per_s,
             classical.peak_alloc_mb

``<layer>.self_s`` is each layer's self time and ``harness.self_s`` the time
of a traced job spent outside every library call.  A layer a workload never
calls reports 0.  ``semiclassics`` is left out: it costs under 1 ms a call.

The traced job makes the calls the command line makes, from outside the
library: a trace-sweep cell is ``PerturbedPair.from_dkh``, ``fidelity_trace``
and ``measure``, as ``sweep_mm`` does at one worker; pure-scan is one
``scan_phase_space`` span.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from torus_echo import cli
from torus_echo.classical import classical_nm_grid, diffusion_coefficient
from torus_echo.echo import fidelity_trace, load_series, save_series
from torus_echo.maps import MapSpec, PerturbedPair
from torus_echo.measures import measure
from torus_echo.qubit import blp_sampled, closed_form
from torus_echo.scans import save_grid, save_grid_pgm, scan_phase_space
from torus_echo.torus import PhasePoint, coherent_state

DEFAULT_SEED = 0

# "full" is what the benchmark measures; "smoke" is the scaled-down shape
# that selftest.py runs.
SHAPES = {
    "full": {
        "trace-sweep": dict(map="sm", k_values=(0.5, 0.98, 2.5), dkh_values=(1.0, 2.0),
                            n=256, t=100),
        "pure-scan": dict(map="hm", k=0.2, dkh=2.0, n=256, t=500, s=16),
        "classical-blp": dict(map="sm", k=0.5, dkh=1.0, n=128, t=200, n_pairs=500,
                              diffusion_k=(0.5, 2.5), horizon=1000, orbits=4000,
                              nm_k=0.98, delta_k=0.0245, grid=32, nm_t=2000),
    },
    "smoke": {
        "trace-sweep": dict(map="sm", k_values=(0.5, 0.98, 2.5), dkh_values=(1.0, 2.0),
                            n=32, t=20),
        "pure-scan": dict(map="hm", k=0.2, dkh=2.0, n=32, t=40, s=4),
        "classical-blp": dict(map="sm", k=0.5, dkh=1.0, n=32, t=40, n_pairs=500,
                              diffusion_k=(0.5, 2.5), horizon=100, orbits=400,
                              nm_k=0.98, delta_k=0.0245, grid=8, nm_t=200),
    },
}

# Reference tolerances.  The quantum outputs are compared at rounding level
# (tight enough to catch an eigenbasis defect of |df| = 1e-2); the classical
# ones at BAND_SIGMAS times their spread across seeds, because they come from
# chaotic orbits that any reordering of floating-point work changes.
TOL_ABS = 1e-9
TOL_REL = 1e-9
J0_TOL = 0.01
BLP_LOW = 0.98
BAND_SIGMAS = 6.0

TIMED_SPANS = (
    "cli.parse", "torus.coherent", "maps.pair", "echo.trace", "echo.save", "echo.load",
    "measures.measure", "scans.scan", "scans.save", "qubit.blp", "qubit.closed_form",
    "classical.diffusion", "classical.nm",
)
COUNTERS = (
    "torus.states", "maps.pairs", "echo.trace_calls", "echo.column_kicks", "echo.io_bytes",
    "measures.series", "scans.columns", "scans.column_kicks", "scans.io_bytes",
    "qubit.pair_kicks", "classical.orbit_steps",
)
RATES = {
    "echo.column_kicks_per_s": ("echo.column_kicks", ("echo.trace",)),
    "scans.column_kicks_per_s": ("scans.column_kicks", ("scans.scan",)),
    "qubit.pair_kicks_per_s": ("qubit.pair_kicks", ("qubit.blp",)),
    "classical.orbit_steps_per_s": ("classical.orbit_steps",
                                    ("classical.diffusion", "classical.nm")),
}
LAYERS = ("cli", "torus", "maps", "echo", "measures", "scans", "qubit", "classical")
ALLOC_SPANS = {
    "echo.peak_alloc_mb": ("echo.trace",),
    "scans.peak_alloc_mb": ("scans.scan",),
    "classical.peak_alloc_mb": ("classical.diffusion", "classical.nm"),
}


def _csv(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def cli_argvs(workload: str, shapes: dict, seed: int, out_dir: str) -> list[list[str]]:
    """Command lines of one job, in the order they run."""
    tail = ["--threads", "1", "--out-dir", out_dir]
    sh = shapes
    if workload == "trace-sweep":
        return [["nm-sweep", "--map", sh["map"], "--k-values", _csv(sh["k_values"]),
                 "--dkh-values", _csv(sh["dkh_values"]), "--n", str(sh["n"]),
                 "--t", str(sh["t"])] + tail]
    if workload == "pure-scan":
        return [["phase-scan", "--map", sh["map"], "--k", f"{sh['k']:g}",
                 "--dkh", f"{sh['dkh']:g}", "--n", str(sh["n"]), "--t", str(sh["t"]),
                 "--s", str(sh["s"])] + tail]
    if workload == "classical-blp":
        return [
            ["fidelity", "--kind", "trace", "--map", sh["map"], "--k", f"{sh['k']:g}",
             "--dkh", f"{sh['dkh']:g}", "--n", str(sh["n"]), "--t", str(sh["t"])] + tail,
            ["diffusion", "--map", sh["map"], "--k-values", _csv(sh["diffusion_k"]),
             "--horizon", str(sh["horizon"]), "--orbits", str(sh["orbits"]),
             "--seed", str(seed)] + tail,
            ["classical-nm", "--map", sh["map"], "--k-values", f"{sh['nm_k']:g}",
             "--delta-k", f"{sh['delta_k']:g}", "--grid", str(sh["grid"]),
             "--t", str(sh["nm_t"])] + tail,
        ]
    raise ValueError(f"unknown workload {workload!r}")


class Tracer:
    """Spans kept in memory: name, start, end, parent and work counters.

    With ``alloc`` set, each span also records the tracemalloc peak reached
    inside it above what was live when it opened.
    """

    def __init__(self, alloc: bool = False):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.alloc = alloc

    @contextmanager
    def span(self, name: str, **counts):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None, "counts": counts}
        self.spans.append(rec)
        self._open.append(rec["id"])
        if self.alloc:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            if self.alloc:
                rec["peak_alloc"] = tracemalloc.get_traced_memory()[1] - base
            self._open.pop()


def _run_cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"torus-echo {argv[0]} exited with code {code}")


def _one(out: Path, pattern: str) -> Path:
    found = sorted(out.glob(pattern))
    if len(found) != 1:
        raise RuntimeError(f"expected one {pattern} in {out}, found {len(found)}")
    return found[0]


def _data_rows(path: Path, header: bool = True) -> list[list[str]]:
    """Comma-split rows of a CSV output, without comments and column header."""
    rows = [line.split(",") for line in path.read_text().splitlines()
            if line and not line.startswith("#")]
    return rows[1:] if header else rows


def _series_outputs(sh: dict, path: Path, series, seed: int, tracer) -> dict:
    """closed_form and blp_sampled on a loaded series (spans when traced)."""
    t = sh["t"]
    with tracer.span("qubit.closed_form"):
        closed = closed_form(series)
    with tracer.span("qubit.blp", **{"qubit.pair_kicks": sh["n_pairs"] * t}):
        sampled = blp_sampled(series, n_pairs=sh["n_pairs"], seed=seed)
    return {"series_path": str(path), "f1": abs(complex(series.values[1])),
            "dkh": sh["dkh"], "closed": closed, "sampled": sampled}


class _NoTracer:
    @contextmanager
    def span(self, name, **counts):
        yield {"counts": counts}


def plain_job(workload: str, sh: dict, seed: int, out: Path) -> dict:
    """The job as a user runs it: through ``cli.main``; outputs read back."""
    argvs = cli_argvs(workload, sh, seed, str(out))
    if workload == "trace-sweep":
        _run_cli(argvs[0])
        rows = _data_rows(_one(out, "nm_sweep_*.csv"))
        return {"cells": [[float(r[0]), float(r[1]), float(r[5])] for r in rows]}
    if workload == "pure-scan":
        _run_cli(argvs[0])
        rows = _data_rows(_one(out, "phase_scan_*.csv"), header=False)
        # one CSV row per p index: transpose to values[i_q, j_p]
        grid = np.array([[float(v) for v in r] for r in rows]).T
        return {"grid": grid.tolist(), "pgm": str(_one(out, "phase_scan_*.pgm"))}
    _run_cli(argvs[0])
    path = _one(out, "fidelity_*.csv")
    outputs = _series_outputs(sh, path, load_series(path), seed, _NoTracer())
    _run_cli(argvs[1])
    _run_cli(argvs[2])
    outputs["D"] = [[float(r[0]), float(r[2])] for r in _data_rows(_one(out, "diffusion_*.csv"))]
    outputs["nm"] = float(_data_rows(_one(out, "classical_nm_*.csv"))[0][2])
    return outputs


def traced_job(workload: str, sh: dict, seed: int, out: Path, tracer: Tracer) -> dict:
    """The same job made of direct library calls, one span around each."""
    argvs = cli_argvs(workload, sh, seed, str(out))
    parser = cli.build_parser()
    with tracer.span("cli.parse"):
        for argv in argvs:
            parser.parse_args(argv)
    if workload == "trace-sweep":
        cells, f1 = [], []
        for k in sh["k_values"]:
            for dkh in sh["dkh_values"]:
                with tracer.span("sweep.cell"):
                    with tracer.span("maps.pair", **{"maps.pairs": 1}):
                        pair = PerturbedPair.from_dkh(MapSpec(sh["map"], sh["n"], k), dkh)
                    with tracer.span("echo.trace", **{"echo.trace_calls": 1,
                                                      "echo.column_kicks": 2 * sh["t"] * sh["n"]}):
                        series = fidelity_trace(pair, sh["t"])
                    with tracer.span("measures.measure", **{"measures.series": 1}):
                        result = measure(series)
                cells.append([k, dkh, result.value])
                f1.append([dkh, abs(complex(series.values[1]))])
        return {"cells": cells, "f1": f1}
    if workload == "pure-scan":
        s = sh["s"]
        with tracer.span("torus.coherent", **{"torus.states": s * s}):
            for i in range(s):
                for j in range(s):
                    coherent_state(sh["n"], PhasePoint(i / s, j / s))
        with tracer.span("scans.scan", **{"scans.columns": s * s,
                                          "scans.column_kicks": 2 * sh["t"] * s * s}):
            grid = scan_phase_space(sh["map"], sh["k"], sh["dkh"], sh["n"], sh["t"], s)
        csv_path, pgm_path = out / "phase_scan.csv", out / "phase_scan.pgm"
        with tracer.span("scans.save") as rec:
            save_grid(grid, csv_path, header=" ".join(argvs[0]))
            save_grid_pgm(grid, pgm_path)
        rec["counts"]["scans.io_bytes"] = csv_path.stat().st_size + pgm_path.stat().st_size
        return {"grid": grid.values.tolist(), "pgm": str(pgm_path)}
    with tracer.span("maps.pair", **{"maps.pairs": 1}):
        pair = PerturbedPair.from_dkh(MapSpec(sh["map"], sh["n"], sh["k"]), sh["dkh"])
    with tracer.span("echo.trace", **{"echo.trace_calls": 1,
                                      "echo.column_kicks": 2 * sh["t"] * sh["n"]}):
        series = fidelity_trace(pair, sh["t"])
    path = out / "fidelity.csv"
    with tracer.span("echo.save") as rec:
        save_series(series, path, header=" ".join(argvs[0]))
    rec["counts"]["echo.io_bytes"] = path.stat().st_size
    with tracer.span("echo.load", **{"echo.io_bytes": path.stat().st_size}):
        loaded = load_series(path)
    outputs = _series_outputs(sh, path, loaded, seed, tracer)
    outputs["D"] = []
    for k in sh["diffusion_k"]:
        with tracer.span("classical.diffusion",
                         **{"classical.orbit_steps": sh["horizon"] * sh["orbits"]}):
            d = diffusion_coefficient(sh["map"], k, horizon=sh["horizon"],
                                      n_orbits=sh["orbits"], seed=seed)
        outputs["D"].append([k, d])
    with tracer.span("classical.nm",
                     **{"classical.orbit_steps": 2 * sh["grid"] ** 2 * sh["nm_t"]}):
        outputs["nm"] = classical_nm_grid(sh["map"], sh["nm_k"], None, sh["delta_k"],
                                          sh["grid"], sh["nm_t"])
    return outputs


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer times, counts, rates and self times of one traced job."""
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child = dict.fromkeys(dur, 0.0)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += dur[s["id"]]
    metrics = {f"{name}_s": 0.0 for name in TIMED_SPANS}
    metrics.update(dict.fromkeys(COUNTERS, 0))
    metrics.update({f"{layer}.self_s": 0.0 for layer in LAYERS + ("harness",)})
    metrics["qubit.sampled_over_closed"] = 0.0
    for s in spans:
        if s["name"] in TIMED_SPANS:
            metrics[f"{s['name']}_s"] += dur[s["id"]]
        layer = s["name"].split(".")[0]
        key = f"{layer}.self_s" if layer in LAYERS else "harness.self_s"
        metrics[key] += dur[s["id"]] - child[s["id"]]
        for name, value in s["counts"].items():
            metrics[name] += value
    for rate, (count, timed) in RATES.items():
        busy = sum(metrics[f"{name}_s"] for name in timed)
        metrics[rate] = metrics[count] / busy if busy > 0 else 0.0
    return metrics


def alloc_metrics(spans: list[dict]) -> dict[str, float]:
    """Largest tracemalloc peak, in MB, over each layer's spans."""
    return {
        metric: max((s["peak_alloc"] for s in spans if s["name"] in names), default=0) / 2**20
        for metric, names in ALLOC_SPANS.items()
    }


def run_job(workload: str, profile: str, seed: int, mode: str, out: Path) -> dict:
    """One job: ``plain`` (untraced), ``traced`` (spans) or ``alloc`` (tracemalloc)."""
    sh = SHAPES[profile][workload]
    result = {"workload": workload, "mode": mode, "shapes": sh,
              "argv": cli_argvs(workload, sh, seed, str(out))}
    start = time.perf_counter()
    if mode == "plain":
        outputs = plain_job(workload, sh, seed, out)
    else:
        tracer = Tracer(alloc=mode == "alloc")
        if tracer.alloc:
            tracemalloc.start()
        with tracer.span("job"):
            outputs = traced_job(workload, sh, seed, out, tracer)
        if tracer.alloc:
            tracemalloc.stop()
            result["metrics"] = alloc_metrics(tracer.spans)
        else:
            result["metrics"] = layer_metrics(tracer.spans)
        result["spans"] = tracer.spans
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if mode == "traced" and "closed" in outputs:
        result["metrics"]["qubit.sampled_over_closed"] = outputs["sampled"] / outputs["closed"]
    result["outputs"] = outputs
    return result


def bessel_j0(x: float) -> float:
    """J0(x) = (1/pi) int_0^pi cos(x sin th) dth by the midpoint rule.

    Independent of the library's own series; the integrand is smooth and
    periodic, so 256 points reach rounding level for |x| <= 20.
    """
    th = math.pi * (np.arange(256) + 0.5) / 256
    return float(np.mean(np.cos(x * np.sin(th))))


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= TOL_ABS + TOL_REL * abs(ref)


def _in_band(value: float, band: dict) -> bool:
    width = max(BAND_SIGMAS * band["std"], TOL_REL * abs(band["mean"]))
    return abs(value - band["mean"]) <= width


def checks(workload: str, outputs: dict, ref: dict, seed: int) -> list[list]:
    """[name, ok, detail] per checked output.

    Outputs that do not depend on the seed are compared with the stored
    reference at every seed; seed-dependent ones (the sampled BLP) only at
    the default seed.  Invariants apply at every seed.
    """
    out: list[list] = []

    def add(name, ok, detail):
        out.append([name, bool(ok), detail])

    if workload == "trace-sweep":
        got = outputs["cells"]
        add("cells.grid", [c[:2] for c in got] == [c[:2] for c in ref["cells"]],
            f"{len(got)} cells")
        for (k, dkh, m), (_, _, m_ref) in zip(got, ref["cells"]):
            add(f"M[K={k:g},dkh={dkh:g}]", _close(m, m_ref), f"{m!r} vs {m_ref!r}")
        for dkh, f1 in outputs.get("f1", []):
            j0 = abs(bessel_j0(dkh))
            add(f"|f(1)|=|J0({dkh:g})|", abs(f1 - j0) <= J0_TOL, f"{f1:.6f} vs {j0:.6f}")
    elif workload == "pure-scan":
        grid = np.asarray(outputs["grid"])
        ref_grid = np.asarray(ref["grid"])
        add("grid.shape", grid.shape == ref_grid.shape, str(grid.shape))
        if grid.shape == ref_grid.shape:
            for (i, j), v in np.ndenumerate(grid):
                add(f"grid[{i},{j}]", _close(float(v), float(ref_grid[i, j])),
                    f"{float(v)!r} vs {float(ref_grid[i, j])!r}")
        raw = Path(outputs["pgm"]).read_bytes()
        s = ref_grid.shape[0]
        head = f"P5 {s} {s} 255\n".encode()
        pix = raw[len(head):]
        add("pgm", raw.startswith(head) and len(pix) == s * s and min(pix) == 0
            and max(pix) == 255, f"{len(raw)} bytes")
    else:
        path = Path(outputs["series_path"])
        header = path.read_text().splitlines()[0].removeprefix("# ")
        loaded = load_series(path)
        again = path.with_suffix(".again.csv")
        save_series(loaded, again, header=header)
        add("series.round_trip", again.read_bytes() == path.read_bytes()
            and np.array_equal(load_series(again).values, loaded.values), str(path.name))
        j0 = abs(bessel_j0(outputs["dkh"]))
        add("|f(1)|=|J0(dkh)|", abs(outputs["f1"] - j0) <= J0_TOL,
            f"{outputs['f1']:.6f} vs {j0:.6f}")
        closed, sampled = outputs["closed"], outputs["sampled"]
        add("closed_form", _close(closed, ref["closed"]), f"{closed!r} vs {ref['closed']!r}")
        add("blp_sampled in [0.98, 1] x closed", BLP_LOW * closed <= sampled <= closed + TOL_ABS,
            f"ratio {sampled / closed:.6f}")
        if seed == DEFAULT_SEED:
            add("blp_sampled", _close(sampled, ref["sampled"]),
                f"{sampled!r} vs {ref['sampled']!r}")
        for (k, d), band in zip(outputs["D"], ref["D"]):
            add(f"D(K={k:g})", k == band["k"] and _in_band(d, band),
                f"{d:.6g} vs {band['mean']:.6g} +- {BAND_SIGMAS:g} x {band['std']:.3g}")
        add("classical_nm", _in_band(outputs["nm"], ref["nm"]),
            f"{outputs['nm']:.6g} vs {ref['nm']['mean']:.6g} +- "
            f"{BAND_SIGMAS:g} x {ref['nm']['std']:.3g}")
    return out


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas_threads_env": {k: os.environ.get(k) for k in
                                 ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS")},
            "TORUS_ECHO_THREADS": os.environ.get(cli.THREADS_ENV)}
