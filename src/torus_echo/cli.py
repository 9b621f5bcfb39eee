"""Batch front end.

Ten subcommands drive the library: fidelity series, measure sweeps, phase
space scans, classical runs, and the short-time rate check.  Every run
validates its configuration before any computation starts, writes CSV files
whose first line echoes the resolved config, and can emit a gnuplot script
next to each output.  Reruns with the same config are byte identical.

Exit codes: 0 success, 2 configuration error, 1 resource guard violation.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from .classical import classical_nm_grid, diffusion_coefficient, phase_portrait
from .echo import fidelity_pure, fidelity_trace, save_series
from .maps import GuardError, MapSpec, PerturbedPair
from .measures import NmResult
from .scans import (
    PhaseGrid,
    SweepSpec,
    line_scan,
    save_grid,
    save_grid_pgm,
    scan_phase_space,
    sweep_avg_mp,
    sweep_mm,
)
from .semiclassics import gamma_curve, short_time_check
from .torus import PhasePoint

__all__ = ["main"]

THREADS_ENV = "TORUS_ECHO_THREADS"


class CliError(Exception):
    """Configuration or input problem; carries the exit code."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _fmt(v) -> str:
    """Compact value for filenames and config echoes."""
    if isinstance(v, float):
        return f"{v:g}"
    return str(v)


def _config_echo(cmd: str, args: argparse.Namespace) -> str:
    skip = {"func", "config"}
    pairs = []
    for key in sorted(vars(args)):
        if key in skip or key == "cmd":
            continue
        val = getattr(args, key)
        if val is None:
            continue
        pairs.append(f"{key}={_fmt(val)}")
    return f"torus-echo {cmd} " + " ".join(pairs)


def finite_float(raw: str) -> float:
    """Float option type that rejects nan and inf before any compute starts."""
    val = float(raw)
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"not a finite number: {raw!r}")
    return val


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _read_config(path: str) -> dict[str, str]:
    """Flat `key = value` text; # starts a comment, blank lines ignored."""
    if not os.path.exists(path):
        raise CliError(f"config file not found: {path}")
    entries: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key = value")
            key, val = line.split("=", 1)
            entries[key.strip().replace("-", "_")] = val.strip()
    return entries


def _config_tokens(args: argparse.Namespace, entries: dict[str, str]) -> list[str]:
    """Config entries as option tokens; the first parse tells which keys exist."""
    tokens = []
    for key, raw in entries.items():
        if key in ("cmd", "func") or not hasattr(args, key):
            raise CliError(f"unknown config key: {key}")
        flag = "--" + key.replace("_", "-")
        if isinstance(getattr(args, key), bool):
            if _parse_bool(raw):
                tokens.append(flag)
        else:
            tokens.append(f"{flag}={raw}")
    return tokens


# Flags every subcommand must end up with after the config merge; grid
# parameters (K, dkh of the sweeps) are validated by _grid_values instead.
_REQUIRED = {
    "fidelity": ("map", "k", "n", "t", "dkh"),
    "nm-sweep": ("map", "n", "t"),
    "avg-mp-sweep": ("map", "n", "t"),
    "phase-scan": ("map", "k", "n", "t", "dkh", "s"),
    "line-scan": ("map", "k", "n", "t", "dkh", "q0", "p0", "q1", "p1", "points"),
    "classical-portrait": ("map", "k"),
    "diffusion": ("map",),
    "classical-nm": ("map",),
    "gamma-curve": (),
    "short-time-check": ("map", "k", "dkh", "n"),
}


def _check_required(args: argparse.Namespace) -> None:
    missing = [
        "--" + name.replace("_", "-")
        for name in _REQUIRED[args.cmd]
        if getattr(args, name, None) is None
    ]
    if missing:
        raise CliError(f"{args.cmd}: missing {', '.join(missing)}")


def _resolve_threads(args: argparse.Namespace) -> int:
    if getattr(args, "threads", None) is not None:
        hint = args.threads
    else:
        raw = os.environ.get(THREADS_ENV)
        if raw is None:
            hint = 1
        else:
            try:
                hint = int(raw)
            except ValueError:
                raise CliError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    if hint < 1:
        raise CliError(f"thread hint must be >= 1, got {hint}")
    return hint


def _positive(args: argparse.Namespace, names: list[str]) -> None:
    for name in names:
        val = getattr(args, name, None)
        if val is not None and val < 1:
            raise CliError(f"--{name.replace('_', '-')} must be >= 1, got {val}")


def _grid_values(args, prefix: str) -> tuple[float, ...]:
    """Resolve a parameter grid from --<p>-values or --<p>-min/max/points."""
    values = getattr(args, f"{prefix}_values", None)
    lo = getattr(args, f"{prefix}_min", None)
    hi = getattr(args, f"{prefix}_max", None)
    npts = getattr(args, f"{prefix}_points", None)
    if values is not None:
        if lo is not None or hi is not None or npts is not None:
            raise CliError(f"give either --{prefix}-values or a --{prefix}-min range, not both")
        try:
            grid = tuple(finite_float(tok) for tok in values.split(",") if tok.strip())
        except (ValueError, argparse.ArgumentTypeError):
            raise CliError(f"--{prefix}-values must be a comma list of finite numbers")
        if not grid:
            raise CliError(f"--{prefix}-values is empty")
        return grid
    if lo is None and hi is None and npts is None:
        single = getattr(args, prefix, None)
        if single is None:
            raise CliError(f"missing --{prefix} or --{prefix}-min/--{prefix}-max/--{prefix}-points")
        return (float(single),)
    if lo is None or hi is None or npts is None:
        raise CliError(f"--{prefix}-min, --{prefix}-max and --{prefix}-points go together")
    if npts < 1:
        raise CliError(f"--{prefix}-points must be >= 1, got {npts}")
    if npts == 1:
        return (float(lo),)
    return tuple(float(v) for v in np.linspace(lo, hi, npts))


def _grid_tag(prefix: str, grid: tuple[float, ...]) -> str:
    if len(grid) == 1:
        return f"{prefix}{_fmt(grid[0])}"
    return f"{prefix}{_fmt(min(grid))}-{_fmt(max(grid))}x{len(grid)}"


def _progress_printer(label: str):
    def progress(done_index: int, total: int) -> None:
        print(f"{label}: cell {done_index + 1}/{total}", file=sys.stderr, flush=True)

    return progress


def _out_path(args, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _write_rows(path: str, echo: str, header: str, rows: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write(f"# {echo}\n{header}\n")
        fh.write("\n".join(rows) + ("\n" if rows else ""))


def _write_results(path: str, echo: str, results: list[NmResult]) -> None:
    rows = [
        f"{r.k!r},{r.dkh!r},{r.n},{r.t_max},{r.kind},{r.value!r}"
        for r in results
    ]
    _write_rows(path, echo, "K,deltaK_over_hbar,N,T,kind,value", rows)


# ---------------------------------------------------------------------------
# plot script emission


_GP_PRELUDE = 'set datafile separator ","\nset terminal pngcairo size 900,700\n'


def emit_plot_script(kind: str, inputs: list[str], out_path: str) -> None:
    """Write a self-contained gnuplot script rendering the given files.

    Inputs are referenced by bare filename, so the script runs from the
    directory it lives in.  A missing input is a configuration error.
    """
    for path in inputs:
        if not os.path.exists(path):
            raise CliError(f"plot input not found: {path}")
    names = [os.path.basename(p) for p in inputs]
    png = os.path.splitext(os.path.basename(out_path))[0] + ".png"
    body = {
        "series": (
            "set key autotitle columnhead\nset logscale y\n"
            'set xlabel "t (kicks)"\nset ylabel "|f|"\n'
            f'plot "{names[0]}" using 1:4 with lines title "|f|"\n'
        ),
        "curve": (
            "set key autotitle columnhead\n"
            'set xlabel "K"\nset ylabel "measure"\n'
            f'plot "{names[0]}" using 1:6 with linespoints title "measure"\n'
        ),
        "heatmap": (
            "unset key\nset size square\nset palette gray\n"
            'set xlabel "q"\nset ylabel "p"\n'
            f'plot "{names[0]}" matrix with image\n'
        ),
        "line": (
            "set key autotitle columnhead\n"
            'set xlabel "q0"\nset ylabel "measure"\n'
            f'plot "{names[0]}" using 1:3 with linespoints title "measure"\n'
        ),
        "portrait": (
            "unset key\nset size square\nset xrange [0:1]\nset yrange [0:1]\n"
            'set xlabel "x"\nset ylabel "p"\n'
            f'plot "{names[0]}" using 1:2 with dots\n'
        ),
        "diffusion": (
            "set key autotitle columnhead\nset logscale y\n"
            'set xlabel "K"\nset ylabel "D"\n'
            f'plot "{names[0]}" using 1:3 with linespoints title "D"\n'
        ),
        "classical": (
            "set key autotitle columnhead\n"
            'set xlabel "K"\nset ylabel "measure"\n'
            f'plot "{names[0]}" using 1:3 with linespoints title "measure"\n'
        ),
        "gamma": (
            "set key autotitle columnhead\nceil = 10.0\nset yrange [0:ceil]\n"
            'set xlabel "dkh"\nset ylabel "Gamma"\n'
            f'plot "{names[0]}" using 1:($2 > ceil ? ceil : $2) with lines title "Gamma"\n'
        ),
    }
    if kind == "overlay":
        text = (
            "unset key\n"
            'set xlabel "dkh"\nset ylabel "K"\nset y2label "Gamma"\n'
            "set y2tics\nset y2range [0:10]\n"
            f'plot "{names[0]}" using 2:1:6 with image, '
            f'"{names[1]}" using 1:($2 > 10 ? 10 : $2) axes x1y2 with lines lc "gray"\n'
        )
    elif kind in body:
        text = body[kind]
    else:
        raise CliError(f"unknown plot kind: {kind}")
    with open(out_path, "w") as fh:
        fh.write(_GP_PRELUDE + f'set output "{png}"\n' + text)


def _maybe_plot(args, kind: str, inputs: list[str], stem: str) -> list[str]:
    if not getattr(args, "plot", False):
        return []
    script = _out_path(args, stem + ".gp")
    emit_plot_script(kind, inputs, script)
    return [script]


# ---------------------------------------------------------------------------
# subcommand runners


def _cmd_fidelity(args) -> list[str]:
    _positive(args, ["n", "t"])
    pair = PerturbedPair.from_dkh(
        MapSpec(args.map, args.n, args.k, k2=args.k2),
        args.dkh,
    )
    if args.kind == "trace":
        series = fidelity_trace(pair, args.t)
        tag = "trace"
    else:
        series = fidelity_pure(pair, PhasePoint(args.q0, args.p0), args.t)
        tag = f"pure_q{_fmt(args.q0)}_p{_fmt(args.p0)}"
    name = f"fidelity_{args.map}_k{_fmt(args.k)}_dkh{_fmt(args.dkh)}_n{args.n}_t{args.t}_{tag}.csv"
    path = _out_path(args, name)
    save_series(series, path, header=_config_echo("fidelity", args))
    return [path] + _maybe_plot(args, "series", [path], os.path.splitext(name)[0])


def _sweep_common(args, kind: str) -> tuple[SweepSpec, str]:
    _positive(args, ["n", "t"])
    k_grid = _grid_values(args, "k")
    dkh_grid = _grid_values(args, "dkh")
    spec = SweepSpec(
        family=args.map,
        k_values=k_grid,
        dkh_values=dkh_grid,
        n=args.n,
        t_max=args.t,
        kind=kind,
        s=getattr(args, "s", 16),
    )
    tag = f"{_grid_tag('k', k_grid)}_{_grid_tag('dkh', dkh_grid)}_n{args.n}_t{args.t}"
    return spec, tag


def _cmd_nm_sweep(args) -> list[str]:
    spec, tag = _sweep_common(args, "trace")
    threads = _resolve_threads(args)
    results = sweep_mm(spec, workers=threads, progress=_progress_printer("nm-sweep"))
    name = f"nm_sweep_{args.map}_{tag}.csv"
    path = _out_path(args, name)
    _write_results(path, _config_echo("nm-sweep", args), results)
    written = [path]
    if args.plot:
        stem = os.path.splitext(name)[0]
        if len(spec.dkh_values) > 1:
            gpath = _out_path(args, stem + "_gamma.csv")
            dkh_fine = np.linspace(min(spec.dkh_values), max(spec.dkh_values), 600)
            _write_gamma(gpath, _config_echo("nm-sweep", args), dkh_fine)
            written.append(gpath)
            written += _maybe_plot(args, "overlay", [path, gpath], stem)
        else:
            written += _maybe_plot(args, "curve", [path], stem)
    return written


def _cmd_avg_mp_sweep(args) -> list[str]:
    _positive(args, ["s"])
    spec, tag = _sweep_common(args, "pure-average")
    threads = _resolve_threads(args)
    results = sweep_avg_mp(spec, workers=threads, progress=_progress_printer("avg-mp-sweep"))
    name = f"avg_mp_sweep_{args.map}_{tag}_s{args.s}.csv"
    path = _out_path(args, name)
    _write_results(path, _config_echo("avg-mp-sweep", args), results)
    return [path] + _maybe_plot(args, "curve", [path], os.path.splitext(name)[0])


def _cmd_phase_scan(args) -> list[str]:
    _positive(args, ["n", "t", "s"])
    grid = scan_phase_space(args.map, args.k, args.dkh, args.n, args.t, args.s)
    stem = (
        f"phase_scan_{args.map}_k{_fmt(args.k)}_dkh{_fmt(args.dkh)}"
        f"_n{args.n}_t{args.t}_s{args.s}"
    )
    path = _out_path(args, stem + ".csv")
    save_grid(grid, path, header=_config_echo("phase-scan", args))
    pgm = _out_path(args, stem + ".pgm")
    save_grid_pgm(grid, pgm)
    return [path, pgm] + _maybe_plot(args, "heatmap", [path], stem)


def _cmd_line_scan(args) -> list[str]:
    _positive(args, ["n", "t", "points"])
    qs = np.linspace(args.q0, args.q1, args.points)
    ps = np.linspace(args.p0, args.p1, args.points)
    points = [PhasePoint(q, p) for q, p in zip(qs, ps)]
    scanned = line_scan(args.map, args.k, args.dkh, args.n, args.t, points)
    stem = f"line_scan_{args.map}_k{_fmt(args.k)}_dkh{_fmt(args.dkh)}_n{args.n}_t{args.t}"
    path = _out_path(args, stem + ".csv")
    rows = [f"{pt.q!r},{pt.p!r},{val!r}" for pt, val in scanned]
    _write_rows(path, _config_echo("line-scan", args), "q,p,value", rows)
    return [path] + _maybe_plot(args, "line", [path], stem)


def _cmd_classical_portrait(args) -> list[str]:
    _positive(args, ["orbits", "steps"])
    cloud = phase_portrait(args.map, args.k, k2=args.k2, n_orbits=args.orbits,
                           steps=args.steps, seed=args.seed)
    stem = f"portrait_{args.map}_k{_fmt(args.k)}"
    path = _out_path(args, stem + ".csv")
    rows = [f"{float(x)!r},{float(p)!r}" for x, p in cloud]
    _write_rows(path, _config_echo("classical-portrait", args), "x,p", rows)
    return [path] + _maybe_plot(args, "portrait", [path], stem)


def _cmd_diffusion(args) -> list[str]:
    _positive(args, ["horizon", "orbits"])
    k_grid = _grid_values(args, "k")
    progress = _progress_printer("diffusion")
    rows = []
    for i, k in enumerate(k_grid):
        d = diffusion_coefficient(args.map, k, k2=args.k2, horizon=args.horizon,
                                  n_orbits=args.orbits, seed=args.seed)
        rows.append(f"{k!r},{args.horizon},{d!r}")
        progress(i, len(k_grid))
    stem = f"diffusion_{args.map}_{_grid_tag('k', k_grid)}_h{args.horizon}"
    path = _out_path(args, stem + ".csv")
    _write_rows(path, _config_echo("diffusion", args), "K,horizon,D", rows)
    return [path] + _maybe_plot(args, "diffusion", [path], stem)


def _cmd_classical_nm(args) -> list[str]:
    _positive(args, ["t", "grid"])
    k_grid = _grid_values(args, "k")
    progress = _progress_printer("classical-nm")
    rows = []
    for i, k in enumerate(k_grid):
        val = classical_nm_grid(args.map, k, args.k2, args.delta_k, args.grid, args.t)
        rows.append(f"{k!r},{args.t},{val!r}")
        progress(i, len(k_grid))
    stem = f"classical_nm_{args.map}_{_grid_tag('k', k_grid)}_t{args.t}"
    path = _out_path(args, stem + ".csv")
    _write_rows(path, _config_echo("classical-nm", args), "K,T,value", rows)
    return [path] + _maybe_plot(args, "classical", [path], stem)


def _write_gamma(path: str, echo: str, dkh_values: np.ndarray) -> None:
    curve = gamma_curve(dkh_values)
    rows = [f"{float(d)!r},{float(g)!r}" for d, g in zip(dkh_values, curve)]
    _write_rows(path, echo, "dkh,gamma", rows)


def _cmd_gamma_curve(args) -> list[str]:
    _positive(args, ["points"])
    if args.dkh_max <= 0:
        raise CliError(f"--dkh-max must be positive, got {args.dkh_max}")
    dkh_values = np.linspace(0.0, args.dkh_max, args.points)
    stem = f"gamma_curve_max{_fmt(args.dkh_max)}_{args.points}"
    path = _out_path(args, stem + ".csv")
    _write_gamma(path, _config_echo("gamma-curve", args), dkh_values)
    return [path] + _maybe_plot(args, "gamma", [path], stem)


def _cmd_short_time_check(args) -> list[str]:
    _positive(args, ["n"])
    result = short_time_check(args.map, args.k, args.dkh, args.n)
    print(
        f"short-time-check {args.map} K={_fmt(args.k)} dkh={_fmt(args.dkh)} N={args.n}: "
        f"measured={result.measured:.6f} predicted={result.predicted:.6f} "
        f"residual={result.residual:.2e} diverged={result.diverged}"
    )
    return []


# ---------------------------------------------------------------------------
# parser assembly


def _add_common(sub: argparse.ArgumentParser, *, seeded: bool = False) -> None:
    sub.add_argument("--config", help="flat key = value file; flags override it")
    sub.add_argument("--out-dir", default=".", help="directory for output files")
    sub.add_argument("--threads", type=int, default=None,
                     help=f"worker pool size (default: ${THREADS_ENV} or 1)")
    sub.add_argument("--plot", action="store_true", help="emit a gnuplot script")
    if seeded:
        sub.add_argument("--seed", type=int, default=0)


def _add_map_args(sub: argparse.ArgumentParser, *, single_k: bool) -> None:
    sub.add_argument("--map", choices=("sm", "hm"))
    if single_k:
        sub.add_argument("--k", type=finite_float)
    else:
        sub.add_argument("--k", type=finite_float, help="single kick strength")
        sub.add_argument("--k-values", help="comma list of kick strengths")
        sub.add_argument("--k-min", type=finite_float)
        sub.add_argument("--k-max", type=finite_float)
        sub.add_argument("--k-points", type=int)
    sub.add_argument("--k2", type=finite_float, default=None,
                     help="hm momentum kick strength (default: --k)")


def _add_quantum_args(sub: argparse.ArgumentParser, *, dkh_grid: bool = False) -> None:
    sub.add_argument("--n", type=int, help="Hilbert space dimension")
    sub.add_argument("--t", type=int, help="number of kicks")
    if dkh_grid:
        sub.add_argument("--dkh", type=finite_float, help="single scaled perturbation")
        sub.add_argument("--dkh-values", help="comma list")
        sub.add_argument("--dkh-min", type=finite_float)
        sub.add_argument("--dkh-max", type=finite_float)
        sub.add_argument("--dkh-points", type=int)
    else:
        sub.add_argument("--dkh", type=finite_float,
                         help="scaled perturbation strength")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torus-echo",
        description="Kicked-map dephasing environments: fidelity, measures, scans.",
    )
    subs = parser.add_subparsers(dest="cmd", required=True)

    sub = subs.add_parser("fidelity", help="one fidelity series")
    _add_map_args(sub, single_k=True)
    _add_quantum_args(sub)
    sub.add_argument("--kind", choices=("pure", "trace"), default="trace")
    sub.add_argument("--q0", type=finite_float, default=0.5, help="coherent center (pure)")
    sub.add_argument("--p0", type=finite_float, default=0.5)
    _add_common(sub)
    sub.set_defaults(func=_cmd_fidelity)

    sub = subs.add_parser("nm-sweep", help="trace-measure sweep over K (and dkh)")
    _add_map_args(sub, single_k=False)
    _add_quantum_args(sub, dkh_grid=True)
    _add_common(sub)
    sub.set_defaults(func=_cmd_nm_sweep)

    sub = subs.add_parser("avg-mp-sweep", help="grid-averaged pure-measure sweep")
    _add_map_args(sub, single_k=False)
    _add_quantum_args(sub, dkh_grid=True)
    sub.add_argument("--s", type=int, default=16, help="coherent grid side")
    _add_common(sub)
    sub.set_defaults(func=_cmd_avg_mp_sweep)

    sub = subs.add_parser("phase-scan", help="pure measure on an s x s coherent grid")
    _add_map_args(sub, single_k=True)
    _add_quantum_args(sub)
    sub.add_argument("--s", type=int, help="grid side")
    _add_common(sub)
    sub.set_defaults(func=_cmd_phase_scan)

    sub = subs.add_parser("line-scan", help="pure measure along a phase-space segment")
    _add_map_args(sub, single_k=True)
    _add_quantum_args(sub)
    sub.add_argument("--q0", type=finite_float)
    sub.add_argument("--p0", type=finite_float)
    sub.add_argument("--q1", type=finite_float)
    sub.add_argument("--p1", type=finite_float)
    sub.add_argument("--points", type=int)
    _add_common(sub)
    sub.set_defaults(func=_cmd_line_scan)

    sub = subs.add_parser("classical-portrait", help="classical phase portrait cloud")
    _add_map_args(sub, single_k=True)
    sub.add_argument("--orbits", type=int, default=100)
    sub.add_argument("--steps", type=int, default=300)
    _add_common(sub, seeded=True)
    sub.set_defaults(func=_cmd_classical_portrait)

    sub = subs.add_parser("diffusion", help="classical momentum diffusion vs K")
    _add_map_args(sub, single_k=False)
    sub.add_argument("--horizon", type=int, default=16000)
    sub.add_argument("--orbits", type=int, default=4000)
    _add_common(sub, seeded=True)
    sub.set_defaults(func=_cmd_diffusion)

    sub = subs.add_parser("classical-nm", help="grid-averaged classical measure vs K")
    _add_map_args(sub, single_k=False)
    sub.add_argument("--delta-k", type=finite_float, default=1e-3)
    sub.add_argument("--t", type=int, default=20000)
    sub.add_argument("--grid", type=int, default=32, help="initial-condition grid side")
    _add_common(sub)
    sub.set_defaults(func=_cmd_classical_nm)

    sub = subs.add_parser("gamma-curve", help="short-time rate curve Gamma(dkh)")
    sub.add_argument("--dkh-max", type=finite_float, default=12.0)
    sub.add_argument("--points", type=int, default=1200)
    _add_common(sub)
    sub.set_defaults(func=_cmd_gamma_curve)

    sub = subs.add_parser("short-time-check", help="measured vs predicted t=1 rate")
    _add_map_args(sub, single_k=True)
    sub.add_argument("--dkh", type=finite_float)
    sub.add_argument("--n", type=int)
    _add_common(sub)
    sub.set_defaults(func=_cmd_short_time_check)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # config entries go in right after the subcommand, so the explicit
            # flags that follow them take precedence
            at = argv.index(args.cmd) + 1
            tokens = _config_tokens(args, _read_config(args.config))
            args = parser.parse_args(argv[:at] + tokens + argv[at:])
        _check_required(args)
        start = time.monotonic()
        written = args.func(args)
        elapsed = time.monotonic() - start
        if written:
            print(f"wrote {', '.join(written)} ({elapsed:.1f}s)")
        return 0
    except CliError as exc:
        print(f"torus-echo: {exc}", file=sys.stderr)
        return exc.code
    except GuardError as exc:
        print(f"torus-echo: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"torus-echo: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
