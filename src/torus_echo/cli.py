"""Batch front end.

Ten subcommands drive the library: fidelity series, measure sweeps, phase
space scans, classical runs, and the short-time rate check.  Every run
validates its configuration before any computation starts, writes CSV files
whose first line echoes the resolved config, and can emit a gnuplot script
next to each output.  Reruns with the same config are byte identical.

One table, _COMMANDS, gives each subcommand's runner, help text and options;
the argparse parser, the config-file merge and the required/count checks
are all read from it.

A run imports only the layers it executes.  `maps`, `torus`, `echo` and
`scans` (and through them `measures`) load with this module: the parser and
the error handling read `maps`, and the quantum runners call the others.
`classical` and `semiclassics` load inside the runners that call them, so
`phase-scan` never compiles either one, and `nm-sweep` loads `semiclassics`
only to plot a dkh grid over the rate curve.

Exit codes: 0 success, 2 configuration error, 1 resource guard violation.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .echo import fidelity_pure, fidelity_trace, save_series
from .maps import FAMILIES, GuardError, MapSpec, PerturbedPair
from .scans import (
    SweepSpec,
    _run_rows,
    line_scan,
    save_grid,
    save_grid_pgm,
    scan_phase_space,
    sweep,
)
from .torus import PhasePoint

__all__ = ["main"]

THREADS_ENV = "TORUS_ECHO_THREADS"


def _fmt(v) -> str:
    """Compact value for filenames and config echoes."""
    if isinstance(v, float):
        return f"{v:g}"
    return str(v)


def _config_echo(args: argparse.Namespace) -> str:
    pairs = [
        f"{key}={_fmt(val)}"
        for key, val in sorted(vars(args).items())
        if key != "cmd" and val is not None
    ]
    return f"torus-echo {args.cmd} " + " ".join(pairs)


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
        raise ValueError(f"config file not found: {path}")
    entries: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, val = line.split("=", 1)
            entries[key.strip().replace("-", "_")] = val.strip()
    return entries


def _resolve_threads(args: argparse.Namespace) -> int:
    hint = args.threads
    if hint is None:
        raw = os.environ.get(THREADS_ENV) or "1"  # set but empty reads as unset
        try:
            hint = int(raw)
        except ValueError:
            raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    if hint < 1:
        raise ValueError(f"thread hint must be >= 1, got {hint}")
    return hint


def _linspace(lo: float, hi: float, npts: int, flags: str) -> np.ndarray:
    """np.linspace(lo, hi, npts), refused when a point is not finite (an overflowing span)."""
    with np.errstate(over="ignore", invalid="ignore"):
        points = np.linspace(lo, hi, npts)
    if not np.isfinite(points).all():
        raise ValueError(f"{flags}: the range {lo!r} .. {hi!r} overflows to non-finite points")
    return points


def _grid_values(args, prefix: str) -> tuple[float, ...]:
    """Resolve a parameter grid from --<p>, --<p>-values or --<p>-min/max/points."""
    single = getattr(args, prefix)
    values = getattr(args, f"{prefix}_values")
    lo = getattr(args, f"{prefix}_min")
    hi = getattr(args, f"{prefix}_max")
    npts = getattr(args, f"{prefix}_points")
    ranged = lo is not None or hi is not None or npts is not None
    forms = [form for form, on in ((f"--{prefix}", single is not None),
                                   (f"--{prefix}-values", values is not None),
                                   (f"a --{prefix}-min range", ranged)) if on]
    if len(forms) > 1:
        raise ValueError(f"give either {forms[0]} or {forms[1]}, not both")
    if single is not None:
        return (single,)
    if values is not None:
        try:
            grid = tuple(finite_float(tok) for tok in values.split(",") if tok.strip())
        except (ValueError, argparse.ArgumentTypeError):
            raise ValueError(f"--{prefix}-values must be a comma list of finite numbers")
        if not grid:
            raise ValueError(f"--{prefix}-values is empty")
        return grid
    if not ranged:
        raise ValueError(f"missing --{prefix}, --{prefix}-values or "
                         f"--{prefix}-min/--{prefix}-max/--{prefix}-points")
    if lo is None or hi is None or npts is None:
        raise ValueError(f"--{prefix}-min, --{prefix}-max and --{prefix}-points go together")
    if npts < 1:
        raise ValueError(f"--{prefix}-points must be >= 1, got {npts}")
    if npts == 1:
        return (float(lo),)
    return tuple(float(v) for v in _linspace(lo, hi, npts, f"--{prefix}-min/--{prefix}-max"))


def _k2_tag(args: argparse.Namespace) -> str:
    """The file-name tag of a given --k2, empty when it is left at its default."""
    return "" if args.k2 is None else f"_k2{_fmt(args.k2)}"


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


_RESULT_HEADER = "K,deltaK_over_hbar,N,T,kind,value"


def _gamma_rows(dkh_values: np.ndarray) -> list[str]:
    from .semiclassics import gamma_curve

    curve = gamma_curve(dkh_values)
    return [f"{float(d)!r},{float(g)!r}" for d, g in zip(dkh_values, curve)]


# ---------------------------------------------------------------------------
# plot script emission


_GP_PRELUDE = 'set datafile separator ","\nset terminal pngcairo size 900,700\n'

# kind -> (set-up lines, x label, y label, plot clause after the file name)
_PLOTS = {
    "series": ("set key autotitle columnhead\nset logscale y\n", "t (kicks)", "|f|",
               'using 1:4 with lines title "|f|"'),
    "curve": ("set key autotitle columnhead\n", "K", "measure",
              'using 1:6 with linespoints title "measure"'),
    "heatmap": ("unset key\nset size square\nset palette gray\n", "q", "p",
                "matrix with image"),
    "line": ("set key autotitle columnhead\n", "q0", "measure",
             'using 1:3 with linespoints title "measure"'),
    "portrait": ("unset key\nset size square\nset xrange [0:1]\nset yrange [0:1]\n",
                 "x", "p", "using 1:2 with dots"),
    "diffusion": ("set key autotitle columnhead\nset logscale y\n", "K", "D",
                  'using 1:3 with linespoints title "D"'),
    "classical": ("set key autotitle columnhead\n", "K", "measure",
                  'using 1:3 with linespoints title "measure"'),
    "gamma": ("set key autotitle columnhead\nceil = 10.0\nset yrange [0:ceil]\n",
              "dkh", "Gamma", 'using 1:($2 > ceil ? ceil : $2) with lines title "Gamma"'),
}


def _maybe_plot(args, kind: str, inputs: list[str], stem: str) -> list[str]:
    """With --plot, write <stem>.gp, a gnuplot script rendering the inputs.

    Inputs are referenced by bare filename, so the script runs from the
    directory it lives in.
    """
    if not args.plot:
        return []
    names = [os.path.basename(p) for p in inputs]
    if kind == "overlay":
        text = (
            "unset key\n"
            'set xlabel "dkh"\nset ylabel "K"\nset y2label "Gamma"\n'
            "set y2tics\nset y2range [0:10]\n"
            f'plot "{names[0]}" using 2:1:6 with image, '
            f'"{names[1]}" using 1:($2 > 10 ? 10 : $2) axes x1y2 with lines lc "gray"\n'
        )
    else:
        setup, xlabel, ylabel, clause = _PLOTS[kind]
        text = (f'{setup}set xlabel "{xlabel}"\nset ylabel "{ylabel}"\n'
                f'plot "{names[0]}" {clause}\n')
    script = _out_path(args, stem + ".gp")
    with open(script, "w") as fh:
        fh.write(_GP_PRELUDE + f'set output "{stem}.png"\n' + text)
    return [script]


def _save(args, stem: str, header: str, rows: list[str], plot: str | None = None) -> list[str]:
    """Write <stem>.csv under the config echo, then its plot script if asked."""
    path = _out_path(args, stem + ".csv")
    with open(path, "w") as fh:
        fh.write(f"# {_config_echo(args)}\n{header}\n")
        fh.write("\n".join(rows) + ("\n" if rows else ""))
    return [path] + (_maybe_plot(args, plot, [path], stem) if plot else [])


# ---------------------------------------------------------------------------
# subcommand runners


def _cmd_fidelity(args) -> list[str]:
    if args.kind == "trace" and (args.q0 is not None or args.p0 is not None):
        raise ValueError("fidelity: --q0 and --p0 apply to --kind pure only")
    pair = PerturbedPair.from_dkh(
        MapSpec(args.map, args.n, args.k, k2=args.k2),
        args.dkh,
    )
    if args.kind == "trace":
        series = fidelity_trace(pair, args.t)
        tag = "trace"
    else:
        # the center defaults to (0.5, 0.5); set here, so the echo names it
        args.q0, args.p0 = (0.5 if v is None else v for v in (args.q0, args.p0))
        series = fidelity_pure(pair, PhasePoint(args.q0, args.p0), args.t)
        tag = f"pure_q{_fmt(args.q0)}_p{_fmt(args.p0)}"
    stem = (f"fidelity_{args.map}_k{_fmt(args.k)}{_k2_tag(args)}_dkh{_fmt(args.dkh)}"
            f"_n{args.n}_t{args.t}_{tag}")
    path = _out_path(args, stem + ".csv")
    save_series(series, path, header=_config_echo(args))
    return [path] + _maybe_plot(args, "series", [path], stem)


def _sweep_spec(args, kind: str) -> SweepSpec:
    """The K x dkh rectangle the sweep options describe."""
    return SweepSpec(
        family=args.map,
        k_values=_grid_values(args, "k"),
        dkh_values=_grid_values(args, "dkh"),
        n=args.n,
        t_max=args.t,
        kind=kind,
        s=getattr(args, "s", 16),
    )


def _run_sweep(args, spec: SweepSpec) -> tuple[str, list[str]]:
    """Run the sweep; its file-name tag and CSV rows."""
    results = sweep(spec, workers=_resolve_threads(args), progress=_progress_printer(args.cmd))
    tag = (f"{_grid_tag('k', spec.k_values)}_{_grid_tag('dkh', spec.dkh_values)}"
           f"_n{args.n}_t{args.t}")
    rows = [f"{r.k!r},{r.dkh!r},{r.n},{r.t_max},{r.kind},{r.value!r}" for r in results]
    return tag, rows


def _cmd_nm_sweep(args) -> list[str]:
    spec = _sweep_spec(args, "trace")
    dkh = spec.dkh_values
    # the rate curve refuses a bad dkh grid before the sweep runs its cells
    gamma_rows = None
    if args.plot and len(dkh) > 1:
        gamma_rows = _gamma_rows(np.linspace(min(dkh), max(dkh), 600))
    tag, rows = _run_sweep(args, spec)
    stem = f"nm_sweep_{args.map}_{tag}"
    if len(dkh) == 1:
        return _save(args, stem, _RESULT_HEADER, rows, "curve")
    written = _save(args, stem, _RESULT_HEADER, rows)
    if gamma_rows is not None:
        written += _save(args, stem + "_gamma", "dkh,gamma", gamma_rows)
        written += _maybe_plot(args, "overlay", written, stem)
    return written


def _cmd_avg_mp_sweep(args) -> list[str]:
    tag, rows = _run_sweep(args, _sweep_spec(args, "pure-average"))
    return _save(args, f"avg_mp_sweep_{args.map}_{tag}_s{args.s}", _RESULT_HEADER, rows, "curve")


def _cmd_phase_scan(args) -> list[str]:
    grid = scan_phase_space(args.map, args.k, args.dkh, args.n, args.t, args.s)
    stem = (
        f"phase_scan_{args.map}_k{_fmt(args.k)}_dkh{_fmt(args.dkh)}"
        f"_n{args.n}_t{args.t}_s{args.s}"
    )
    path = _out_path(args, stem + ".csv")
    save_grid(grid, path, header=_config_echo(args))
    pgm = _out_path(args, stem + ".pgm")
    save_grid_pgm(grid, pgm)
    return [path, pgm] + _maybe_plot(args, "heatmap", [path], stem)


def _cmd_line_scan(args) -> list[str]:
    qs = _linspace(args.q0, args.q1, args.points, "--q0/--q1")
    ps = _linspace(args.p0, args.p1, args.points, "--p0/--p1")
    points = [PhasePoint(q, p) for q, p in zip(qs, ps)]
    values = line_scan(args.map, args.k, args.dkh, args.n, args.t, points)
    stem = f"line_scan_{args.map}_k{_fmt(args.k)}_dkh{_fmt(args.dkh)}_n{args.n}_t{args.t}"
    # rows carry the centers as given, not wrapped into [0, 1) like the PhasePoints
    rows = [f"{float(q)!r},{float(p)!r},{float(v)!r}" for q, p, v in zip(qs, ps, values)]
    return _save(args, stem, "q,p,value", rows, "line")


def _cmd_classical_portrait(args) -> list[str]:
    from .classical import phase_portrait

    cloud = phase_portrait(args.map, args.k, k2=args.k2, n_orbits=args.orbits,
                           steps=args.steps, seed=args.seed)
    rows = [f"{float(x)!r},{float(p)!r}" for x, p in cloud]
    stem = f"portrait_{args.map}_k{_fmt(args.k)}{_k2_tag(args)}"
    return _save(args, stem, "x,p", rows, "portrait")


def _per_k(args, second, value: Callable[[float], float]) -> tuple[str, list[str]]:
    """Rows `K,<second>,value(K)` over the K grid, run like sweep rows; the grid tag."""
    k_grid = _grid_values(args, "k")
    values = _run_rows(value, k_grid, _resolve_threads(args), _progress_printer(args.cmd), 1)
    return _grid_tag("k", k_grid), [f"{k!r},{second},{v!r}" for k, v in zip(k_grid, values)]


def _cmd_diffusion(args) -> list[str]:
    from .classical import diffusion_coefficient

    tag, rows = _per_k(args, args.horizon, partial(diffusion_coefficient, args.map, k2=args.k2,
                       horizon=args.horizon, n_orbits=args.orbits, seed=args.seed))
    stem = f"diffusion_{args.map}_{tag}{_k2_tag(args)}_h{args.horizon}"
    return _save(args, stem, "K,horizon,D", rows, "diffusion")


def _cmd_classical_nm(args) -> list[str]:
    from .classical import classical_nm_grid

    tag, rows = _per_k(args, args.t, partial(classical_nm_grid, args.map, k2=args.k2,
                       delta_k=args.delta_k, grid_side=args.grid, t_max=args.t))
    stem = f"classical_nm_{args.map}_{tag}{_k2_tag(args)}_t{args.t}"
    return _save(args, stem, "K,T,value", rows, "classical")


def _cmd_gamma_curve(args) -> list[str]:
    if args.dkh_max <= 0:
        raise ValueError(f"--dkh-max must be positive, got {args.dkh_max}")
    dkh_values = np.linspace(0.0, args.dkh_max, args.points)
    stem = f"gamma_curve_max{_fmt(args.dkh_max)}_{args.points}"
    return _save(args, stem, "dkh,gamma", _gamma_rows(dkh_values), "gamma")


def _cmd_short_time_check(args) -> list[str]:
    from .semiclassics import short_time_check

    result = short_time_check(args.map, args.k, args.dkh, args.n)
    print(
        f"short-time-check {args.map} K={_fmt(args.k)} dkh={_fmt(args.dkh)} N={args.n}: "
        f"measured={result.measured:.6f} predicted={result.predicted:.6f} "
        f"residual={result.residual:.2e} diverged={result.diverged}"
    )
    return []


# ---------------------------------------------------------------------------
# the option table


_REQUIRED = object()  # default mark: the merged value must come from a flag or the config
_COUNT = "count"      # type mark: an int that must be >= 1 after the merge


class _Opt(NamedTuple):
    """One option of the table.

    type is finite_float, int, str, _COUNT, bool (a switch) or a tuple of
    choices; default is a value, None or _REQUIRED.
    """

    name: str
    type: object
    default: object = None
    help: str | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def argparse_kwargs(self) -> dict:
        if self.type is bool:
            return {"action": "store_true", "help": self.help}
        if isinstance(self.type, tuple):
            return {"choices": self.type, "help": self.help}
        return {"type": int if self.type is _COUNT else self.type, "help": self.help}

    def convert(self, raw: str):
        """A config-file value, converted and checked as its flag would be."""
        if self.type is bool:
            return _parse_bool(raw)
        if isinstance(self.type, tuple):
            if raw not in self.type:
                choices = ", ".join(repr(c) for c in self.type)
                raise ValueError(f"invalid choice: {raw!r} (choose from {choices})")
            return raw
        return (int if self.type is _COUNT else self.type)(raw)


class _Command(NamedTuple):
    run: Callable[[argparse.Namespace], list[str]]
    help: str
    options: tuple[_Opt, ...]


def _grid(prefix: str, single_help: str, values_help: str) -> tuple[_Opt, ...]:
    """A single value and the grid forms that _grid_values resolves."""
    return (
        _Opt(prefix, finite_float, help=single_help),
        _Opt(f"{prefix}_values", str, help=values_help),
        _Opt(f"{prefix}_min", finite_float),
        _Opt(f"{prefix}_max", finite_float),
        _Opt(f"{prefix}_points", int),
    )


_MAP = _Opt("map", FAMILIES, _REQUIRED)
_K = _Opt("k", finite_float, _REQUIRED)
_K_GRID = _grid("k", "single kick strength", "comma list of kick strengths")
_K2 = _Opt("k2", finite_float, help="hm momentum kick strength (default: --k)")
_N = _Opt("n", _COUNT, _REQUIRED, "Hilbert space dimension")
_T = _Opt("t", _COUNT, _REQUIRED, "number of kicks")
_DKH = _Opt("dkh", finite_float, _REQUIRED, "scaled perturbation strength")
_SWEEP = (_MAP, *_K_GRID, _N, _T, *_grid("dkh", "single scaled perturbation", "comma list"))
# `config` names the file and is not itself a config key
_CONFIG = _Opt("config", str, help="flat key = value file; flags override it")
_OUT_DIR = _Opt("out_dir", str, ".", "directory for output files")
_PLOT = _Opt("plot", bool, False, "emit a gnuplot script")
_OUTPUT = (_CONFIG, _OUT_DIR, _PLOT)
# the sweeps and the per-K classical runs read --threads; fidelity and
# phase-scan take it unread, since the benchmark ends each of their command
# lines with `--threads 1 --out-dir DIR`
_COMMON = (
    _CONFIG,
    _OUT_DIR,
    _Opt("threads", int, help=f"worker pool size (default: ${THREADS_ENV} or 1)"),
    _PLOT,
)
_SEED = _Opt("seed", int, 0)

_COMMANDS = {
    "fidelity": _Command(_cmd_fidelity, "one fidelity series", (
        _MAP, _K, _K2, _N, _T, _DKH,
        _Opt("kind", ("pure", "trace"), "trace"),
        _Opt("q0", finite_float, help="coherent center, --kind pure only (default 0.5)"),
        _Opt("p0", finite_float),
        *_COMMON)),
    "nm-sweep": _Command(_cmd_nm_sweep, "trace-measure sweep over K (and dkh)",
                        (*_SWEEP, *_COMMON)),
    "avg-mp-sweep": _Command(_cmd_avg_mp_sweep, "grid-averaged pure-measure sweep",
                            (*_SWEEP, _Opt("s", _COUNT, 16, "coherent grid side"), *_COMMON)),
    "phase-scan": _Command(_cmd_phase_scan, "pure measure on an s x s coherent grid", (
        _MAP, _K, _N, _T, _DKH, _Opt("s", _COUNT, _REQUIRED, "grid side"), *_COMMON)),
    "line-scan": _Command(_cmd_line_scan, "pure measure along a phase-space segment", (
        _MAP, _K, _N, _T, _DKH,
        *(_Opt(name, finite_float, _REQUIRED) for name in ("q0", "p0", "q1", "p1")),
        _Opt("points", _COUNT, _REQUIRED),
        *_OUTPUT)),
    "classical-portrait": _Command(_cmd_classical_portrait, "classical phase portrait cloud", (
        _MAP, _K, _K2, _Opt("orbits", _COUNT, 100), _Opt("steps", _COUNT, 300), *_OUTPUT, _SEED)),
    "diffusion": _Command(_cmd_diffusion, "classical momentum diffusion vs K", (
        _MAP, *_K_GRID, _K2, _Opt("horizon", _COUNT, 16000), _Opt("orbits", _COUNT, 4000),
        *_COMMON, _SEED)),
    "classical-nm": _Command(_cmd_classical_nm, "grid-averaged classical measure vs K", (
        _MAP, *_K_GRID, _K2,
        _Opt("delta_k", finite_float, 1e-3),
        _Opt("t", _COUNT, 20000),
        _Opt("grid", _COUNT, 32, "initial-condition grid side"),
        *_COMMON)),
    "gamma-curve": _Command(_cmd_gamma_curve, "short-time rate curve Gamma(dkh)", (
        _Opt("dkh_max", finite_float, 12.0), _Opt("points", _COUNT, 1200), *_OUTPUT)),
    "short-time-check": _Command(_cmd_short_time_check, "measured vs predicted t=1 rate",
                                (_MAP, _K, _DKH, _N, _CONFIG)),
}


# Python 3.11's argparse reads only the -1 and -.5 forms as negative numbers,
# so `--q0 -1e-17` would take its value for an option; every parser of
# build_parser reads the exponent forms too
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse view of _COMMANDS; options left off the command line stay unset.

    Built once per process: parsing keeps no state in the parser, and
    _resolve returns a fresh namespace per run.
    """
    parser = argparse.ArgumentParser(
        prog="torus-echo",
        description="Kicked-map dephasing environments: fidelity, measures, scans.",
    )
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    subs = parser.add_subparsers(dest="cmd", required=True)
    for name, command in _COMMANDS.items():
        sub = subs.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        sub._negative_number_matcher = _NEGATIVE_NUMBER
        for opt in command.options:
            sub.add_argument(opt.flag, **opt.argparse_kwargs())
    return parser


def _resolve(parsed: argparse.Namespace) -> argparse.Namespace:
    """Merge flags over config entries over table defaults, then check them.

    Every config entry is converted and checked, also when a flag overrides
    it.  Required options and counts are checked on the merged values.
    """
    given = vars(parsed)
    cmd = given.pop("cmd")
    config = given.pop("config", None)
    options = {opt.name: opt for opt in _COMMANDS[cmd].options if opt.name != "config"}
    merged = {name: None if opt.default is _REQUIRED else opt.default
              for name, opt in options.items()}
    if config is not None:
        for key, raw in _read_config(config).items():
            if key not in options:
                raise ValueError(f"unknown config key: {key}")
            try:
                merged[key] = options[key].convert(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"config key {key}: {exc}") from exc
    merged.update(given)
    missing = [opt.flag for opt in options.values()
               if opt.default is _REQUIRED and merged[opt.name] is None]
    if missing:
        raise ValueError(f"{cmd}: missing {', '.join(missing)}")
    for opt in options.values():
        if opt.type is _COUNT and merged[opt.name] < 1:
            raise ValueError(f"{opt.flag} must be >= 1, got {merged[opt.name]}")
    return argparse.Namespace(cmd=cmd, **merged)


def main(argv=None) -> int:
    try:
        args = _resolve(build_parser().parse_args(argv))
        start = time.monotonic()
        written = _COMMANDS[args.cmd].run(args)
        elapsed = time.monotonic() - start
        if written:
            print(f"wrote {', '.join(written)} ({elapsed:.1f}s)")
        return 0
    except GuardError as exc:
        print(f"torus-echo: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"torus-echo: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
