"""Batch front end.

Ten subcommands drive the library: fidelity series, measure sweeps, phase
space scans, classical runs, and the short-time rate check.  Every run
validates its configuration before any computation starts, writes CSV files
whose first line echoes the resolved config, and can emit a gnuplot script
next to each output.  Reruns with the same config are byte identical.

One table, _COMMANDS, gives each subcommand's runner, help text and options;
the argparse parser, the config-file merge, the required/count checks and
the output names are all read from it.  A runner computes and returns its
payload; one writer, _write, writes every file of a run.  A file's stem is
the subcommand's name followed by the tag and value of each naming option,
in table order (`phase_scan_sm_k0.9_dkh1_n32_t10_s3`); an option whose
resolved value is None is left out, and a K or dkh grid is named by its
first and last value and its count, plus a CRC-32 of its values unless it
is np.linspace of those three.  So two runs that differ in one naming
option keep both files.

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
import zlib
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .echo import FidelitySeries, fidelity_pure, fidelity_trace, save_series
from .maps import FAMILIES, GuardError, MapSpec, PerturbedPair, check_count, check_map
from .scans import (
    PhaseGrid,
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
    """Compact value for filenames and config echoes; a float reads back exactly."""
    if isinstance(v, float):
        short = f"{v:g}"
        return short if float(short) == v else repr(v)
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
    """--threads (checked with the other counts), else $TORUS_ECHO_THREADS, else 1."""
    if args.threads is not None:
        return args.threads
    raw = os.environ.get(THREADS_ENV) or "1"  # set but empty reads as unset
    try:
        hint = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    check_count(THREADS_ENV, hint)
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
    if npts == 1:
        return (float(lo),)
    return tuple(float(v) for v in _linspace(lo, hi, npts, f"--{prefix}-min/--{prefix}-max"))


def _grid_tag(prefix: str, grid: tuple[float, ...]) -> str:
    """<prefix><first>-<last>x<count>, and a CRC-32 of the values unless they are that range."""
    if len(grid) == 1:
        return f"{prefix}{_fmt(grid[0])}"
    tag = f"{prefix}{_fmt(grid[0])}-{_fmt(grid[-1])}x{len(grid)}"
    with np.errstate(over="ignore", invalid="ignore"):
        if grid == tuple(np.linspace(grid[0], grid[-1], len(grid)).tolist()):
            return tag
    return f"{tag}-{zlib.crc32(','.join(map(repr, grid)).encode()):08x}"


def _progress_printer(label: str):
    def progress(done_index: int, total: int) -> None:
        print(f"{label}: cell {done_index + 1}/{total}", file=sys.stderr, flush=True)

    return progress


class _Output(NamedTuple):
    """A runner's result: the payload of its CSV and the plot kind that renders it.

    A table payload is a list of lines, its column header first.
    """

    payload: list[str] | FidelitySeries | PhaseGrid
    plot: str
    gamma: list[str] | None = None  # the `_gamma` companion table of an "overlay" plot


def _gamma_rows(dkh_values: np.ndarray) -> list[str]:
    from .semiclassics import gamma_curve

    curve = gamma_curve(dkh_values)
    return ["dkh,gamma", *(f"{float(d)!r},{float(g)!r}" for d, g in zip(dkh_values, curve))]


# ---------------------------------------------------------------------------
# the writer


_GP_PRELUDE = 'set datafile separator ","\nset terminal pngcairo size 900,700\n'

# kind -> (set-up lines, x label, y label, the rest of the script); in the
# rest, {0} is the run's CSV and {1} its `_gamma` companion
_PLOTS = {
    "series": ("set key autotitle columnhead\nset logscale y\n", "t (kicks)", "|f|",
               'plot "{0}" using 1:4 with lines title "|f|"'),
    "curve": ("set key autotitle columnhead\n", "K", "measure",
              'plot "{0}" using 1:6 with linespoints title "measure"'),
    "overlay": ("unset key\n", "dkh", "K",
                'set y2label "Gamma"\nset y2tics\nset y2range [0:10]\n'
                'plot "{0}" using 2:1:6 with image, '
                '"{1}" using 1:($2 > 10 ? 10 : $2) axes x1y2 with lines lc "gray"'),
    "heatmap": ("unset key\nset size square\nset palette gray\n", "q", "p",
                'plot "{0}" matrix with image'),
    "line": ("set key autotitle columnhead\n", "q0", "measure",
             'plot "{0}" using 1:3 with linespoints title "measure"'),
    "portrait": ("unset key\nset size square\nset xrange [0:1]\nset yrange [0:1]\n",
                 "x", "p", 'plot "{0}" using 1:2 with dots'),
    "diffusion": ("set key autotitle columnhead\nset logscale y\n", "K", "D",
                  'plot "{0}" using 1:3 with linespoints title "D"'),
    "classical": ("set key autotitle columnhead\n", "K", "measure",
                  'plot "{0}" using 1:3 with linespoints title "measure"'),
    "gamma": ("set key autotitle columnhead\nceil = 10.0\nset yrange [0:ceil]\n", "dkh", "Gamma",
              'plot "{0}" using 1:($2 > ceil ? ceil : $2) with lines title "Gamma"'),
}


def _save_table(lines: list[str], path: str, header: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"# {header}\n" + "".join(line + "\n" for line in lines))


_SAVERS = {list: _save_table, FidelitySeries: save_series, PhaseGrid: save_grid}


def _stem(args: argparse.Namespace) -> str:
    """The subcommand's name, then <tag><value> per naming option in table order.

    An option whose resolved value is None is left out; a grid group is
    named by its resolved grid.
    """
    options = _COMMANDS[args.cmd].options
    names = {opt.name for opt in options}
    parts = [args.cmd.replace("-", "_")]
    for opt in options:
        if opt.tag is None:
            continue
        if f"{opt.name}_values" in names:
            parts.append(_grid_tag(opt.tag, _grid_values(args, opt.name)))
        elif getattr(args, opt.name) is not None:
            parts.append(opt.tag + _fmt(getattr(args, opt.name)))
    return "_".join(parts)


def _write(args: argparse.Namespace, output: _Output) -> list[str]:
    """Write a run's files under --out-dir; their paths, in writing order.

    <stem>.csv holds the payload under the config echo.  A grid adds its
    <stem>.pgm, an overlay its <stem>_gamma.csv, and --plot a gnuplot script,
    <stem>.gp.  The script names the CSVs by bare filename, so it runs from
    the directory it lives in.
    """
    os.makedirs(args.out_dir, exist_ok=True)
    stem = _stem(args)
    base = os.path.join(args.out_dir, stem)
    echo = _config_echo(args)
    written = [base + ".csv"]
    _SAVERS[type(output.payload)](output.payload, written[0], header=echo)
    if isinstance(output.payload, PhaseGrid):
        written.append(base + ".pgm")
        save_grid_pgm(output.payload, written[-1])
    if output.gamma is not None:
        written.append(base + "_gamma.csv")
        _save_table(output.gamma, written[-1], header=echo)
    if args.plot:
        setup, xlabel, ylabel, rest = _PLOTS[output.plot]
        csvs = [os.path.basename(path) for path in written if path.endswith(".csv")]
        written.append(base + ".gp")
        with open(written[-1], "w") as fh:
            fh.write(f'{_GP_PRELUDE}set output "{stem}.png"\n{setup}set xlabel "{xlabel}"\n'
                     f'set ylabel "{ylabel}"\n{rest.format(*csvs)}\n')
    return written


# ---------------------------------------------------------------------------
# subcommand runners


def _cmd_fidelity(args) -> _Output:
    if args.kind == "trace" and (args.q0 is not None or args.p0 is not None):
        raise ValueError("fidelity: --q0 and --p0 apply to --kind pure only")
    pair = PerturbedPair.from_dkh(MapSpec(args.map, args.n, args.k, k2=args.k2), args.dkh)
    if args.kind == "trace":
        return _Output(fidelity_trace(pair, args.t), "series")
    # the center defaults to (0.5, 0.5); set here, so the echo and the name give it
    args.q0, args.p0 = (0.5 if v is None else v for v in (args.q0, args.p0))
    return _Output(fidelity_pure(pair, PhasePoint(args.q0, args.p0), args.t), "series")


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


def _run_sweep(args, spec: SweepSpec) -> list[str]:
    """Run the sweep; its CSV table."""
    results = sweep(spec, workers=_resolve_threads(args), progress=_progress_printer(args.cmd))
    return ["K,deltaK_over_hbar,N,T,kind,value",
            *(f"{r.k!r},{r.dkh!r},{spec.n},{spec.t_max},{spec.kind},{r.value!r}" for r in results)]


def _cmd_nm_sweep(args) -> _Output:
    spec = _sweep_spec(args, "trace")
    dkh = spec.dkh_values
    if len(dkh) == 1:
        return _Output(_run_sweep(args, spec), "curve")
    # the rate curve refuses a bad dkh grid before the sweep runs its cells
    gamma = _gamma_rows(np.linspace(min(dkh), max(dkh), 600)) if args.plot else None
    return _Output(_run_sweep(args, spec), "overlay", gamma)


def _cmd_avg_mp_sweep(args) -> _Output:
    return _Output(_run_sweep(args, _sweep_spec(args, "pure-average")), "curve")


def _cmd_phase_scan(args) -> _Output:
    return _Output(scan_phase_space(args.map, args.k, args.dkh, args.n, args.t, args.s),
                   "heatmap")


def _cmd_line_scan(args) -> _Output:
    qs = _linspace(args.q0, args.q1, args.points, "--q0/--q1")
    ps = _linspace(args.p0, args.p1, args.points, "--p0/--p1")
    points = [PhasePoint(q, p) for q, p in zip(qs, ps)]
    values = line_scan(args.map, args.k, args.dkh, args.n, args.t, points)
    # rows carry the centers as given, not wrapped into [0, 1) like the PhasePoints
    rows = (f"{float(q)!r},{float(p)!r},{float(v)!r}" for q, p, v in zip(qs, ps, values))
    return _Output(["q,p,value", *rows], "line")


def _cmd_classical_portrait(args) -> _Output:
    from .classical import phase_portrait

    cloud = phase_portrait(args.map, args.k, k2=args.k2, n_orbits=args.orbits,
                           steps=args.steps, seed=args.seed)
    return _Output(["x,p", *(f"{float(x)!r},{float(p)!r}" for x, p in cloud)], "portrait")


def _per_k(args, header: str, second, value: Callable[[float], float], delta_k=0.0) -> list[str]:
    """The header, then rows `K,<second>,value(K)` over the K grid, run like sweep rows."""
    k_grid = _grid_values(args, "k")
    for k in k_grid:  # every K, before the first row runs
        check_map(args.map, k, args.k2, delta_k)
    values = _run_rows(value, k_grid, _resolve_threads(args), _progress_printer(args.cmd), 1)
    return [header, *(f"{k!r},{second},{v!r}" for k, v in zip(k_grid, values))]


def _cmd_diffusion(args) -> _Output:
    from .classical import diffusion_coefficient

    return _Output(_per_k(args, "K,horizon,D", args.horizon, partial(
        diffusion_coefficient, args.map, k2=args.k2, horizon=args.horizon,
        n_orbits=args.orbits, seed=args.seed)), "diffusion")


def _cmd_classical_nm(args) -> _Output:
    from .classical import classical_nm_grid

    return _Output(_per_k(args, "K,T,value", args.t, partial(
        classical_nm_grid, args.map, k2=args.k2, delta_k=args.delta_k,
        grid_side=args.grid, t_max=args.t), args.delta_k), "classical")


def _cmd_gamma_curve(args) -> _Output:
    if args.dkh_max <= 0:
        raise ValueError(f"--dkh-max must be positive, got {args.dkh_max}")
    return _Output(_gamma_rows(np.linspace(0.0, args.dkh_max, args.points)), "gamma")


def _cmd_short_time_check(args) -> None:
    from .semiclassics import short_time_check

    result = short_time_check(args.map, args.k, args.dkh, args.n)
    print(
        f"short-time-check {args.map} K={_fmt(args.k)} dkh={_fmt(args.dkh)} N={args.n}: "
        f"measured={result.measured:.6f} predicted={result.predicted:.6f} "
        f"residual={result.residual:.2e} diverged={result.diverged}"
    )


# ---------------------------------------------------------------------------
# the option table


_REQUIRED = object()  # default mark: the merged value must come from a flag or the config
_COUNT = "count"      # type mark: an int that maps.check_count checks after the merge, when set


class _Opt(NamedTuple):
    """One option of the table.

    type is finite_float, int, str, _COUNT, bool (a switch) or a tuple of
    choices; default is a value, None or _REQUIRED.  tag names the output:
    the stem carries <tag><value>, and None leaves the option out of it.
    """

    name: str
    type: object
    default: object = None
    help: str | None = None
    tag: str | None = None

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
    run: Callable[[argparse.Namespace], _Output | None]
    help: str
    options: tuple[_Opt, ...]


def _grid(prefix: str, single_help: str, values_help: str) -> tuple[_Opt, ...]:
    """A single value and the grid forms that _grid_values resolves; the tag names the grid."""
    return (
        _Opt(prefix, finite_float, help=single_help, tag=prefix),
        _Opt(f"{prefix}_values", str, help=values_help),
        _Opt(f"{prefix}_min", finite_float),
        _Opt(f"{prefix}_max", finite_float),
        _Opt(f"{prefix}_points", _COUNT),
    )


_MAP = _Opt("map", FAMILIES, _REQUIRED, tag="")
_K = _Opt("k", finite_float, _REQUIRED, tag="k")
_K_GRID = _grid("k", "single kick strength", "comma list of kick strengths")
_K2 = _Opt("k2", finite_float, help="hm momentum kick strength (default: --k)", tag="k2")
_N = _Opt("n", _COUNT, _REQUIRED, "Hilbert space dimension", "n")
_T = _Opt("t", _COUNT, _REQUIRED, "number of kicks", "t")
_DKH = _Opt("dkh", finite_float, _REQUIRED, "scaled perturbation strength", "dkh")
_SWEEP = (_MAP, *_K_GRID, *_grid("dkh", "single scaled perturbation", "comma list"), _N, _T)
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
    _Opt("threads", _COUNT, help=f"worker pool size (default: ${THREADS_ENV} or 1)"),
    _PLOT,
)
_SEED = _Opt("seed", int, 0, tag="seed")

_COMMANDS = {
    "fidelity": _Command(_cmd_fidelity, "one fidelity series", (
        _MAP, _K, _K2, _DKH, _N, _T,
        _Opt("kind", ("pure", "trace"), "trace", tag=""),
        _Opt("q0", finite_float, help="coherent center, --kind pure only (default 0.5)", tag="q"),
        _Opt("p0", finite_float, tag="p"),
        *_COMMON)),
    "nm-sweep": _Command(_cmd_nm_sweep, "trace-measure sweep over K (and dkh)",
                        (*_SWEEP, *_COMMON)),
    "avg-mp-sweep": _Command(_cmd_avg_mp_sweep, "grid-averaged pure-measure sweep",
                            (*_SWEEP, _Opt("s", _COUNT, 16, "coherent grid side", "s"),
                             *_COMMON)),
    "phase-scan": _Command(_cmd_phase_scan, "pure measure on an s x s coherent grid", (
        _MAP, _K, _DKH, _N, _T, _Opt("s", _COUNT, _REQUIRED, "grid side", "s"), *_COMMON)),
    "line-scan": _Command(_cmd_line_scan, "pure measure along a phase-space segment", (
        _MAP, _K, _DKH, _N, _T,
        *(_Opt(name, finite_float, _REQUIRED, tag=name[0]) for name in ("q0", "p0", "q1", "p1")),
        _Opt("points", _COUNT, _REQUIRED, tag=""),
        *_OUTPUT)),
    "classical-portrait": _Command(_cmd_classical_portrait, "classical phase portrait cloud", (
        _MAP, _K, _K2, _Opt("orbits", _COUNT, 100, tag="orbits"),
        _Opt("steps", _COUNT, 300, tag="steps"), *_OUTPUT, _SEED)),
    "diffusion": _Command(_cmd_diffusion, "classical momentum diffusion vs K", (
        _MAP, *_K_GRID, _K2, _Opt("horizon", _COUNT, 16000, tag="h"),
        _Opt("orbits", _COUNT, 4000, tag="orbits"), *_COMMON, _SEED)),
    "classical-nm": _Command(_cmd_classical_nm, "grid-averaged classical measure vs K", (
        _MAP, *_K_GRID, _K2,
        _Opt("delta_k", finite_float, 1e-3, tag="dk"),
        _Opt("t", _COUNT, 20000, tag="t"),
        _Opt("grid", _COUNT, 32, "initial-condition grid side", "grid"),
        *_COMMON)),
    "gamma-curve": _Command(_cmd_gamma_curve, "short-time rate curve Gamma(dkh)", (
        _Opt("dkh_max", finite_float, 12.0, tag="max"), _Opt("points", _COUNT, 1200, tag=""),
        *_OUTPUT)),
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
    it.  Required options and set counts are checked on the merged values.
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
        if opt.type is _COUNT and merged[opt.name] is not None:
            check_count(opt.flag, merged[opt.name])
    return argparse.Namespace(cmd=cmd, **merged)


def main(argv=None) -> int:
    try:
        args = _resolve(build_parser().parse_args(argv))
        start = time.monotonic()
        output = _COMMANDS[args.cmd].run(args)
        if output is not None:
            written = _write(args, output)
            print(f"wrote {', '.join(written)} ({time.monotonic() - start:.1f}s)")
        return 0
    except GuardError as exc:
        print(f"torus-echo: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"torus-echo: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
