"""Front-end tests: exit codes, file naming, config merging, plot scripts.

Everything runs in process through cli.main so the tests can assert on
return codes and captured streams without spawning interpreters.
"""

import argparse
import os
import shlex
from pathlib import Path

import numpy as np
import pytest

from torus_echo import cli
from torus_echo.scans import load_grid, scan_phase_space


def run(*argv) -> int:
    """Invoke the CLI; normalize argparse's SystemExit to a return code."""
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return int(exc.code)


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


@pytest.fixture(autouse=True)
def _no_thread_env(monkeypatch):
    monkeypatch.delenv(cli.THREADS_ENV, raising=False)


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_writes_expected_csv(tmp_path, capsys):
    rc = run("fidelity", "--map", "sm", "--k", 1.2, "--dkh", 2, "--n", 64,
             "--t", 20, "--out-dir", tmp_path)
    assert rc == 0
    path = tmp_path / "fidelity_sm_k1.2_dkh2_n64_t20_trace.csv"
    assert path.exists()
    lines = read_lines(path)
    assert lines[0].startswith("# torus-echo fidelity ")
    assert "k=1.2" in lines[0] and "n=64" in lines[0]
    assert lines[1] == "# kind=trace"
    assert lines[2] == "t,re_f,im_f,abs_f"
    assert len(lines) == 3 + 21
    first = lines[3].split(",")
    assert first[0] == "0"
    assert float(first[3]) == 1.0
    out = capsys.readouterr().out
    assert "wrote" in out and str(path) in out and out.rstrip().endswith("s)")


def test_fidelity_rerun_is_byte_identical(tmp_path):
    argv = ("fidelity", "--map", "hm", "--k", 0.3, "--dkh", 1.5, "--n", 32,
            "--t", 10, "--out-dir", tmp_path)
    assert run(*argv) == 0
    path = tmp_path / "fidelity_hm_k0.3_dkh1.5_n32_t10_trace.csv"
    first = path.read_bytes()
    assert run(*argv) == 0
    assert path.read_bytes() == first


def test_fidelity_pure_kind_names_the_center(tmp_path):
    rc = run("fidelity", "--map", "sm", "--k", 0.9, "--dkh", 1.5, "--n", 32,
             "--t", 10, "--kind", "pure", "--q0", 0.25, "--p0", 0.5,
             "--out-dir", tmp_path)
    assert rc == 0
    path = tmp_path / "fidelity_sm_k0.9_dkh1.5_n32_t10_pure_q0.25_p0.5.csv"
    assert path.exists()
    assert read_lines(path)[1] == "# kind=pure"


def test_plot_flag_emits_gnuplot_script(tmp_path):
    rc = run("fidelity", "--map", "sm", "--k", 1.2, "--dkh", 2, "--n", 32,
             "--t", 10, "--plot", "--out-dir", tmp_path)
    assert rc == 0
    stem = "fidelity_sm_k1.2_dkh2_n32_t10_trace"
    script = (tmp_path / (stem + ".gp")).read_text()
    assert script.startswith('set datafile separator ","')
    assert f'"{stem}.csv"' in script
    assert f'set output "{stem}.png"' in script


# ---------------------------------------------------------------------------
# exit codes


def test_missing_required_flag_is_a_config_error(tmp_path, capsys):
    rc = run("fidelity", "--map", "sm", "--k", 1.0, "--n", 32, "--t", 5,
             "--out-dir", tmp_path)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("torus-echo:") and "--dkh" in err


def test_invalid_choice_exits_2(tmp_path):
    rc = run("fidelity", "--map", "xx", "--k", 1.0, "--dkh", 1, "--n", 32,
             "--t", 5, "--out-dir", tmp_path)
    assert rc == 2


def test_matrix_guard_returns_1(tmp_path, capsys):
    rc = run("fidelity", "--map", "sm", "--k", 1.0, "--dkh", 1, "--n", 16384,
             "--t", 5, "--out-dir", tmp_path)
    assert rc == 1
    assert capsys.readouterr().err.startswith("torus-echo:")


@pytest.mark.parametrize("argv", [
    ("fidelity", "--map", "sm", "--k", 1.0, "--dkh", 1, "--n", 32, "--t", 5,
     "--kind", "pure", "--q0", "nan"),
    ("line-scan", "--map", "sm", "--k", 1.0, "--dkh", 1, "--n", 32, "--t", 5,
     "--q0", "nan", "--p0", 0.5, "--q1", 1.0, "--p1", 0.5, "--points", 3),
    ("diffusion", "--map", "sm", "--k-values", "nan,inf", "--horizon", 10,
     "--orbits", 10),
    ("classical-nm", "--map", "sm", "--k", 1.0, "--delta-k", "nan", "--t", 10,
     "--grid", 2),
    ("gamma-curve", "--dkh-max", "nan", "--points", 5),
], ids=["fidelity-q0", "line-scan-q0", "diffusion-k-values", "classical-nm-delta-k",
        "gamma-curve-dkh-max"])
def test_non_finite_floats_exit_2_before_compute(tmp_path, argv):
    assert run(*argv, "--out-dir", tmp_path) == 2
    assert list(tmp_path.iterdir()) == []


def test_domain_errors_map_to_2(tmp_path):
    rc = run("fidelity", "--map", "sm", "--k", 1.0, "--dkh", 1, "--n", 1,
             "--t", 5, "--out-dir", tmp_path)
    assert rc == 2


@pytest.mark.parametrize("argv", [
    "fidelity --map sm --k 1 --k2 5 --dkh 1 --n 16 --t 3",
    "classical-portrait --map sm --k 1 --k2 5 --orbits 2 --steps 2",
    "diffusion --map sm --k 1 --k2 7 --horizon 10 --orbits 10",
    "classical-nm --map sm --k 1 --k2 5 --t 10 --grid 2",
], ids=["fidelity", "classical-portrait", "diffusion", "classical-nm"])
def test_k2_for_the_standard_map_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(*argv.split(), "--out-dir", out) == 2
    assert "K2 applies to the hm family only" in capsys.readouterr().err
    assert not out.exists()


_UNRECOGNIZED = "unrecognized arguments"
_TRACE_CENTER = "fidelity: --q0 and --p0 apply to --kind pure only"
_TRACE = "fidelity --map sm --k 1 --dkh 1 --n 16 --t 3"


# no route of these runs reads the flag or config key: the parser refuses a
# flag that no route of the subcommand reads, and a trace `fidelity` run
# refuses the coherent center of the pure kind before it computes anything
@pytest.mark.parametrize("argv, entries, error", [
    ("nm-sweep --map hm --k 0.2 --dkh 1 --n 16 --t 3 --k2 0.9", "", _UNRECOGNIZED),
    ("avg-mp-sweep --map hm --k 0.2 --dkh 1 --n 16 --t 3 --k2 0.9", "", _UNRECOGNIZED),
    ("phase-scan --map hm --k 0.2 --dkh 1 --n 16 --t 3 --s 2 --k2 0.9", "", _UNRECOGNIZED),
    ("line-scan --map hm --k 0.2 --dkh 1 --n 16 --t 3 --q0 0 --p0 0 --q1 1 --p1 1"
     " --points 2 --k2 0.9", "", _UNRECOGNIZED),
    ("short-time-check --map hm --k 0.2 --dkh 1 --n 16 --k2 0.9", "", _UNRECOGNIZED),
    ("short-time-check --map sm --k 2.5 --dkh 2 --n 16 --out-dir out", "", _UNRECOGNIZED),
    ("short-time-check --map sm --k 2.5 --dkh 2 --n 16 --plot", "", _UNRECOGNIZED),
    ("short-time-check --map sm --k 2.5 --dkh 2 --n 16 --threads 1", "", _UNRECOGNIZED),
    ("line-scan --map hm --k 0.2 --dkh 1 --n 16 --t 3 --q0 0 --p0 0 --q1 1 --p1 1"
     " --points 2 --threads 1", "", _UNRECOGNIZED),
    ("classical-portrait --map sm --k 1 --orbits 2 --steps 2 --threads 1", "", _UNRECOGNIZED),
    ("gamma-curve --dkh-max 3 --points 5 --threads 1", "", _UNRECOGNIZED),
    (_TRACE + " --q0 0.5", "", _TRACE_CENTER),
    (_TRACE + " --kind trace --p0 0.2", "", _TRACE_CENTER),
    (_TRACE, "q0 = 0.5\n", _TRACE_CENTER),
    (_TRACE + " --kind trace", "p0 = 0.5\n", _TRACE_CENTER),
], ids=["nm-sweep-k2", "avg-mp-sweep-k2", "phase-scan-k2", "line-scan-k2",
        "short-time-check-k2", "short-time-check-out-dir", "short-time-check-plot",
        "short-time-check-threads", "line-scan-threads", "classical-portrait-threads",
        "gamma-curve-threads", "fidelity-trace-q0", "fidelity-trace-p0",
        "fidelity-trace-config-q0", "fidelity-trace-config-p0"])
def test_flags_no_route_reads_are_refused(tmp_path, monkeypatch, capsys, argv, entries,
                                          error):
    monkeypatch.chdir(tmp_path)
    config = []
    if entries:
        (tmp_path / "run.cfg").write_text(entries)
        config = ["--config", "run.cfg"]
    assert run(*argv.split(), *config) == 2
    assert error in capsys.readouterr().err
    assert sorted(os.listdir()) == (["run.cfg"] if entries else [])


def test_nonpositive_counts_are_rejected(tmp_path, capsys):
    rc = run("fidelity", "--map", "sm", "--k", 1.0, "--dkh", 1, "--n", 32,
             "--t", 0, "--out-dir", tmp_path)
    assert rc == 2
    assert "--t" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config files


def test_config_supplies_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# small demo run\n"
        "k = 0.7\n"
        "t = 10\n"
        "dkh = 1.5\n"
        "plot = yes\n"
    )
    rc = run("fidelity", "--config", cfg, "--map", "sm", "--n", 32,
             "--k", 0.9, "--out-dir", tmp_path)
    assert rc == 0
    path = tmp_path / "fidelity_sm_k0.9_dkh1.5_n32_t10_trace.csv"
    assert path.exists()
    assert "plot=True" in read_lines(path)[0]
    assert (tmp_path / "fidelity_sm_k0.9_dkh1.5_n32_t10_trace.gp").exists()


# `config` names the file itself; a config file cannot chain to another one
@pytest.mark.parametrize("key", ["bogus", "config"])
def test_unknown_config_key_is_rejected(tmp_path, capsys, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = 3\n")
    rc = run("fidelity", "--config", cfg, "--map", "sm", "--k", 1.0,
             "--dkh", 1, "--n", 32, "--t", 5, "--out-dir", tmp_path)
    assert rc == 2
    assert f"unknown config key: {key}" in capsys.readouterr().err


# every flag is given, so the bad entries are overridden and still rejected
@pytest.mark.parametrize("entry, key", [
    ("k = abc", "k"),
    ("k = nan", "k"),
    ("map = xx", "map"),
    ("plot = maybe", "plot"),
], ids=["k-abc", "k-nan", "map-xx", "plot-maybe"])
def test_bad_config_value_names_its_key(tmp_path, capsys, entry, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(entry + "\n")
    out = tmp_path / "out"
    rc = run("fidelity", "--config", cfg, "--map", "sm", "--k", 1.0,
             "--dkh", 1, "--n", 32, "--t", 5, "--out-dir", out)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"torus-echo: config key {key}: ") and "usage" not in err
    assert not out.exists()


def test_missing_config_file_is_reported(tmp_path, capsys):
    rc = run("fidelity", "--config", tmp_path / "absent.cfg", "--map", "sm",
             "--k", 1.0, "--dkh", 1, "--n", 32, "--t", 5)
    assert rc == 2
    assert "config file not found" in capsys.readouterr().err


def test_malformed_config_line_is_reported(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just words\n")
    rc = run("fidelity", "--config", cfg, "--map", "sm", "--k", 1.0,
             "--dkh", 1, "--n", 32, "--t", 5, "--out-dir", tmp_path)
    assert rc == 2
    assert "expected key = value" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweeps


def test_nm_sweep_rows_and_progress(tmp_path, capsys):
    rc = run("nm-sweep", "--map", "sm", "--k-values", "0.5,1.0", "--dkh", 1,
             "--n", 32, "--t", 5, "--out-dir", tmp_path)
    assert rc == 0
    path = tmp_path / "nm_sweep_sm_k0.5-1x2_dkh1_n32_t5.csv"
    lines = read_lines(path)
    assert lines[1] == "K,deltaK_over_hbar,N,T,kind,value"
    rows = lines[2:]
    assert len(rows) == 2
    assert rows[0].startswith("0.5,") and ",trace," in rows[0]
    captured = capsys.readouterr()
    assert "nm-sweep: cell 2/2" in captured.err
    assert "wrote" in captured.out


def test_nm_sweep_refuses_a_bad_k_row_before_any_cell(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run("nm-sweep", "--map", "sm", "--k-values", "0.5,-1", "--dkh", 1, "--n", 256,
             "--t", 300, "--out-dir", out)
    assert rc == 2
    err = capsys.readouterr().err
    assert "K must be finite and >= 0" in err and "cell" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("nm-sweep", "--map", "sm", "--k-values", 1e308, "--dkh", 1, "--n", 8, "--t", 3),
    ("avg-mp-sweep", "--map", "hm", "--k-values", 1e308, "--dkh", 1, "--n", 8, "--t", 3,
     "--s", 2),
    ("fidelity", "--map", "sm", "--k", 1e308, "--dkh", 1, "--n", 8, "--t", 3),
], ids=lambda argv: argv[0])
def test_a_kick_phase_that_overflows_exits_2_before_propagating(tmp_path, capsys, argv):
    # N*K = 8e308 is inf, and an inf phase amplitude would give nan overlaps
    assert run(*argv, "--out-dir", tmp_path) == 2
    err = capsys.readouterr().err
    assert "K must be finite and >= 0, with N*K finite" in err and "cell" not in err
    assert list(tmp_path.iterdir()) == []


def test_a_finite_huge_kick_phase_still_runs(tmp_path):
    # hm perturbs K2 by dkh / N, so N*K2 = 8 + 1e308 stays finite
    assert run("nm-sweep", "--map", "hm", "--k-values", 1, "--dkh", 1e308, "--n", 8,
               "--t", 3, "--out-dir", tmp_path) == 0
    (path,) = tmp_path.iterdir()
    assert np.isfinite(float(read_lines(path)[-1].split(",")[-1]))


# the orbits overflow on their way to the refused value
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ("diffusion", "--map", "sm", "--k-values", 1e308, "--horizon", 10, "--orbits", 10),
    ("classical-nm", "--map", "hm", "--k-values", 1e308, "--delta-k", 0.01, "--grid", 2,
     "--t", 5),
], ids=lambda argv: argv[0])
def test_a_classical_value_that_is_not_finite_exits_2(tmp_path, capsys, argv):
    assert run(*argv, "--out-dir", tmp_path) == 2
    assert "at K=1e+308 is not finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_nm_sweep_gamma_companion_needs_plot_and_a_dkh_grid(tmp_path):
    base = ("nm-sweep", "--map", "sm", "--k", 0.5, "--n", 32, "--t", 5,
            "--out-dir", tmp_path)
    assert run(*base, "--dkh-values", "1,2") == 0
    stem = "nm_sweep_sm_k0.5_dkh1-2x2_n32_t5"
    assert not (tmp_path / (stem + "_gamma.csv")).exists()

    assert run(*base, "--dkh-values", "1,2", "--plot") == 0
    gamma = tmp_path / (stem + "_gamma.csv")
    assert gamma.exists()
    assert read_lines(gamma)[1] == "dkh,gamma"
    script = (tmp_path / (stem + ".gp")).read_text()
    assert "with image" in script and gamma.name in script

    assert run(*base, "--dkh", 1, "--plot") == 0
    single = "nm_sweep_sm_k0.5_dkh1_n32_t5"
    assert not (tmp_path / (single + "_gamma.csv")).exists()
    assert "using 1:6" in (tmp_path / (single + ".gp")).read_text()


def test_avg_mp_sweep_csv(tmp_path):
    rc = run("avg-mp-sweep", "--map", "hm", "--k", 0.2, "--dkh", 1, "--n", 32,
             "--t", 5, "--s", 2, "--out-dir", tmp_path)
    assert rc == 0
    lines = read_lines(tmp_path / "avg_mp_sweep_hm_k0.2_dkh1_n32_t5_s2.csv")
    assert lines[1] == "K,deltaK_over_hbar,N,T,kind,value"
    assert len(lines) == 3
    assert ",pure-average," in lines[2]


def test_grid_flags_are_mutually_exclusive(tmp_path, capsys):
    rc = run("nm-sweep", "--map", "sm", "--k-values", "0.5", "--k-min", 0.1,
             "--dkh", 1, "--n", 32, "--t", 5, "--out-dir", tmp_path)
    assert rc == 2
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "nm-sweep --map sm --dkh 1 --n 16 --t 3",
    "diffusion --map sm --horizon 10 --orbits 10",
], ids=["nm-sweep", "diffusion"])
def test_missing_grid_names_all_three_forms(tmp_path, capsys, argv):
    assert run(*argv.split(), "--out-dir", tmp_path) == 2
    err = capsys.readouterr().err
    assert "missing --k, --k-values or --k-min/--k-max/--k-points" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, entries", [
    (("--k", 0.5, "--k-values", "1,2", "--dkh", 1), ""),
    (("--k", 0.5, "--dkh", 1, "--dkh-min", 1, "--dkh-max", 2, "--dkh-points", 2), ""),
    (("--k-values", "1,2", "--dkh", 1), "k = 0.5\n"),
], ids=["k-and-k-values", "dkh-and-dkh-range", "config-k-and-flag-k-values"])
def test_single_value_and_its_grid_are_exclusive(tmp_path, capsys, flags, entries):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(entries)
    out = tmp_path / "out"
    rc = run("nm-sweep", "--config", cfg, "--map", "sm", *flags, "--n", 32,
             "--t", 5, "--out-dir", out)
    assert rc == 2
    assert "not both" in capsys.readouterr().err
    assert not out.exists()


def test_threads_env_must_be_an_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.THREADS_ENV, "abc")
    rc = run("nm-sweep", "--map", "sm", "--k", 0.5, "--dkh", 1, "--n", 32,
             "--t", 5, "--out-dir", tmp_path)
    assert rc == 2
    assert cli.THREADS_ENV in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "nm-sweep --map sm --k 0.5 --dkh 1 --n 32 --t 5",
    "avg-mp-sweep --map sm --k 0.5 --dkh 1 --n 32 --t 5 --s 2",
    "diffusion --map sm --k 0.5 --horizon 10 --orbits 4",
    "classical-nm --map sm --k 0.5 --delta-k 0.01 --t 10 --grid 2",
], ids=["nm-sweep", "avg-mp-sweep", "diffusion", "classical-nm"])
def test_empty_threads_env_reads_as_unset(tmp_path, monkeypatch, argv):
    monkeypatch.setenv(cli.THREADS_ENV, "")
    assert run(*argv.split(), "--out-dir", tmp_path) == 0


def test_threads_env_drives_the_pool(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.THREADS_ENV, "2")
    rc = run("nm-sweep", "--map", "sm", "--k-values", "0.5,1.0", "--dkh", 1,
             "--n", 32, "--t", 5, "--out-dir", tmp_path)
    assert rc == 0


def test_explicit_zero_threads_rejected(tmp_path, capsys):
    rc = run("nm-sweep", "--map", "sm", "--k", 0.5, "--dkh", 1, "--n", 32,
             "--t", 5, "--threads", 0, "--out-dir", tmp_path)
    assert rc == 2
    assert "thread hint" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# scans


def test_phase_scan_csv_and_pgm(tmp_path):
    rc = run("phase-scan", "--map", "sm", "--k", 0.9, "--dkh", 1, "--n", 32,
             "--t", 10, "--s", 3, "--out-dir", tmp_path)
    assert rc == 0
    stem = "phase_scan_sm_k0.9_dkh1_n32_t10_s3"
    grid = load_grid(tmp_path / (stem + ".csv"))
    direct = scan_phase_space("sm", 0.9, 1.0, 32, 10, 3)
    assert np.array_equal(grid.values, direct.values)
    pgm = (tmp_path / (stem + ".pgm")).read_bytes()
    assert pgm.startswith(b"P5 3 3 255\n")
    assert len(pgm) == len(b"P5 3 3 255\n") + 9


def test_line_scan_csv(tmp_path):
    rc = run("line-scan", "--map", "sm", "--k", 0.9, "--dkh", 1, "--n", 32,
             "--t", 10, "--q0", 0.1, "--p0", 0.2, "--q1", 0.9, "--p1", 0.2,
             "--points", 4, "--out-dir", tmp_path)
    assert rc == 0
    lines = read_lines(tmp_path / "line_scan_sm_k0.9_dkh1_n32_t10.csv")
    assert lines[1] == "q,p,value"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 4
    assert float(rows[0][0]) == pytest.approx(0.1)
    assert float(rows[-1][0]) == pytest.approx(0.9)
    assert all(float(r[1]) == pytest.approx(0.2) for r in rows)

    # the rows carry the centers as given: the diagonal ends on (1, 1), not
    # on its wrapped image (0, 0)
    rc = run("line-scan", "--map", "hm", "--k", 0.1, "--dkh", 2, "--n", 16,
             "--t", 3, "--q0", 0, "--p0", 0, "--q1", 1, "--p1", 1,
             "--points", 3, "--out-dir", tmp_path)
    assert rc == 0
    rows = read_lines(tmp_path / "line_scan_hm_k0.1_dkh2_n16_t3.csv")[2:]
    assert [row.rsplit(",", 1)[0] for row in rows] == ["0.0,0.0", "0.5,0.5", "1.0,1.0"]


# ---------------------------------------------------------------------------
# classical commands


def test_classical_portrait_csv(tmp_path):
    rc = run("classical-portrait", "--map", "sm", "--k", 1.2, "--orbits", 9,
             "--steps", 5, "--out-dir", tmp_path)
    assert rc == 0
    lines = read_lines(tmp_path / "portrait_sm_k1.2.csv")
    assert lines[1] == "x,p"
    rows = lines[2:]
    assert len(rows) == 9 * 6
    for row in rows:
        x, p = (float(tok) for tok in row.split(","))
        assert 0.0 <= x < 1.0 and 0.0 <= p < 1.0


def test_diffusion_csv_and_progress(tmp_path, capsys):
    rc = run("diffusion", "--map", "sm", "--k-values", "0.5,2.5",
             "--horizon", 200, "--orbits", 100, "--out-dir", tmp_path)
    assert rc == 0
    lines = read_lines(tmp_path / "diffusion_sm_k0.5-2.5x2_h200.csv")
    assert lines[1] == "K,horizon,D"
    assert lines[2].startswith("0.5,200,")
    assert len(lines) == 4
    assert "diffusion: cell 2/2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "diffusion --map sm --k-values 0.5,2.5,1.2 --horizon 50 --orbits 64",
    "classical-nm --map hm --k-values 0.2,0.3 --k2 0.4 --t 40 --grid 4",
], ids=["diffusion", "classical-nm"])
def test_classical_rows_do_not_depend_on_worker_count(tmp_path, capsys, argv):
    bodies = []
    for threads in (1, 2):
        out = tmp_path / str(threads)
        assert run(*argv.split(), "--threads", threads, "--out-dir", out) == 0
        (csv,) = out.glob("*.csv")
        bodies.append(read_lines(csv)[1:])
    assert len(bodies[0]) > 2 and bodies[0] == bodies[1]
    assert f"{argv.split()[0]}: cell 2/" in capsys.readouterr().err


def test_classical_nm_csv(tmp_path):
    rc = run("classical-nm", "--map", "sm", "--k", 0.9, "--delta-k", 0.001,
             "--t", 50, "--grid", 4, "--out-dir", tmp_path)
    assert rc == 0
    lines = read_lines(tmp_path / "classical_nm_sm_k0.9_t50.csv")
    assert lines[1] == "K,T,value"
    k, t, value = lines[2].split(",")
    assert float(k) == 0.9 and t == "50" and float(value) >= 0.0


def test_one_parser_serves_every_run_of_a_process(tmp_path):
    # the parser is built once; a run in between, with other options set,
    # must leave nothing behind for the next run to pick up
    argv = ("classical-nm", "--map", "hm", "--k", 0.3, "--k2", 0.4, "--t", 30, "--grid", 4,
            "--out-dir", tmp_path)
    assert run(*argv) == 0
    path = tmp_path / "classical_nm_hm_k0.3_t30.csv"
    first = path.read_bytes()
    assert run("diffusion", "--map", "sm", "--k", 1.2, "--horizon", 20, "--orbits", 16,
               "--seed", 3, "--plot", "--out-dir", tmp_path / "other") == 0
    assert run(*argv) == 0
    assert path.read_bytes() == first
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name, "other"]
    assert cli.build_parser() is cli.build_parser()


# ---------------------------------------------------------------------------
# rate commands


def test_gamma_curve_csv(tmp_path):
    rc = run("gamma-curve", "--dkh-max", 6, "--points", 25,
             "--out-dir", tmp_path)
    assert rc == 0
    lines = read_lines(tmp_path / "gamma_curve_max6_25.csv")
    assert lines[1] == "dkh,gamma"
    rows = lines[2:]
    assert len(rows) == 25
    d0, g0 = (float(tok) for tok in rows[0].split(","))
    assert d0 == 0.0 and g0 == 0.0
    assert float(rows[-1].split(",")[0]) == 6.0


def test_gamma_curve_beyond_the_j0_range_exits_2(tmp_path, capsys):
    rc = run("gamma-curve", "--dkh-max", 10000, "--points", 5, "--out-dir", tmp_path)
    assert rc == 2
    assert "|x| <= 8192" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_nm_sweep_plot_refuses_its_dkh_grid_before_the_sweep(tmp_path, capsys):
    rc = run("nm-sweep", "--map", "sm", "--k", 0.5, "--dkh-values=-0.5,1", "--n", 16,
             "--t", 3, "--plot", "--out-dir", tmp_path)
    assert rc == 2
    err = capsys.readouterr().err
    assert "dkh must be finite and >= 0" in err
    assert "cell" not in err
    assert list(tmp_path.iterdir()) == []


def test_short_time_check_prints_a_summary(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = run("short-time-check", "--map", "sm", "--k", 2.5, "--dkh", 2,
             "--n", 128)
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("short-time-check sm K=2.5 dkh=2 N=128:")
    assert "diverged=False" in captured.out
    assert "wrote" not in captured.out
    assert list(tmp_path.iterdir()) == []


def test_short_time_check_on_a_j0_zero_prints_an_infinite_rate(capsys):
    rc = run("short-time-check", "--map", "hm", "--k", 0.3, "--dkh", 2.404825557695773,
             "--n", 128)
    assert rc == 0
    out = capsys.readouterr().out
    assert "measured=inf predicted=inf residual=nan diverged=True" in out


def test_short_time_check_guard_returns_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = run("short-time-check", "--map", "sm", "--k", 2.5, "--dkh", 2,
             "--n", 16384)
    assert rc == 1
    assert "exceeds the dense-matrix guard" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_out_dir_is_created_on_demand(tmp_path):
    target = tmp_path / "deep" / "nest"
    rc = run("gamma-curve", "--dkh-max", 2, "--points", 5,
             "--out-dir", target)
    assert rc == 0
    assert (target / "gamma_curve_max2_5.csv").exists()


# ---------------------------------------------------------------------------
# pinned output bytes and README examples


_GP_HEAD = 'set datafile separator ","\nset terminal pngcairo size 900,700\n'


# the file-writing subcommands, each run with --plot
_PINNED = [
    pytest.param(
        "fidelity --map sm --k 1.2 --dkh 2 --n 16 --t 3",
        "# torus-echo fidelity dkh=2 k=1.2 kind=trace map=sm n=16 out_dir=out plot=True t=3",
        'set output "fidelity_sm_k1.2_dkh2_n16_t3_trace.png"\n'
        "set key autotitle columnhead\n"
        "set logscale y\n"
        'set xlabel "t (kicks)"\n'
        'set ylabel "|f|"\n'
        'plot "fidelity_sm_k1.2_dkh2_n16_t3_trace.csv" using 1:4 with lines title "|f|"\n',
        id="fidelity"),
    pytest.param(
        "nm-sweep --map sm --k 0.5 --dkh-values 1,2 --n 16 --t 3",
        "# torus-echo nm-sweep dkh_values=1,2 k=0.5 map=sm n=16 out_dir=out plot=True t=3",
        'set output "nm_sweep_sm_k0.5_dkh1-2x2_n16_t3.png"\n'
        "unset key\n"
        'set xlabel "dkh"\n'
        'set ylabel "K"\n'
        'set y2label "Gamma"\n'
        "set y2tics\n"
        "set y2range [0:10]\n"
        'plot "nm_sweep_sm_k0.5_dkh1-2x2_n16_t3.csv" using 2:1:6 with image, '
        '"nm_sweep_sm_k0.5_dkh1-2x2_n16_t3_gamma.csv" using 1:($2 > 10 ? 10 : $2)'
        ' axes x1y2 with lines lc "gray"\n',
        id="nm-sweep"),
    pytest.param(
        "avg-mp-sweep --map hm --k-values 0.2,0.3 --dkh 1 --n 16 --t 3 --s 2",
        "# torus-echo avg-mp-sweep dkh=1 k_values=0.2,0.3 map=hm n=16 out_dir=out"
        " plot=True s=2 t=3",
        'set output "avg_mp_sweep_hm_k0.2-0.3x2_dkh1_n16_t3_s2.png"\n'
        "set key autotitle columnhead\n"
        'set xlabel "K"\n'
        'set ylabel "measure"\n'
        'plot "avg_mp_sweep_hm_k0.2-0.3x2_dkh1_n16_t3_s2.csv" using 1:6'
        ' with linespoints title "measure"\n',
        id="avg-mp-sweep"),
    pytest.param(
        "phase-scan --map sm --k 0.9 --dkh 1 --n 16 --t 3 --s 2",
        "# torus-echo phase-scan dkh=1 k=0.9 map=sm n=16 out_dir=out plot=True s=2 t=3",
        'set output "phase_scan_sm_k0.9_dkh1_n16_t3_s2.png"\n'
        "unset key\n"
        "set size square\n"
        "set palette gray\n"
        'set xlabel "q"\n'
        'set ylabel "p"\n'
        'plot "phase_scan_sm_k0.9_dkh1_n16_t3_s2.csv" matrix with image\n',
        id="phase-scan"),
    pytest.param(
        "line-scan --map hm --k 0.1 --dkh 2 --n 16 --t 3 --q0 0 --p0 0 --q1 1 --p1 1"
        " --points 2",
        "# torus-echo line-scan dkh=2 k=0.1 map=hm n=16 out_dir=out p0=0 p1=1 plot=True"
        " points=2 q0=0 q1=1 t=3",
        'set output "line_scan_hm_k0.1_dkh2_n16_t3.png"\n'
        "set key autotitle columnhead\n"
        'set xlabel "q0"\n'
        'set ylabel "measure"\n'
        'plot "line_scan_hm_k0.1_dkh2_n16_t3.csv" using 1:3 with linespoints title "measure"\n',
        id="line-scan"),
    pytest.param(
        "classical-portrait --map sm --k 0.98 --orbits 2 --steps 2",
        "# torus-echo classical-portrait k=0.98 map=sm orbits=2 out_dir=out plot=True"
        " seed=0 steps=2",
        'set output "portrait_sm_k0.98.png"\n'
        "unset key\n"
        "set size square\n"
        "set xrange [0:1]\n"
        "set yrange [0:1]\n"
        'set xlabel "x"\n'
        'set ylabel "p"\n'
        'plot "portrait_sm_k0.98.csv" using 1:2 with dots\n',
        id="classical-portrait"),
    pytest.param(
        "diffusion --map sm --k-min 0.5 --k-max 1 --k-points 2 --horizon 10 --orbits 10",
        "# torus-echo diffusion horizon=10 k_max=1 k_min=0.5 k_points=2 map=sm orbits=10"
        " out_dir=out plot=True seed=0",
        'set output "diffusion_sm_k0.5-1x2_h10.png"\n'
        "set key autotitle columnhead\n"
        "set logscale y\n"
        'set xlabel "K"\n'
        'set ylabel "D"\n'
        'plot "diffusion_sm_k0.5-1x2_h10.csv" using 1:3 with linespoints title "D"\n',
        id="diffusion"),
    pytest.param(
        "classical-nm --map hm --k 0.2 --k2 0.3 --delta-k 0.01 --t 10 --grid 2",
        "# torus-echo classical-nm delta_k=0.01 grid=2 k=0.2 k2=0.3 map=hm out_dir=out"
        " plot=True t=10",
        'set output "classical_nm_hm_k0.2_t10.png"\n'
        "set key autotitle columnhead\n"
        'set xlabel "K"\n'
        'set ylabel "measure"\n'
        'plot "classical_nm_hm_k0.2_t10.csv" using 1:3 with linespoints title "measure"\n',
        id="classical-nm"),
    pytest.param(
        "gamma-curve --dkh-max 3 --points 5",
        "# torus-echo gamma-curve dkh_max=3 out_dir=out plot=True points=5",
        'set output "gamma_curve_max3_5.png"\n'
        "set key autotitle columnhead\n"
        "ceil = 10.0\n"
        "set yrange [0:ceil]\n"
        'set xlabel "dkh"\n'
        'set ylabel "Gamma"\n'
        'plot "gamma_curve_max3_5.csv" using 1:($2 > ceil ? ceil : $2) with lines title "Gamma"\n',
        id="gamma-curve"),
]


@pytest.mark.parametrize("argv, echo, script", _PINNED)
def test_config_echo_and_plot_script_bytes(tmp_path, monkeypatch, argv, echo, script):
    monkeypatch.chdir(tmp_path)
    assert run(*argv.split(), "--plot", "--out-dir", "out") == 0
    names = sorted(os.listdir("out"))
    csvs = [name for name in names if name.endswith(".csv")]
    assert csvs and all(read_lines(os.path.join("out", name))[0] == echo for name in csvs)
    (gp,) = [name for name in names if name.endswith(".gp")]
    assert (tmp_path / "out" / gp).read_text() == _GP_HEAD + script


# the benchmark ends each of its command lines with `--threads 1 --out-dir DIR`,
# so these subcommands, which it runs, take threads without reading it
_THREADS_UNREAD = ("fidelity", "phase-scan")


def test_every_option_is_read_by_its_subcommand(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argvs = [param.values[0].split() + ["--plot", "--out-dir", "out"] for param in _PINNED]
    argvs += [
        "fidelity --map sm --k 0.9 --dkh 1 --n 16 --t 3 --kind pure --q0 0.25 --p0 0.5".split(),
        "short-time-check --map sm --k 2.5 --dkh 2 --n 16".split(),
    ]
    read = {cmd: set() for cmd in cli._COMMANDS}
    echoed_unread = {}
    for argv in argvs:
        args = cli._resolve(cli.build_parser().parse_args(argv))
        seen = set()

        # the config echo takes vars() of the namespace, which records no
        # option name, so an option that is only echoed counts as unread
        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                seen.add(name)
                return super().__getattribute__(name)

        cli._COMMANDS[args.cmd].run(Recording(**vars(args)))
        read[args.cmd] |= seen
        # every option this run echoes is read by this run, not only by
        # another run of the same subcommand
        echoed = {key for key, val in vars(args).items() if key != "cmd" and val is not None}
        if args.cmd in _THREADS_UNREAD:
            echoed -= {"threads"}
        if echoed - seen:
            echoed_unread[" ".join(argv)] = sorted(echoed - seen)
    assert echoed_unread == {}
    unread = {}
    for cmd, command in cli._COMMANDS.items():
        names = {opt.name for opt in command.options} - {"config"}
        if cmd in _THREADS_UNREAD:
            names -= {"threads"}
        if names - read[cmd]:
            unread[cmd] = sorted(names - read[cmd])
    assert unread == {}


def test_readme_command_lines_parse_and_resolve():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("torus-echo ")]
    assert len(lines) >= 10
    parser = cli.build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        assert cli._resolve(parser.parse_args(argv)).cmd == argv[0], line
