"""torus-echo benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload trace-sweep --seed 0 --seconds 36 --trace 0

Run from anywhere; paths resolve from this file to the checkout root.  Jobs
run one at a time in a closed loop, each in a fresh worker process
(worker.py), until --seconds have passed; the last job is always finished.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, each the median
over the run's jobs: wall_s (the job from its first library call to its
last), setup_s (importing torus_echo and building the parser) and
peak_rss_mb (the job process's ru_maxrss).

wall_s and setup_s are given in seconds of a machine on which the yardstick
computation takes NOMINAL_YARDSTICK_S: each raw time is multiplied by
NOMINAL_YARDSTICK_S over the mean of the yardstick timed just before and
just after its job.  The run pins itself and its jobs to one CPU, so the
yardstick sees the speed the job saw.  The shared 2-core VM this was tuned
on runs 30-40% slower for tens of seconds at a time; that drift moved the
raw medians of 36-second runs by up to 27% (wall) and 42% (set-up)
(interquartile range over ten runs, over the median).  The yardstick slows
alike, so the scaled times keep the program's own slowdown and drop most of
the machine's.  Raw times are in the run record and, as raw.wall_s and
raw.setup_s, in the per-layer metrics.

--trace 1 alternates untraced and traced jobs, then makes one tracemalloc
pass, and prints the per-layer metrics (medians over the traced jobs), the
raw untraced and traced job wall times and their ratio, and the yardstick
time.

Every job checks its outputs; attempted and failed count the checked
outputs of all jobs, so failed / attempted is the failed share.  The last
line of standard output is the result; the line before it is the run record,
which is also written with every span and check to .bench_out/.  A missing
library or a job that errors ends the run with exit code 1 and no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
JOB_TIMEOUT_S = 150
# The yardstick's typical time on the machine the benchmark was tuned on.
NOMINAL_YARDSTICK_S = 0.2
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha(root: Path) -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref.removeprefix("ref: ")
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        sha, _, refname = line.partition(" ")
        if refname == name:
            return sha
    return None


def source_digest(root: Path) -> str:
    """sha256 over the library sources; identifies code where git is absent."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def job_env() -> dict[str, str]:
    """TORUS_ECHO_THREADS unset; BLAS threads capped at the one CPU jobs run on."""
    env = dict(os.environ)
    env.pop("TORUS_ECHO_THREADS", None)
    env.update({name: "1" for name in BLAS_ENV})
    env["PYTHONNOUSERSITE"] = "1"
    return env


def run_job(args, mode: str, index: int, env: dict[str, str]) -> dict:
    work = OUT / f"job-{os.getpid()}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), args.workload, args.profile,
             str(args.seed), mode, str(work), str(args.reference)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise SystemExit(f"{mode} job of {args.workload} exited with {proc.returncode}")
        return json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def yardstick_s() -> float:
    """Wall time of a fixed numpy computation, the measure of machine speed.

    Shaped like the workloads' hot loops (column FFTs, a vectorized sin step
    over 4000 orbits, 2x2 eigvalsh in a Python loop), runs here in the
    orchestrator and never touches torus_echo, so it slows with the machine
    but not with the program under test.
    """
    rng = np.random.default_rng(0)
    cols = rng.normal(size=(256, 64)) + 1j * rng.normal(size=(256, 64))
    orbits = rng.random(4000)
    mats = [np.array([[1.0, 0.3j], [-0.3j, -1.0]]) * (1 + i / 100) for i in range(100)]
    start = time.perf_counter()
    for _ in range(180):
        cols = np.fft.ifft(np.fft.fft(cols, axis=0), axis=0)
    for _ in range(900):
        orbits = (orbits + 0.1 * np.sin(2 * np.pi * orbits)) % 1.0
    for _ in range(60):
        for m in mats:
            np.linalg.eigvalsh(m)
    return time.perf_counter() - start


def median_of(jobs: list[dict], key: str) -> float:
    return statistics.median(job[key] for job in jobs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--profile", default="full", choices=("full", "smoke"),
                        help="job shapes; smoke is the scaled-down self-test shape")
    parser.add_argument("--reference", type=Path, default=BENCH / "reference.json",
                        help="reference values the checks compare against")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        parser.error("--seed must be >= 0 (numpy seeds are non-negative)")
    if not (ROOT / "src" / "torus_echo").is_dir():
        raise SystemExit(f"no torus_echo sources under {ROOT / 'src'}")
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[-1]
    os.sched_setaffinity(0, {cpu})
    env = job_env()

    plain, traced, yardstick = [], [], []
    start = time.perf_counter()
    while True:
        yardstick.append(yardstick_s())
        plain.append(run_job(args, "plain", len(plain) + len(traced), env))
        if args.trace:
            traced.append(run_job(args, "traced", len(plain) + len(traced), env))
        if time.perf_counter() - start >= args.seconds:
            break
    yardstick.append(yardstick_s())
    for job, before, after in zip(plain, yardstick, yardstick[1:]):
        job["yardstick_s"] = (before + after) / 2
        job["scaled"] = {key: job[key] * NOMINAL_YARDSTICK_S / job["yardstick_s"]
                         for key in ("wall_s", "setup_s")}
    alloc = [run_job(args, "alloc", len(plain) + len(traced), env)] if args.trace else []
    jobs = plain + traced + alloc

    if args.trace:
        values = {name: statistics.median(job["metrics"][name] for job in traced)
                  for name in traced[0]["metrics"]}
        values.update(alloc[0]["metrics"])
        values["raw.wall_s"] = median_of(plain, "wall_s")
        values["raw.setup_s"] = median_of(plain, "setup_s")
        values["yardstick.wall_s"] = median_of(plain, "yardstick_s")
        values["trace.wall_s"] = median_of(traced, "wall_s")
        values["trace.overhead_ratio"] = values["trace.wall_s"] / values["raw.wall_s"]
        wanted = spec["per_layer"]
    else:
        values = {key: statistics.median(job["scaled"][key] for job in plain)
                  for key in ("wall_s", "setup_s")}
        values["peak_rss_mb"] = median_of(plain, "peak_rss_mb")
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not measured: {', '.join(missing)}")

    checked = [check for job in jobs for check in job["checks"]]
    failed = [check for check in checked if not check[1]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "profile": args.profile,
        "git_sha": git_sha(ROOT), "source_sha256": source_digest(ROOT),
        "nproc": len(allowed), "pinned_cpu": cpu, "cli_threads": 1,
        "loop": "closed, one job at a time, each in a fresh process",
        **jobs[0]["versions"],
        "argv": jobs[0]["argv"], "shapes": jobs[0]["shapes"],
        "jobs": {"plain": len(plain), "traced": len(traced), "alloc": len(alloc)},
        "checked_outputs": len(checked), "failed_share": len(failed) / len(checked),
        "failed_checks": failed[:20],
        "nominal_yardstick_s": NOMINAL_YARDSTICK_S,
        "samples": {**{f"scaled_{key}": [job["scaled"][key] for job in plain]
                       for key in ("wall_s", "setup_s")},
                    **{key: [job[key] for job in plain]
                       for key in ("wall_s", "setup_s", "yardstick_s", "peak_rss_mb")}},
    }
    OUT.mkdir(exist_ok=True)
    log = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    log.write_text(json.dumps({"record": record, "jobs": jobs}, indent=1))
    record["log"] = str(log.relative_to(ROOT))
    for check in failed[:20]:
        print(f"check failed: {check[0]}: {check[2]}", file=sys.stderr)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print("record " + json.dumps(record))
    print(json.dumps({"correct": not failed, "attempted": len(checked),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
