"""Smoke self-test of the benchmark at scaled-down shapes (about a minute).

    python3 bench/selftest.py

Checks that
  * every workload prints, as its last line, exactly the keys of the result
    and exactly the metric names and units of BENCHMARK.json, in both modes,
    with every check passing;
  * a reference value nudged by 1e-6, beyond its tolerance, is counted as
    failed, one per workload and job, so the checks bite;
  * in a directory holding only BENCHMARK.json and bench/, the benchmark
    exits non-zero without printing a result.
Exits 0 when all hold.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_out" / "selftest"
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402

KEYS = {"correct", "attempted", "failed", "metrics"}


def run(root: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(harness.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace),
         "--profile", "smoke", *extra],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


# Far beyond the 1e-9 tolerance, far below the |dM| ~ 1e-2 of an eigenbasis
# defect: a check that misses this nudge would miss the defect too.
NUDGE = 1e-6


def nudged(ref: dict) -> dict:
    """Copy of the smoke reference with one value per workload moved by NUDGE."""
    ref = json.loads(json.dumps(ref))
    smoke = ref["smoke"]
    smoke["trace-sweep"]["cells"][0][2] += NUDGE
    smoke["pure-scan"]["grid"][1][2] += NUDGE
    smoke["classical-blp"]["closed"] += NUDGE
    return ref


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH / "reference.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    bad_ref = WORK / "nudged.json"
    bad_ref.write_text(json.dumps(nudged(reference)))
    problems = []

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            res = result(run(ROOT, workload, trace))
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if set(res) != KEYS or got != want:
                problems.append(f"{workload} trace={trace}: keys or metrics "
                                "differ from BENCHMARK.json")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: {res['failed']} of "
                                f"{res['attempted']} checks failed")
        res = result(run(ROOT, workload, 0, "--reference", str(bad_ref)))
        jobs = json.loads((ROOT / ".bench_out" / f"{workload}-seed0-trace0.json")
                          .read_text())["record"]["jobs"]["plain"]
        if res["correct"] or res["failed"] != jobs:
            problems.append(f"{workload}: nudged reference gave {res['failed']} failures "
                            f"in {jobs} jobs, expected one per job")

    bare = WORK / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or "correct" in proc.stdout:
        problems.append("run without src/ did not fail cleanly")
    shutil.rmtree(WORK, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
