"""One benchmark job in a fresh process.

    python3 bench/worker.py WORKLOAD PROFILE SEED MODE OUT_DIR REFERENCE

run.py starts one of these per job.  It times the set-up (importing
torus_echo from the checkout's src/ and building the parser) before anything
else loads, runs the job in MODE (plain, traced or alloc), checks its outputs
against REFERENCE and writes OUT_DIR/result.json.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    workload, profile, seed, mode, out_dir, reference = argv
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import torus_echo
    from torus_echo import cli

    cli.build_parser()
    setup_s = time.perf_counter() - start
    if not Path(torus_echo.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"torus_echo loaded from {torus_echo.__file__}, not {ROOT / 'src'}")

    import json

    import harness

    out = Path(out_dir)
    result = harness.run_job(workload, profile, int(seed), mode, out)
    ref = json.loads(Path(reference).read_text())[profile][workload]
    result["checks"] = harness.checks(workload, result.pop("outputs"), ref, int(seed))
    result["setup_s"] = setup_s
    result["versions"] = harness.versions()
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
