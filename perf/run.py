#!/usr/bin/env python3
"""Build and run the AeroPack benchmark.

Usage, from the repository root:

    python3 perf/run.py --workload design_sweep --seed 1 --seconds 12 --trace 0

Workloads: design_sweep, steady_fv, mission_campaign. `--trace 0` prints
every end-to-end metric; `--trace 1` runs the traced pass and prints every
per-layer metric. The last stdout line is the result object; build output
goes to stderr. aeropack_perf is built from perf/ and ../src into
$CARGO_TARGET_DIR/perf (default .bench_build/perf); results and traces are
written under perf/out/.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build() -> Path:
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perf"
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(build_dir), "--parallel", "4"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perf/run.py: build step failed: {' '.join(step)}")
    return build_dir / "aeropack_perf"


def main() -> int:
    binary = build()
    args = sys.argv[1:] + ["--ref", str(HERE / "reference"), "--out", str(HERE / "out")]
    sys.stdout.flush()
    return subprocess.run([str(binary)] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
