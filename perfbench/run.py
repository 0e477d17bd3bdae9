#!/usr/bin/env python3
"""Builds and runs the EarSonar repository benchmark for one workload.

    python3 perfbench/run.py --workload net-stream --seed 1 --seconds 15 --trace 0

Run from the repository root. Configures perfbench/ (the EarSonar
libraries, the CLI and the driver) in Release under $CARGO_TARGET_DIR, or
.bench_build when that is unset, builds what is out of date, then runs
perfbench_driver. Build output goes to stderr; the driver's stdout passes
through unchanged, so its JSON result stays the last line. Exits nonzero,
without a result line, when the build fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DRIVER_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_driver",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    try:
        return subprocess.run(
            [os.path.join(build_dir, "perfbench_driver"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--work-dir", build_dir],
            cwd=ROOT, timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: driver exceeded %d s" % DRIVER_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
