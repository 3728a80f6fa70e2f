#!/usr/bin/env python3
"""Build the perfbench harness from source and run one measurement.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_fleet --seed 1 --seconds 30 --trace 0

The harness and the simulator libraries it links are compiled into
.bench_build/perfbench (Release, SIMD kernels on, contract checker off) on
the first run and rebuilt incrementally afterwards. Build output goes to
standard error, so the last line of standard output is the harness's
result object.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def build():
    """Configure once, then build incrementally; exits on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release", "-DST_SIMD=ON"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, cwd=ROOT) != 0:
            sys.exit("perfbench: configure failed")
    if subprocess.call(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                        "-j", jobs], stdout=sys.stderr, cwd=ROOT) != 0:
        sys.exit("perfbench: build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_fleet", "grid_fleet", "serve_load"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the simulator sources (src/) are not in this "
                 "checkout; nothing to measure")
    build()
    sys.stdout.flush()
    return subprocess.call(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", args.trace],
        cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
