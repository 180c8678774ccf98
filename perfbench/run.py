#!/usr/bin/env python3
"""End-to-end benchmark of CLEAN: builds the driver in Release, runs one
workload and prints its result; see perfbench/README.md.

    python3 perfbench/run.py --workload sync-bound --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build and every file the run
writes go under .bench_build/ there. The last line of stdout is the
result JSON; build output goes to stderr.
"""

import argparse
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
OUT_DIR = os.path.join(BUILD_ROOT, "perfbench-out")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")


def build():
    """Configures once, then builds the driver (a no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "workloads", "runner.h")):
        sys.exit("perfbench: no CLEAN sources in %s" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every output check fails on its "
                             "negative-control input")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    build()
    if args.self_test:
        cmd = [DRIVER, "--self-test", "--out-dir", OUT_DIR]
    else:
        cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT_DIR,
               "--spawn-ns", str(time.monotonic_ns())]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
