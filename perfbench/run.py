#!/usr/bin/env python3
"""Build and run the whole-study benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload study_fresh --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --filter study_ --size smoke   # every matching workload

Run it from the root of a checkout. It configures and builds the library and
the perfbench_study program with CMake under $CARGO_TARGET_DIR (default
.bench_build) -- a no-op rebuild when nothing changed -- then runs it,
whose last line of standard output is the JSON result. Build output goes to
standard error. Exits non-zero, printing no result, when the library sources
are missing, the build fails, or the run fails or overruns.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run is stopped if it overruns this (its own time limit is 180 s).
RUN_TIMEOUT_S = 170
# The first build of a checkout may take minutes.
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_step(cmd, timeout):
    """Runs a build step with its output on stderr; fails the run on error."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}; "
             "run from the root of a full checkout")
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_step(["cmake", "--build", build_dir, "-j", jobs,
              "--target", "perfbench_study"], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench_study")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", help="exact workload name")
    which.add_argument("--filter",
                       help="run every workload whose name contains this")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    args = parser.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    binary = build(build_root)

    cmd = [binary]
    if args.workload is not None:
        cmd += ["--workload", args.workload]
    else:
        cmd += ["--filter", args.filter]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", args.trace, "--size", args.size,
            "--work-dir", os.path.join(build_root, "work")]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
