#!/usr/bin/env python3
"""Build bench_e2e from this source checkout and run one workload.

    python3 bench_e2e/run.py --workload W --seed S --seconds T --trace 0|1
                             [--json FILE]

Run from the checkout root.  The first call configures and builds the
fencetrade libraries and the driver (Release) under $CARGO_TARGET_DIR
(default .bench_build); later calls only rebuild what changed.  Build
output goes to stderr, so the driver's result object stays the last line
of stdout.  With --trace 1 the Chrome trace is written under the build
directory.  Exits non-zero, without a result line, when the build fails,
for instance when the fencetrade sources are not beside this directory.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Compile jobs.  The build is the only step using more than two cores;
# runs stay within two exploration threads or two worker processes.
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("bench_e2e: no fencetrade sources at %s/src" % ROOT,
              file=sys.stderr)
        return None
    cmake_dir = os.path.join(build_dir, "bench_e2e")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "bench_e2e",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("bench_e2e: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(cmake_dir, "bench_e2e")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--json", help="also write the full run report here")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    exe = build(build_dir)
    if exe is None:
        return 2
    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--expected", os.path.join(HERE, "expected.json")]
    if args.trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.json:
        cmd += ["--json", args.json]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("bench_e2e: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
