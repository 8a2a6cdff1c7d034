#!/usr/bin/env python3
"""Run one workload of the H2O-NAS end-to-end benchmark.

    python3 e2e_bench/run.py --workload serve_mix --seed 1 --seconds 10 --trace 0

Builds the benchmark binary and the program libraries it links from
source (CMake, into .bench_build/ at the repository root; the first
build takes a few minutes, later ones are incremental), then runs the
workload in one process. Build output goes to standard error. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 1 the run also writes its
spans as Chrome trace-event JSON to .bench_out/.

Exits non-zero, without a result line, when the program's sources are
missing or the build fails; exits non-zero after the result line when a
correctness check fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("perfmodel_two_phase", "h2o_supernet", "multitarget_cold",
             "serve_mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build the benchmark target incrementally."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log(f"the program's sources are missing ({needed} not found "
                f"under {ROOT}); nothing to benchmark")
            sys.exit(3)
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "h2o_bench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            try:
                subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               check=True, timeout=BUILD_TIMEOUT_S)
            except (subprocess.CalledProcessError,
                    subprocess.TimeoutExpired) as e:
                log(f"build step failed: {e}")
                sys.exit(3)
    return os.path.join(BUILD_DIR, "h2o_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace_file",
                os.path.join(OUT_DIR,
                             f"trace_{args.workload}_seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 4
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log(f"{args.workload} exited {proc.returncode} without a result")
        return proc.returncode or 4
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
