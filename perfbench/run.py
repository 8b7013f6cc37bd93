#!/usr/bin/env python3
"""Builds the PALEO benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n>
        --seconds <s> --trace <0|1>

The benchmark binary is compiled from the checkout's own src/ into
.bench_build/perfbench (incrementally, so only the first run pays for the
build). The last line of standard output is the run's JSON result; build
output and progress go to standard error. A traced run also writes its
span log to .bench_build/traces/<workload>-<seed>.json.

Exits non-zero without printing a result when the build or the run fails
or the run exceeds its time limit.
"""

import argparse
import ctypes
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "paleo_perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
JOBS = min(4, os.cpu_count() or 1)
RUN_TIMEOUT_S = 170


def die_with_parent():
    """Makes the child exit if this process dies first (Linux)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def run_child(cmd, timeout=None, stdout=None):
    """Runs cmd, forwarding SIGTERM to it; returns its exit code."""
    child = subprocess.Popen(cmd, stdout=stdout or sys.stderr,
                             stderr=sys.stderr, preexec_fn=die_with_parent)

    def forward(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    previous = signal.signal(signal.SIGTERM, forward)
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"timed out after {timeout} s: {' '.join(cmd)}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if run_child(configure) != 0:
            return False
    return run_child(["cmake", "--build", BUILD_DIR, "-j", str(JOBS)]) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dump",
                        help="per-list counts, for the determinism test")
    args = parser.parse_args()

    if not build():
        print("build failed", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(TRACE_DIR, f"{args.workload}-{args.seed}.json")]
    if args.dump:
        cmd += ["--dump", args.dump]
    sys.stdout.flush()
    return run_child(cmd, timeout=RUN_TIMEOUT_S, stdout=sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
