#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/).

Usage, from the repository root:

    python3 perfbench/run.py --workload <ingest|fresh_query|snapshot> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The benchmark is a C++ program built from perfbench/CMakeLists.txt against
the library in include/qc and src/.  It is configured and built into
.bench_build/perfbench under the current directory (incremental after the
first build).  Build output goes to stderr; the benchmark's stdout is passed
through unchanged, so its last line is the JSON result.  The exit code is the
benchmark's: 0 when every correctness check passed.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, check=True, timeout=timeout, stdout=sys.stderr, stderr=sys.stderr)


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
              BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", str(BUILD), "--target", target, "-j", jobs], BUILD_TIMEOUT_S)
    return BUILD / target


def git_commit():
    """The checkout's commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["ingest", "fresh_query", "snapshot"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        if args.self_test:
            return subprocess.run([str(build("qcbench_selftest"))], timeout=60).returncode
        exe = build("qcbench")
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit(), "--results", str(out)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
