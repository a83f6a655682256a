#!/usr/bin/env python3
"""The repository benchmark: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from the root of a source checkout. Every run configures and builds
perfbench/ (which builds the library from ../src) in Release mode under
.bench_build/perfbench; after the first, that is an incremental no-op.
Generated graphs are cached as binary CSR under .bench_build/graphs, and
traced runs write their phase spans to .bench_build/traces.

The binary's report goes to standard output; its last line is the JSON
result {"correct", "attempted", "failed", "metrics"}. Build output goes to
standard error. Any failure exits non-zero without a result line.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build (incrementally), serialized across concurrent
    runs."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(os.cpu_count() or 1, 8)))
        steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if done.returncode != 0:
                fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown(not-a-git-checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs: checks the report, measures nothing")
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cache-dir", os.path.join(WORK, "graphs"),
           "--git-commit", git_commit()]
    if args.trace:
        traces = os.path.join(WORK, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.jsonl")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"perfbench exited {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(done.stdout)
        fail("perfbench printed no result line")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
