#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny size, untraced and
traced, must print every metric BENCHMARK.json names, with its unit, check
its answers, and end with a well-formed result line.

    python3 perfbench/test_smoke.py

Takes about a minute (plus the first build). Exits non-zero on failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900, check=False)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {done.returncode}")
    return done.stdout.rstrip("\n").split("\n")


def check(workload, trace, lines, expected):
    where = f"{workload} trace={trace}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: not correct"
    assert result["attempted"] >= 1 and result["failed"] == 0, where
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (
        f"{where}: metrics differ: missing {sorted(set(expected) - set(metrics))}, "
        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics[name]
        assert set(got) == {"value", "unit"}, f"{where}: {name}"
        assert got["unit"] == unit, f"{where}: {name} unit {got['unit']} != {unit}"
        assert isinstance(got["value"], (int, float)), f"{where}: {name}"
        # Every metric is also printed by name, with its unit, above the
        # result line.
        assert any(line.startswith(f"{name} ") and f" {unit}" in line
                   for line in lines[:-1]), f"{where}: {name} not printed"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for w in spec["workloads"]:
        for trace, expected in modes.items():
            try:
                check(w["name"], trace, run(w["name"], trace), expected)
                print(f"ok   {w['name']} trace={trace}")
            except (AssertionError, ValueError, subprocess.TimeoutExpired) as e:
                failures += 1
                print(f"FAIL {w['name']} trace={trace}: {e}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
