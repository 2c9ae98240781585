#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 vqebench/smoke_test.py

Run from the repository root. Runs every workload named in
BENCHMARK.json through vqebench/run.py at a tiny length (one input,
one SPSA iteration per pass), untraced and traced, and checks that
each run exits 0, that its output checks passed, and that the
metrics it emits are exactly the ones BENCHMARK.json declares, with
the declared units. Exits non-zero on the first mismatch.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", "1",
                   "--seconds", "0.1", "--trace", trace,
                   "--iterations", "1", "--inputs", "1"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900, check=False)
            label = f"{workload} --trace {trace}"
            problem = None
            if proc.returncode != 0:
                problem = f"exit status {proc.returncode}"
            else:
                result = json.loads(proc.stdout.splitlines()[-1])
                got = {name: m["unit"]
                       for name, m in result["metrics"].items()}
                if not result["correct"] or result["failed"]:
                    problem = f"{result['failed']} failed checks"
                elif got != declared[trace]:
                    problem = f"metrics {got} != {declared[trace]}"
            if problem:
                failures += 1
                print(f"FAIL {label}: {problem}\n{proc.stderr[-2000:]}")
            else:
                print(f"ok   {label}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
