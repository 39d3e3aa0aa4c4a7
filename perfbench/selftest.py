#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

For every workload, runs the benchmark briefly with --corrupt-expected,
which flips one bit of one oracle answer before the run, and requires the
run to be caught: a non-zero exit status and a result line reporting
"correct": false with at least one failure. Exits non-zero if any
workload lets the corrupted answer through.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("rollout", "serve_hot", "serve_tierup")


def main():
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "2", "--trace", "0",
             "--corrupt-expected"],
            cwd=os.path.dirname(HERE), capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        caught = (proc.returncode != 0 and result.get("correct") is False
                  and result.get("failed", 0) > 0)
        print("%-13s %s (exit %d, %s failed)" % (
            workload, "caught" if caught else "NOT CAUGHT", proc.returncode,
            result.get("failed")))
        ok = ok and caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
