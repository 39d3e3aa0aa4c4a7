#!/usr/bin/env python3
"""Builds the perfbench program from source, then runs one workload.

    python3 perfbench/run.py --workload rollout|serve_hot|serve_tierup \
        --seed N --seconds S --trace 0|1 [--corrupt-expected]

The build goes to .bench_build/perfbench under the repository root (a
Release build of the svc library and the program; incremental after the
first run), build output goes to stderr, and the program's own output,
whose last line is the JSON result, goes to stdout. Persistent stores
and deterministic-metric records live under .bench_build/perfbench-work;
traced runs write Chrome trace-event JSON to .bench_build/perfbench-traces.
The exit status is the program's (non-zero on any failed check), or 1 when
the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(os.cpu_count() or 1, 4))
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def flag(args, name):
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return None


def main():
    args = sys.argv[1:]
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "perfbench")] + args
    cmd += ["--work-dir", os.path.join(BUILD_ROOT, "perfbench-work")]
    if flag(args, "--trace") == "1":
        traces = os.path.join(BUILD_ROOT, "perfbench-traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (flag(args, "--workload"), flag(args, "--seed"))
        cmd += ["--trace-file", os.path.join(traces, name)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
