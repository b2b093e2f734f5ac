#!/usr/bin/env python3
"""Entry point of the repo benchmark (see NOTES.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Builds perfbench/ (a CMake project
compiling ../src) into .bench_build/perfbench, then runs the benchmark,
whose last stdout line is the result JSON. Build output goes to stderr.
Exits non-zero, printing no result, when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build(target):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", BUILD] + generator + [
            "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def run(cmd, timeout):
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 124


def main(argv):
    if argv == ["--selftest"]:
        if not build("perfbench_selftest"):
            return 2
        return run([os.path.join(BUILD, "perfbench_selftest")], 600)
    if not build("perfbench"):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench")] + argv + [
        "--trace-dir", trace_dir]
    return run(cmd, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
