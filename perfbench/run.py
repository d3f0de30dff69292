#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload kv_lan_hot --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ (which compiles the library sources in
src/) into .bench_build/ with CMake on first use, then runs one workload.
The last line of standard output is the benchmark's JSON result. Exits
nonzero, without a result, when the build fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def run_quiet(cmd):
    """Runs a build step; its output goes to stderr only if it fails."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(f"perfbench: build step failed: {' '.join(cmd)}\n")
        sys.exit(proc.returncode or 1)


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD), "--target", "perfbench",
               "-j", jobs])


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-commit", git_commit()]
    if args.trace == 1:
        cmd += ["--spans-dir", str(BUILD / "spans")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        sys.exit(1)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
