#!/usr/bin/env python3
"""Builds and runs REVERE's request-boundary benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload portal --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (which compiles the
library from src/) into .bench_build/perfbench with CMake's Release
build type; later runs rebuild incrementally. The benchmark binary
prints a manifest line, a detail line, and, last, one JSON object
{"correct", "attempted", "failed", "metrics"}. This script adds the
source identity to the manifest and exits non-zero, printing no result,
when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "Release"
WORKLOADS = ("portal", "analytics", "churn", "overlay")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "perfbench")


def source_identity():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha1:" + digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if binary is None:
        log("build failed")
        return 2
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", source_identity()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=170)
    except subprocess.TimeoutExpired:
        log("run timed out")
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log(f"run failed with exit code {run.returncode}")
        return run.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("the last line of the run is not a JSON result")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("the result does not have the expected keys")
        return 1
    for line in lines:
        print(line)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
