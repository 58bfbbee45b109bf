#!/usr/bin/env python3
"""Builds bench_e2e from source, then runs one workload.

Usage, from the repository root:

    python3 bench/e2e/run.py --workload mlp-train --seed 1 --seconds 20 --trace 0

The build goes to .bench_build/e2e under the repository root (CMake, Ninja
when available) and its output goes to stderr, so the last line on stdout is
the benchmark's JSON result. All arguments pass through to the binary; see
README.md next to this file.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "bench_e2e")


def build():
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "bench_e2e",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execv(BINARY, [BINARY, *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
