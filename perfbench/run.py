#!/usr/bin/env python3
"""Builds and runs the treeq serving benchmark.

    python3 perfbench/run.py --workload eval_mix --seed 1 --seconds 20 --trace 0

Run from the root of a treeq checkout. The first run configures and
builds perfbench/ (a CMake package that compiles ../src itself) into
.bench_build/perfbench; later runs only check that the build is current.
Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Run records and trace spans are written to
.bench_build/perfbench/records.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RECORDS = os.path.join(BUILD, "records")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configures (once) and builds the benchmark; exits non-zero on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            sys.exit(1)
    os.makedirs(RECORDS, exist_ok=True)


def commit():
    """The checkout's git commit, or 'unknown' outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv):
    build()
    sys.stdout.flush()
    cmd = [BINARY] + argv + ["--commit", commit(), "--out-dir", RECORDS]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
