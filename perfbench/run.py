#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the update protocol.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark program is compiled in Release
from perfbench/CMakeLists.txt into .bench_build/ (or $CARGO_TARGET_DIR),
apart from the repository's own build trees; its build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "session.h")):
        print("run.py: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                         ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--target", "p2pdb_perfbench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("run.py: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return done.returncode or 1
    binary = os.path.join(build, "p2pdb_perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
