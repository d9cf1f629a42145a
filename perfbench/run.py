#!/usr/bin/env python3
"""Builds the kbtim benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test

Run from the root of the repository. The first call configures and builds
perfbench/ (which builds the repository's libraries through the root
CMakeLists) into .bench_build/perfbench/; later calls rebuild only what
changed. Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. The binary runs from the root, so its
index directories (removed when the run ends) and the traced run's spans land
under .bench_build/perfbench/ (see src/main.cc).

--test builds and runs the benchmark's own tests of its output checks.
Any other argument is handed to the benchmark binary.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def build():
    """Configures (once) and builds; returns True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    return subprocess.call(["cmake", "--build", BUILD, "-j", JOBS],
                           stdout=sys.stderr) == 0


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if argv == ["--test"]:
        return subprocess.call([os.path.join(BUILD, "perfbench_checks_test")])
    sys.stdout.flush()
    return subprocess.call([os.path.join(BUILD, "kbtim_perfbench")] + argv,
                           cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
