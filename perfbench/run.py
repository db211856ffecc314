#!/usr/bin/env python3
"""Build the benchmark driver from this checkout and run one workload.

    python3 perfbench/run.py --workload serve-jobs --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (the driver plus the libraries under src/) into .bench_build/;
later calls only rebuild what changed. Build output goes to stderr, so the
last line of stdout is the driver's JSON result. Traces and scratch tables
go to .bench_out/. Exits non-zero when the sources are missing, the build
fails, the driver fails an output check, or it runs past its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DRIVER = os.path.join(BUILD_DIR, "uniq_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the driver; returns the driver path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no library sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "uniq_perfbench", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return DRIVER


def main(argv):
    try:
        driver = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        return subprocess.run([driver] + argv + ["--out-dir", OUT_DIR],
                              cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
