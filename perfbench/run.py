#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark binary (perfbench/CMakeLists.txt, which compiles the project's
libraries from src/) into the build directory named by CARGO_TARGET_DIR,
or .bench_build when unset; later calls only rebuild what changed. Build
output goes to stderr. The benchmark's own output, whose last line is the
JSON result, goes to stdout unchanged, and its exit code is passed on.
Traced runs also write their spans to <build dir>/spans/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A benchmark run must end well inside three minutes.
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "scbench", "-j4"],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "scbench")


def main():
    args = sys.argv[1:]
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    opts = dict(zip(args[::2], args[1::2]))
    if opts.get("--trace", "0") != "0":
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        name = "%s-seed%s.json" % (opts.get("--workload"), opts.get("--seed"))
        args = args + ["--spans-out", os.path.join(spans, name)]
    try:
        return subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
