#!/usr/bin/env python3
"""Run one workload of the BRICS benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library, the daemon and the
benchmark program from source into $CARGO_TARGET_DIR (default .bench_build)
with CMake, then runs the program, whose last stdout line is the result JSON.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("farness-social", "farness-road", "betweenness-social", "serve-rw")


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=840)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=("0", "1"), required=True)
    a = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "measures", "betweenness.hpp")):
        print("run.py: library sources not found under src/", file=sys.stderr)
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # The daemon's socket lives under the build directory; a relative path
    # keeps it within the 108-byte AF_UNIX limit.
    build_dir = min(build_dir, os.path.relpath(build_dir), key=len)
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 3

    cmd = [os.path.join(build_dir, "brics_perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace,
           "--build-dir", build_dir]
    # Own process group, so a timeout also stops the daemon it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: run timed out", file=sys.stderr)
        return 4
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
