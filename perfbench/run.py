#!/usr/bin/env python3
"""Builds and runs the Sentinel end-to-end benchmark.

Usage, from the repository root:
    python3 perfbench/run.py --workload <oo7_rules|oo7_store|bus_remote> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the library and the benchmark under
.bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench); later runs only
rebuild what changed. Every run first executes the benchmark's self-test.
The last line of standard output is the benchmark's JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout=None):
    """Runs `cmd` with its output on stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return 1


def build():
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]) != 0:
            log("configure failed")
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"]) != 0:
        log("build failed")
        return False
    return True


def revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def main(argv):
    if not build():
        return 1
    if run_quiet([os.path.join(BUILD, "perfbench_selftest")], timeout=60) != 0:
        log("self-test failed")
        return 1
    cmd = [os.path.join(BUILD, "perfbench")] + argv + [
        "--work-dir", BUILD_ROOT, "--revision", revision()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 1
    if proc.returncode != 0:
        log("benchmark exited with %d" % proc.returncode)
        return 1
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
