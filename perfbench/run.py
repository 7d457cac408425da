#!/usr/bin/env python3
"""Build and run the PIT end-to-end benchmark.

Usage (from the repository root):
  python3 perfbench/run.py --workload submit_tcp|stream_tcp|pit_search \
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which builds the `pit`
library from ../src) into .bench_build/, or into $CARGO_TARGET_DIR when
that is set; later calls only rebuild what changed. The benchmark binary
then runs with OpenMP pinned to one thread. Its standard output is passed
through; the last line is the JSON result. Traced runs write their spans
to <build dir>/traces/. Exits non-zero, printing no result, when the
sources are missing, the build fails or the run fails.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TARGET = "pit_perfbench"


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures (once) and builds the benchmark; returns the binary."""
    for need in ("CMakeLists.txt", os.path.join("src", "net", "front_end.hpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found next to perfbench/: nothing to build", 2)
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(bdir, ".lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", jobs,
                      "--target", TARGET])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}", 3)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed ({' '.join(cmd)}); see {log_path}", 3)
    binary = os.path.join(bdir, TARGET)
    if not os.path.exists(binary):
        fail(f"{binary} missing after the build", 3)
    return binary


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload",
                    choices=["submit_tcp", "stream_tcp", "pit_search"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    bdir = build_dir()
    binary = build(bdir)
    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(bdir, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, f"{args.workload}-seed{args.seed}.jsonl")]
    env = dict(os.environ, OMP_NUM_THREADS="1", OMP_DYNAMIC="false")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1] if lines else []) + "\n")
        fail(f"benchmark exited with {proc.returncode}", 5)
    if args.selftest:
        sys.stdout.write(proc.stdout)
        return
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("the benchmark printed no result line", 6)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
