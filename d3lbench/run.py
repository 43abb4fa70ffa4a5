#!/usr/bin/env python3
"""Builds the D3L benchmark and runs one workload.

Run from the repository root:

    python3 d3lbench/run.py --workload exemplar_search --seed 1 --seconds 15 --trace 0

The benchmark binary is configured and built from d3lbench/CMakeLists.txt
(which compiles the library from src/) into .bench_build/ on first use.
The last line of standard output is the run's JSON result. Traced runs keep
their span trees in .bench_build/traces/. Extra flags (--scale tiny,
--perturb-reference) are passed through to the binary.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "d3lbench")
BUILD_LOG = os.path.join(BUILD_ROOT, "d3lbench-build.log")
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"d3lbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(BUILD_LOG, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "d3lbench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(BUILD_LOG) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % BUILD_LOG)
    return os.path.join(BUILD_DIR, "d3lbench")


def main():
    # A SIGTERM unwinds through subprocess.run, which kills and reaps the
    # build step or benchmark binary it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args, passthrough = parser.parse_known_args()

    binary = build()
    work_dir = os.path.join(BUILD_ROOT, "work",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir] + passthrough
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
        spans = os.path.join(work_dir, "spans.jsonl")
        if args.trace and os.path.exists(spans):
            traces = os.path.join(BUILD_ROOT, "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.move(spans, os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl"))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    print(lines[-1])


if __name__ == "__main__":
    main()
