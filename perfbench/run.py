#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench (perfbench/CMakeLists.txt,
linked against the engine library built from src/) into $CARGO_TARGET_DIR
(default .bench_build), then runs one workload and relays its report. The
last line of standard output is the JSON result; its metric names are checked
against BENCHMARK.json. Build output goes to standard error.

Workloads: tpch_exec, tpcds_adapt, tpch_serve (see perfbench/src/workloads.h).
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run must end within 180 s; the build before the first run has its own,
# longer allowance.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the perfbench target; returns its path."""
    bench_dir = os.path.join(build_dir, "perfbench")
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(bench_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                        bench_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bench_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(bench_dir, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               os.path.join(ROOT, ".bench_build")))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", build_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: exited with {proc.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        print("perfbench: last line is not a JSON result", file=sys.stderr)
        return 1
    want = declared_metrics(args.trace)
    if sorted(result.get("metrics", {})) != sorted(want):
        sys.stderr.write(proc.stdout)
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
