#!/usr/bin/env python3
"""Service benchmark entry point.

Builds the benchmark binary from the repository's sources (CMake, Release)
under .bench_build/ at the repository root, runs one workload and relays its
output. The last line of standard output is the JSON result.

    python3 servicebench/run.py --workload standing_shared --seed 1 \
        --seconds 10 --trace 0 [--quick]

With --trace 1 the span trace is written as Chrome trace JSON to
.bench_build/traces/<workload>-seed<seed>.json (opens in Perfetto).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servicebench")
BINARY = os.path.join(BUILD, "service_bench")
WORKLOADS = ("standing_shared", "standing_cube", "oneshot_churn")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("servicebench: the repository's sources are not here")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "service_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small sizes of every workload, for smoke runs")
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"servicebench: build failed: {e}")

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("servicebench: run timed out")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        sys.exit(f"servicebench: service_bench exited {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("servicebench: malformed result line")
    print(lines[-1])


if __name__ == "__main__":
    main()
