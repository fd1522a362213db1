#!/usr/bin/env python3
"""Builds and runs the pbsbench benchmark from the checkout root.

    python3 pbsbench/run.py --workload mono_1m --seed 1 --seconds 20 --trace 0

Configures and builds pbsbench (and the libpbs it links) into
.bench_build/pbsbench with CMake, runs one workload, checks that the
final JSON line names exactly the metrics BENCHMARK.json lists for the
mode, and passes the binary's output and exit code through. Any build
or run failure exits non-zero without printing a result line.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "pbsbench")
BUILD = os.path.join(ROOT, ".bench_build", "pbsbench")
BINARY = os.path.join(BUILD, "pbsbench")
RUN_TIMEOUT_S = 175


def build():
    subprocess.run(["cmake", "-S", SOURCE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "pbsbench",
                    "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"pbsbench: build failed: {e}", file=sys.stderr)
        return 1

    try:
        proc = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("pbsbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(f"pbsbench: exit code {proc.returncode}; last line: "
              f"{lines[-1]}", file=sys.stderr)
        return proc.returncode

    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("pbsbench: metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(expected) - set(got))}, "
              f"extra {sorted(set(got) - set(expected))}, or units",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
