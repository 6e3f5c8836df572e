#!/usr/bin/env python3
"""Builds and runs the grid-simulator benchmark for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload cma_paper --seed 42 --seconds 30 --trace 0

The Rust package in this directory is built from source (release
profile, into $CARGO_TARGET_DIR or .bench_build), then run once. Its
last output line is checked and reshaped into the benchmark's result:
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. `--trace 0` reports the end-to-end metrics of
BENCHMARK.json and `--trace 1` the per-layer ones.

A run is correct when every simulated grid conserves jobs (completed
plus dropped equals submitted), every round and the traced replica agree
bit for bit on each grid's event digest, fault digest and makespan, and
the run's event digest matches the value pinned in workloads.json for
that seed, when one is pinned.

`--quick` runs sized-down workloads for the benchmark's own tests.
`--sabotage conservation|replica|digest` injects a fault that one of
the correctness checks must catch.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--sabotage", choices=("conservation", "replica", "digest"))
    return parser.parse_args()


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    result = subprocess.run(command, env=env, stdout=sys.stderr, timeout=DEADLINE_S * 5)
    if result.returncode != 0:
        fail(f"build failed with exit code {result.returncode}")
    return os.path.abspath(target), os.path.join(os.path.abspath(target), "release", "perfbench")


def main():
    args = parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    target, binary = build()
    started = time.monotonic()
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.quick:
        command.append("--quick")
    if args.sabotage in ("conservation", "replica"):
        command += ["--sabotage", args.sabotage]
    if args.trace:
        spans = os.path.join(target, "perfbench-spans", f"{args.workload}-seed{args.seed}.csv")
        command += ["--spans-out", spans]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {DEADLINE_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"benchmark exited with code {run.returncode}")
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    errors = list(raw["errors"])
    pins = workloads[args.workload]["quick_event_digest" if args.quick else "event_digest"]
    pinned = pins.get(str(args.seed))
    if args.sabotage == "digest" and pinned is not None:
        pinned = f"{int(pinned, 16) ^ 1:#018x}"
    if pinned is not None and raw["event_digest"] != pinned:
        errors.append(f"event digest {raw['event_digest']} != pinned {pinned} for seed {args.seed}")
    for error in errors:
        print(f"check failed: {error}")

    wanted = contract["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        got = raw["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"] or got["value"] is None:
            fail(f"metric {metric['name']} missing or mis-unitised: {got}")
        metrics[metric["name"]] = got
    print(
        f"{args.workload} seed={args.seed} rounds={raw['rounds']} grids={raw['grids']} "
        f"event_digest={raw['event_digest']} fault_digest={raw['fault_digest']} "
        f"run_s={time.monotonic() - started:.1f}"
    )
    print(json.dumps({
        "correct": not errors,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
