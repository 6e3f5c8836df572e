"""Tests of the benchmark command on its sized-down (--quick) workloads.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench/tests

They check that every metric of BENCHMARK.json is printed with its unit,
that each correctness check fires when a fault is injected, and that the
command refuses to run without the repository's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    CONTRACT = json.load(f)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
# The seed whose quick-mode event digests workloads.json pins.
QUICK_SEED = "1"


def bench(workload, trace, *extra, cwd=ROOT, env=None):
    """Runs the benchmark command; returns (exit code, stdout lines)."""
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", QUICK_SEED, "--seconds", "1",
               "--trace", str(trace), "--quick", *extra]
    run = subprocess.run(command, cwd=cwd, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=600)
    return run.returncode, run.stdout.strip().splitlines()


def result(workload, trace, *extra):
    code, lines = bench(workload, trace, *extra)
    assert code == 0, f"exit code {code}: {lines}"
    return json.loads(lines[-1])


class MetricsPrinted(unittest.TestCase):
    def check(self, trace, wanted):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = result(workload, trace)
                self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                self.assertIs(out["correct"], True)
                self.assertGreaterEqual(out["attempted"], 1)
                self.assertEqual(out["failed"], 0)
                self.assertEqual(
                    {name: m["unit"] for name, m in out["metrics"].items()},
                    {m["name"]: m["unit"] for m in wanted})
                for name, m in out["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end_metrics_with_units(self):
        self.check(0, CONTRACT["end_to_end"])

    def test_per_layer_metrics_with_units(self):
        self.check(1, CONTRACT["per_layer"])

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in WORKLOADS:
            for name, m in result(workload, 0)["metrics"].items():
                self.assertGreater(m["value"], 0, f"{workload} {name}")


class ChecksFire(unittest.TestCase):
    def test_conservation(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertIs(result(workload, 0, "--sabotage", "conservation")["correct"], False)

    def test_pinned_event_digest(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertIs(result(workload, 0, "--sabotage", "digest")["correct"], False)

    def test_traced_replica_must_reproduce(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertIs(result(workload, 1, "--sabotage", "replica")["correct"], False)


class Refuses(unittest.TestCase):
    def test_without_the_repository_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            code, lines = bench(WORKLOADS[0], 0, cwd=tmp, env=env)
            self.assertNotEqual(code, 0)
            self.assertFalse(any(line.startswith("{") for line in lines), lines)


if __name__ == "__main__":
    unittest.main()
