#!/usr/bin/env python3
"""Self-test of the host-time benchmark.

Runs every workload at tiny sizes through hostbench/run.py and checks
that each run prints every metric BENCHMARK.json names, with its unit,
that the correctness gates pass on two seeds, and that a deliberately
perturbed digest makes the gate fail. Run from anywhere:

    python3 hostbench/tests/test_hostbench.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace, *extra):
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


class TinyRuns(unittest.TestCase):
    def check_run(self, workload, seed, trace, declared):
        proc, result = run(workload, seed, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"],
                             m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))
        # Every metric is also printed by name with its unit.
        for m in declared:
            self.assertIn(f"metric {m['name']} ", proc.stdout)

    def test_untraced_runs_emit_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            for seed in (5, 6):
                with self.subTest(workload=workload, seed=seed):
                    self.check_run(workload, seed, 0, SPEC["end_to_end"])

    def test_traced_runs_emit_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 7, 1, SPEC["per_layer"])

    def test_perturbed_digest_fails_the_gate(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run(workload, 5, 0, "--perturb-digest")
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertIn("GATE FAILED", proc.stderr)


if __name__ == "__main__":
    unittest.main()
