#!/usr/bin/env python3
"""Tiny-size smoke test of the benchmark.

Runs every workload at smoke-test sizes (`--tiny`), untraced and traced,
and checks that each run prints every metric `BENCHMARK.json` names for
that mode, with its unit, and that nothing disagreed with the oracle
(`failed_frac == 0`). Run from anywhere:

    python3 perfbench/tests/test_smoke.py
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "0.2",
        "--trace", str(trace), "--tiny",
    ]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    assert out.returncode == 0, f"{workload} trace={trace}: exit {out.returncode}"
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class Smoke(unittest.TestCase):
    def check(self, trace):
        wanted = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                stamps, result = run(w["name"], trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(stamps["failed_frac"], 0.0)
                self.assertEqual(stamps["seed"], 7)
                self.assertIn("host_cores", stamps)
                self.assertIn("workers", stamps)
                for m in wanted:
                    got = result["metrics"].get(m["name"])
                    self.assertIsNotNone(got, f"{m['name']} missing")
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_end_to_end_metrics(self):
        self.check(0)

    def test_per_layer_metrics(self):
        self.check(1)


if __name__ == "__main__":
    sys.exit(unittest.main())
