#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

Run it from anywhere; it runs perfbench/run.py from the repository
root (building the benchmark on first use). Every workload in
BENCHMARK.json runs twice untraced and twice traced in a tiny
configuration (--scale 0.02, --seconds 1). The test asserts that:

- every run passes its correctness gates and exits 0;
- each mode prints exactly the metrics BENCHMARK.json names, with
  their units;
- exact counts repeat bit for bit between the two runs of a seed;
- a deliberately wrong expected query answer counts as a failure and
  makes the run exit non-zero, so the answer check bites.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
TINY = ["--seconds", "1", "--scale", "0.02"]

# Metrics that are exact counts (or ratios of exact counts): equal
# inputs must give equal values, whatever the timing.
EXACT = {
    "end_to_end": ["compression_factor"],
    "per_layer": [
        "codec.chunks",
        "codec.archive_bytes",
        "flow.templates",
        "query.flow.chunks_decoded_frac",
        "query.window.chunks_decoded_frac",
        "query.agg.chunks_decoded_frac",
    ],
}


def run_bench(workload, trace, *extra):
    """Run one tiny configuration; returns (exit code, result, stderr)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--trace", str(trace), *TINY, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_mode(self, workload, trace):
        key = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in self.spec[key]}
        results = []
        for _ in range(2):
            code, result, err = run_bench(workload, trace)
            self.assertEqual(code, 0, err)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, want)
            results.append(result["metrics"])
        for name in EXACT[key]:
            self.assertEqual(results[0][name]["value"],
                             results[1][name]["value"], name)

    def test_every_workload_untraced(self):
        for workload in self.spec["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check_mode(workload["name"], 0)

    def test_every_workload_traced(self):
        for workload in self.spec["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check_mode(workload["name"], 1)

    def test_wrong_expected_answer_is_a_failure(self):
        code, result, _ = run_bench("query", 0, "--corrupt-expected")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
