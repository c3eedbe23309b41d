"""Smoke test for the GLAF++ benchmark.

Runs `perfbench/run.py --smoke`, which builds the harness, runs every
workload for about a second untraced and traced, and checks that each run
reports every metric BENCHMARK.json declares for its trace mode, with its
unit.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


class BenchmarkSpecTest(unittest.TestCase):
    def test_workloads(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(names, ["paper", "large"])


class SmokeRunTest(unittest.TestCase):
    def test_smoke_reports_every_metric(self):
        r = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                            "--smoke"], cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=1500)
        self.assertEqual(r.returncode, 0, r.stdout[-4000:])


if __name__ == "__main__":
    unittest.main()
