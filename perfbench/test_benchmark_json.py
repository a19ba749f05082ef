"""BENCHMARK.json names exactly the metrics run.py reports.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import run


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        path = Path(run.ROOT) / "BENCHMARK.json"
        self.benchmark = json.loads(path.read_text())

    def test_metrics_match(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.benchmark["end_to_end"]],
            list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.benchmark["per_layer"]],
            list(run.PER_LAYER))

    def test_end_to_end_is_lower_is_better(self):
        # --compare counts a pair as won when the new value is lower.
        for m in self.benchmark["end_to_end"]:
            self.assertEqual(m["better"], "lower", m["name"])

    def test_workloads_exist(self):
        names = [w["name"] for w in self.benchmark["workloads"]]
        self.assertEqual(names, list(run.WORKLOADS))

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.benchmark["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


if __name__ == "__main__":
    unittest.main()
