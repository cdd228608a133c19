"""Toy-size smoke test of the benchmark's output contract.

Runs every workload for one short cycle in each mode and checks the last
stdout line against BENCHMARK.json: the four result keys, every metric of
the mode by name with its unit, and a numeric value.  It also checks that
the benchmark refuses to run, without printing a result, when the lchkit
sources are absent.  Run from the repository root:

    python3 -m unittest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    command = [sys.executable if c == "python3" else c for c in SPEC["command"]]
    return subprocess.run(command + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=600)


class SmokeTest(unittest.TestCase):
    def check_result(self, proc, expected_metrics):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected_metrics})
        for metric in expected_metrics:
            reported = result["metrics"][metric["name"]]
            self.assertEqual(reported["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(reported["value"], (int, float))

    def test_every_workload_both_modes(self):
        for workload in SPEC["workloads"]:
            for trace, metrics in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = run_bench(ROOT, "--workload", workload["name"], "--seed", "7",
                                     "--seconds", "0", "--trace", trace)
                    self.check_result(proc, metrics)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, tmp / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(tmp, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                             "--seconds", "1", "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            for line in proc.stdout.splitlines():
                self.assertFalse(line.startswith("{"), line)


if __name__ == "__main__":
    unittest.main()
