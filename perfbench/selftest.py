#!/usr/bin/env python3
"""Self-test of the repository benchmark, at tiny scale.

Run from the repository root:
    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that run.py --tiny prints
every end-to-end metric (--trace 0) and every per-layer metric (--trace 1),
each with its declared unit, in the table and in the final JSON line; that
a corrupted reference answer makes the run exit nonzero and report
"correct": false; and that run.py exits nonzero without a result where only
BENCHMARK.json and perfbench/ exist (no engine sources to build).
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) else None


class SelfTest(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    p = run("--workload", workload, "--seed", "7",
                            "--seconds", "1", "--trace", str(trace), "--tiny")
                    self.assertEqual(p.returncode, 0, p.stderr[-3000:])
                    result = result_line(p.stdout)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    declared = {m["name"]: m["unit"] for m in SPEC[key]}
                    printed = {name: m["unit"]
                               for name, m in result["metrics"].items()}
                    self.assertEqual(printed, declared)
                    table = p.stdout.splitlines()
                    for name, unit in declared.items():
                        row = [line for line in table
                               if line.split()[:1] == [name]]
                        self.assertEqual(len(row), 1, name)
                        self.assertEqual(row[0].split()[2], unit, name)
                        if name.startswith("query_p"):
                            self.assertIn("(n=", row[0])

    def test_corrupted_reference_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                p = run("--workload", workload, "--seed", "7", "--seconds",
                        "1", "--tiny", "--corrupt-reference")
                self.assertNotEqual(p.returncode, 0)
                result = result_line(p.stdout)
                self.assertIsNotNone(result)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_fails_without_engine_sources(self):
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            bare = Path(bare)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                    "1", cwd=bare)
            self.assertNotEqual(p.returncode, 0)
            self.assertIsNone(result_line(p.stdout))


if __name__ == "__main__":
    unittest.main()
