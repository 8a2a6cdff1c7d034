#!/usr/bin/env python3
"""The end-to-end benchmark's own tests.

    python3 e2e_bench/test_bench.py

Builds the benchmark like run.py does, then:
  - runs the binary's self test: every workload at a tiny size must pass
    its correctness check, and every check must reject each corrupted
    copy of that workload's evidence;
  - runs every workload at a tiny size, untraced and traced, and checks
    the result line against BENCHMARK.json (names, units, counts);
  - runs run.py from a directory holding only BENCHMARK.json and the
    benchmark's files, where it must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def result_of(self, args):
        proc = subprocess.run([self.binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_selftest_rejects_every_corruption(self):
        proc = subprocess.run([self.binary, "--selftest"],
                              stdout=subprocess.PIPE, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("SELFTEST PASSED", proc.stdout)
        self.assertNotIn("[FAIL]", proc.stdout)

    def test_tiny_workloads_report_every_metric(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    res = self.result_of(
                        ["--workload", workload, "--seed", "3", "--seconds",
                         "0", "--trace", str(trace), "--tiny"])
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for name, m in res["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT,
                                         prefix=".bench_empty_") as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "e2e_bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "e2e_bench/run.py", "--workload",
                 "serve_mix", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, stdout=subprocess.PIPE, text=True,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
