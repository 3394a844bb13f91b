#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py

They run tiny-size benchmark runs (a second or two each) from the root of
the checkout and check the output contract: every metric BENCHMARK.json
names comes out with its unit; a clean run reports no failure; a
deliberately corrupted job output is caught and raises the error rate
above zero; equal seeds give equal inputs; and a directory holding only
the benchmark's own files makes it exit non-zero without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + list(args)
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def tiny(workload, *extra, trace=0, seed=7):
    return bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny", *extra)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def printed(proc, name):
    """The value a human-readable metric line shows."""
    for line in proc.stdout.splitlines():
        fields = line.split()
        if fields and fields[0] == name:
            return float(fields[1])
    raise AssertionError(f"no {name} line in:\n{proc.stdout}")


class Contract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def test_tiny_run_emits_every_metric_with_its_unit(self):
        for workload in self.workloads:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = tiny(workload, trace=trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    res = result(proc)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in self.spec[key]}
                    self.assertEqual(
                        {name: m["unit"] for name, m in res["metrics"].items()}, expected)
                    for name, m in res["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                        if key == "end_to_end":
                            self.assertGreater(m["value"], 0, name)

    def test_corrupted_output_raises_error_rate(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                proc = tiny(workload, "--corrupt")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                res = result(proc)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)
                self.assertGreater(printed(proc, "error_rate"), 0)

    def test_same_seed_same_inputs(self):
        outcome = {"paper-sweep": "latency_overhead", "open-stream": "sojourn_p99_tu",
                   "crash-recovery": "availability"}
        for workload, name in outcome.items():
            with self.subTest(workload=workload):
                a, b = tiny(workload, seed=11), tiny(workload, seed=11)
                self.assertEqual(printed(a, name), printed(b, name))
                self.assertGreater(printed(a, name), 0)

    def test_fails_without_the_repository(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            os.makedirs(bare)
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", self.workloads[0], "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse([l for l in proc.stdout.splitlines() if l.startswith("{")])
        finally:
            shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
