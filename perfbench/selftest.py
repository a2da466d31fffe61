#!/usr/bin/env python3
"""Self-test of cbsim's host-performance benchmark.

Usage, from the repository root:

    python3 perfbench/selftest.py

Runs every workload at its smallest size, untraced and traced, and
checks the result line against BENCHMARK.json: every metric present
with its unit, no failed cell. It also checks that a custom sweep cell
that throws is counted as failed, that regen_quick's cells (keys and
configurations, in order) equal the profile and micro cells of the
artifacts `bench_all --quick` writes, and that the benchmark fails
without printing a result when the simulator sources are absent.
Takes about a minute after the benchmark is built.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".bench_build", "selftest")


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(*args, cwd=ROOT, script=None):
    """Run run.py; return (exit code, stdout lines)."""
    cmd = [sys.executable, script or os.path.join(HERE, "run.py")]
    cmd += list(args)
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        run.build("perfbench_bench_all")
        cls.spec = bench_spec()

    def result_of(self, lines):
        self.assertTrue(lines, "no output")
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def test_every_metric_emitted_with_its_unit(self):
        for w in self.spec["workloads"]:
            for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    code, lines = run_bench(
                        "--workload", w["name"], "--seed", "3",
                        "--seconds", "0.2", "--trace", trace,
                        "--size", "smoke")
                    self.assertEqual(code, 0, lines[-3:])
                    result = self.result_of(lines)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in self.spec[group]}
                    got = {k: v["unit"]
                           for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertTrue(
                            isinstance(m["value"], (int, float)) and
                            math.isfinite(m["value"]), name)
                    if group == "end_to_end":
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_throwing_custom_cell_counts_as_failed(self):
        code, lines = run_bench("--workload", "regen_quick", "--seed", "1",
                                "--seconds", "0.1", "--size", "smoke",
                                "--inject-failure")
        self.assertNotEqual(code, 0)
        result = self.result_of(lines)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        # One injected cell per pass, the rest of the cells are fine.
        passes = sum(1 for l in lines if l.startswith("pass "))
        self.assertEqual(result["failed"], passes)

    def test_regen_cells_equal_bench_all_quick(self):
        out_dir = os.path.join(WORK_DIR, "bench_all_quick")
        shutil.rmtree(out_dir, ignore_errors=True)
        bench_all = os.path.join(run.BUILD_DIR, "perfbench_bench_all")
        subprocess.run([bench_all, "--quick", "--jobs", "4", "--out-dir",
                        out_dir], check=True, stdout=subprocess.DEVNULL,
                       env=run.hermetic_env(), timeout=600)
        order = subprocess.run([bench_all, "--list"], check=True,
                               capture_output=True, text=True).stdout
        expected = []
        for line in order.splitlines():
            module = line.split()[0]
            with open(os.path.join(out_dir, module + ".json")) as f:
                doc = json.load(f)
            expected += [{"key": r["key"], "config": r["config"]}
                         for r in doc["runs"]
                         if r["config"]["kind"] != "custom"]
        listed = subprocess.run([run.DRIVER, "--list-cells"], check=True,
                                capture_output=True, text=True).stdout
        self.assertEqual(json.loads(listed), expected)

    def test_fails_without_simulator_sources(self):
        bare = os.path.join(WORK_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, lines = run_bench("--workload", "apps64", "--seed", "1",
                                "--seconds", "1", "--trace", "0", cwd=bare,
                                script=os.path.join(bare, "perfbench",
                                                    "run.py"))
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
