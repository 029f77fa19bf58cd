#!/usr/bin/env python3
"""The benchmark's own test.

    python3 gradebench/test_gradebench.py

Runs a short version of every workload in BENCHMARK.json in both modes
and checks that every metric it names is emitted with its unit and a
finite value; that a deliberately corrupted reference fails the
correctness check; and that without the kit's sources the command fails
without printing a result.
"""

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "gradebench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=900, check=False)


def short(workload, trace, *extra):
    return run("--workload", workload, "--seed", "3", "--seconds", "0.5",
               "--trace", str(trace), *extra)


class GradebenchTest(unittest.TestCase):
    def test_every_workload_emits_every_metric(self):
        for workload in SPEC["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    done = short(workload["name"], trace)
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    units = {m["name"]: m["unit"] for m in SPEC[kind]}
                    self.assertEqual(set(result["metrics"]), set(units))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], units[name], name)
                        self.assertIsInstance(metric["value"], (int, float), name)
                        self.assertTrue(math.isfinite(metric["value"]), name)

    def test_corrupted_reference_fails_the_check(self):
        done = short("steady", 0, "--corrupt-reference")
        self.assertEqual(done.returncode, 1)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_without_sources_fails_without_a_result(self):
        scratch = ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            tmp = pathlib.Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, tmp / "gradebench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            done = run("--workload", "steady", "--seed", "1", "--seconds", "1", "--trace", "0",
                       cwd=tmp, env=env)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
