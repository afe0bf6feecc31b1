"""Tests of the benchmark itself (stdlib unittest; pytest collects them too).

    python3 -m pytest bench/test_bench.py      or      python3 bench/test_bench.py

The smoke runs use --tiny inputs; each takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads  # noqa: E402


def smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    def check(self, trace: int, spec_key: str) -> None:
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                result = smoke(workload, trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                failed_ratio = result["failed"] / result["attempted"]
                self.assertEqual(failed_ratio, 0)
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, expected)

    def test_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check(1, "per_layer")


class WithoutSources(unittest.TestCase):
    def test_refuses_to_run_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "decide_sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class Scaling(unittest.TestCase):
    def test_items_scale_by_the_readings_around_them(self):
        res = run.Pass()
        res.times_s = [0.004] * 20
        res.marks = list(range(21))  # a reading before the first item and after each
        res.units_s = [run.REF_UNIT_S] * 10 + [2 * run.REF_UNIT_S] * 11
        scaled = res.scaled_times()
        self.assertAlmostEqual(scaled[0], 0.004)  # machine at the reference speed
        self.assertAlmostEqual(scaled[-1], 0.002)  # machine at half the reference speed


class Inputs(unittest.TestCase):
    def test_seed_determines_inputs(self):
        for name, wl in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(wl.generate(5, tiny=True), wl.generate(5, tiny=True))
                self.assertNotEqual(wl.generate(5, tiny=True), wl.generate(6, tiny=True))

    def test_full_size_inputs_depend_on_seed(self):
        for name, wl in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                first = wl.generate(11, tiny=False)
                self.assertEqual(first, wl.generate(11, tiny=False))
                self.assertNotEqual(first, wl.generate(12, tiny=False))


if __name__ == "__main__":
    unittest.main()
