"""Smoke tests of the benchmark itself, at tiny input sizes.

    python3 perfbench/check_smoke.py

Runs every workload briefly, untraced and traced, and checks that the
emitted metric names match BENCHMARK.json, that a planted wrong expected
value makes the run fail, that traced counts repeat exactly, that an
operation over budget is cut short, and that the benchmark refuses to run
without kocom sources.  The file name keeps it out of the repository's
pytest collection; it takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def bench(workload, *extra, seed=1, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Workloads(unittest.TestCase):
    def test_workload_names_match(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.NAMES))

    def test_untraced_metrics(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                out = result(bench(name))
                self.assertTrue(out["correct"], out)
                self.assertEqual(out["failed"], 0)
                self.assertGreater(out["attempted"], 0)
                self.assertEqual(set(out["metrics"]), END_TO_END)
                self.assertTrue(all(m["value"] > 0 for m in out["metrics"].values()), out)

    def test_traced_metrics_and_repeatable_counts(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                first, second = result(bench(name, trace=1)), result(bench(name, trace=1))
                self.assertTrue(first["correct"], first)
                self.assertEqual(set(first["metrics"]), PER_LAYER)
                counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] != "s"}
                again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] != "s"}
                self.assertEqual(counts, again)

    def test_planted_wrong_expectation_fails(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                out = result(bench(name, "--plant"))
                self.assertFalse(out["correct"])
                self.assertGreater(out["failed"], 0)


class Harness(unittest.TestCase):
    def test_operation_over_budget_is_interrupted(self):
        import signal

        signal.signal(signal.SIGALRM, worker._alarm)
        start = time.perf_counter()
        with self.assertRaises(worker.OverBudget):
            worker.call_with_budget(lambda: time.sleep(5), 0.05)
        self.assertLess(time.perf_counter() - start, 1.0)

    def test_refuses_without_sources(self):
        bare = ROOT / ".perfbench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("verify-all", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
