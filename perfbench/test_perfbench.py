"""The benchmark's own tests, on reduced sizes (``--smoke``).

Run from the root of the checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-full", "expand-deep", "cli-stream")


def bench(workload: str, trace: int, *extra: str, seed: int = 7, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def copy_benchmark(tmp: Path) -> None:
    """Copy BENCHMARK.json and this directory into the checkout root ``tmp``."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp)
    shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        cls.workloads = [w["name"] for w in spec["workloads"]]
        cls.plain = {w: result(bench(w, 0)) for w in WORKLOADS}
        cls.traced = {w: [result(bench(w, 1)) for _ in range(2)] for w in WORKLOADS}

    def test_workloads_match_the_spec(self):
        self.assertEqual(sorted(self.workloads), sorted(WORKLOADS))

    def test_every_end_to_end_metric_is_emitted_with_its_unit(self):
        for workload, res in self.plain.items():
            with self.subTest(workload=workload):
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                got = {name: m["unit"] for name, m in res["metrics"].items()}
                self.assertEqual(got, self.end_to_end)
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_every_per_layer_metric_is_emitted_with_its_unit(self):
        for workload, runs in self.traced.items():
            with self.subTest(workload=workload):
                res = runs[0]
                self.assertTrue(res["correct"])
                got = {name: m["unit"] for name, m in res["metrics"].items()}
                self.assertEqual(got, self.per_layer)

    def test_every_per_layer_metric_reads_work_on_some_workload(self):
        # run.py derives each value from the metric's name; a name that
        # matches no span or count would read 0 everywhere.
        for name in self.per_layer:
            with self.subTest(metric=name):
                self.assertTrue(any(runs[0]["metrics"][name]["value"]
                                    for runs in self.traced.values()))

    def test_traced_counts_repeat_exactly(self):
        for workload, (first, second) in self.traced.items():
            with self.subTest(workload=workload):
                counts = [name for name, m in first["metrics"].items() if m["unit"] == "count"]
                self.assertTrue(counts)
                for name in counts:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)
                self.assertTrue(any(first["metrics"][n]["value"] for n in counts))


class CorruptedExpectations(unittest.TestCase):
    """A wrong recorded digest must show up as failed operations."""

    def run_with(self, workload: str, corrupt) -> dict:
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            copy_benchmark(tmp)
            shutil.copytree(ROOT / "src", tmp / "src",
                            ignore=shutil.ignore_patterns("__pycache__"))
            path = tmp / "perfbench" / "expected.json"
            expected = json.loads(path.read_text())
            corrupt(expected)
            path.write_text(json.dumps(expected))
            return result(bench(workload, 0, cwd=tmp))

    def assert_failed(self, res: dict):
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertLess(res["metrics"]["success_ratio"]["value"], 1.0)

    def test_verify_report(self):
        def corrupt(expected):
            report = expected["verify_report"]["quick"]
            expected["verify_report"]["quick"] = report.replace("PASS", "FAIL", 1)
        self.assert_failed(self.run_with("verify-full", corrupt))

    def test_expand_digest(self):
        def corrupt(expected):
            expected["expand"]["stirling-second|x|12"][0] = "0" * 64
        self.assert_failed(self.run_with("expand-deep", corrupt))

    def test_stream_digest(self):
        def corrupt(expected):
            key = "triangle --family S2 --n 20 --format text"
            expected["stream"][key]["sha256"] = "0" * 64
        self.assert_failed(self.run_with("cli-stream", corrupt))


class WithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            copy_benchmark(tmp)
            proc = bench("expand-deep", 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
