"""Smoke test of the benchmark: every workload at toy size, in both modes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

It is not part of the library's test suite (pytest's testpaths is tests/).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from expanderlab import bound, cli  # noqa: E402
from expanderlab.field import FieldElem  # noqa: E402

# Lines the readable report prints beside the JSON metrics.
REPORT_LINES = ("wall_s", "cpu_s", "failed_frac")
THROUGHPUT_LINES = {"search-exhaustive": ("pairs_per_s",),
                    "subfield-sweep": ("records_per_s",)}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class SmokeTest(unittest.TestCase):

    def test_every_workload_emits_every_metric_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace, listed in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    done = run_bench("--workload", w["name"], "--seed", "3",
                                     "--seconds", "1", "--trace", trace,
                                     "--size", "small")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    *report, last = done.stdout.splitlines()
                    result = json.loads(last)
                    self.assertEqual(sorted(result),
                                     ["attempted", "correct", "failed", "metrics"])
                    self.assertIs(result["correct"], True, done.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(list(metrics), [m["name"] for m in listed])
                    for m in listed:
                        self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                        self.assertIsInstance(metrics[m["name"]]["value"], (int, float))
                    if trace == "0":
                        for name in REPORT_LINES + THROUGHPUT_LINES.get(w["name"], ()):
                            self.assertTrue(any(line.startswith(name) for line in report),
                                            f"{name} missing from the report")

    def test_refuses_a_directory_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            done = run_bench("--workload", "bound-scan", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)

    def test_layer_self_times_account_for_traced_wall_time(self):
        w = workloads.workload("subfield-sweep", "small")
        argv = w.argv(0)
        start = time.perf_counter()
        with tracing.Tracer() as tracer:
            code, out, err = tracing.run_cli(argv)
        wall = time.perf_counter() - start
        self.assertEqual(code, 0)
        self.assertIsNone(w.check(argv, out, err))
        summary = tracer.summary(wall)
        layers = sum(summary[f"{layer}.self_s"] for layer in tracing.LAYERS)
        self.assertAlmostEqual(layers + summary["trace.residual_s"], wall, delta=1e-6)
        self.assertEqual(summary["bound.image_calls"], summary["explore.records"])
        self.assertGreater(summary["poly.eval_calls"], 0)

    def test_tracer_restores_the_library(self):
        add, image = vars(FieldElem)["__add__"], bound.image
        with tracing.Tracer():
            self.assertIsNot(cli.image, image)
            self.assertIs(cli.image, bound.image)
        self.assertIs(vars(FieldElem)["__add__"], add)
        self.assertIs(cli.image, image)
        self.assertIs(bound.image, image)

    def test_certify_inputs_follow_the_seed(self):
        self.assertEqual(workloads.certify_inputs(5, 64, 12),
                         workloads.certify_inputs(5, 64, 12))
        self.assertNotEqual(workloads.certify_inputs(5, 64, 12),
                            workloads.certify_inputs(6, 64, 12))
        A, B, _ = workloads.certify_inputs(5, 64, 12)
        self.assertEqual((len(set(A)), len(set(B))), (64, 12))
        self.assertNotIn(0, A)


if __name__ == "__main__":
    unittest.main()
