#!/usr/bin/env python3
"""Tests of the benchmark itself, on its tiny-size mode (--tiny).

    python3 perfbench/test_perfbench.py

Builds the driver like run.py does, then checks that every metric named in
BENCHMARK.json is printed with its unit on every workload, that the traced
run's Chrome trace holds the driver's span around each public call it makes,
that a seed reproduces the generated inputs and the deterministic quality
metrics exactly, and that run.py fails cleanly without the library sources.
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
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# The spans the driver opens around each public call it makes, by workload.
BENCH_SPANS = {
    "serve-jobs": ["serve.submit", "serve.wait"],
    "query": ["serve.cache.get_or_fallback", "serve.aoa.run",
              "core.aoa.estimate_known", "core.aoa.estimate_unknown",
              "core.table_io.load"],
}
# Deterministic for a fixed seed: the pipeline and AoA estimators give the
# same answer for any thread count or interleaving.
QUALITY = ["hrir_corr", "aoa_vs_truth"]


def drive(*args):
    """Run the built driver in tiny mode; returns (exit code, last JSON)."""
    out = subprocess.run(
        [run.DRIVER, "--tiny", "--out-dir", run.OUT_DIR] + list(args),
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    return out.returncode, json.loads(lines[-1]) if lines else None


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.results = {}
        for w in WORKLOADS:
            for trace in ("0", "1"):
                cls.results[(w, trace)] = drive(
                    "--workload", w, "--seed", "5", "--seconds", "30",
                    "--trace", trace)

    def check_metrics(self, trace, spec_key):
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        for w in WORKLOADS:
            code, result = self.results[(w, trace)]
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(code, 0)
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, expected)
                for name, v in result["metrics"].items():
                    self.assertIsInstance(v["value"], (int, float), name)

    def test_end_to_end_metrics_printed_with_units(self):
        self.check_metrics("0", "end_to_end")
        for w in WORKLOADS:
            metrics = self.results[(w, "0")][1]["metrics"]
            for m in SPEC["end_to_end"]:
                with self.subTest(workload=w, metric=m["name"]):
                    self.assertGreater(metrics[m["name"]]["value"], 0)

    def test_per_layer_metrics_printed_with_units(self):
        self.check_metrics("1", "per_layer")

    def test_trace_holds_benchmark_spans(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                path = os.path.join(run.OUT_DIR, "trace-%s.json" % w)
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                names = {e.get("name") for e in events}
                for span in BENCH_SPANS[w]:
                    self.assertIn(span, names)

    def test_seed_reproduces_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                digest = [drive("--workload", w, "--seed", s, "--seconds",
                                "30", "--trace", "0", "--inputs-digest")
                          for s in ("5", "5", "6")]
                self.assertEqual(digest[0], digest[1])
                self.assertNotEqual(digest[0][1], digest[2][1])

    def test_seed_reproduces_quality_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, again = drive("--workload", w, "--seed", "5",
                                    "--seconds", "30", "--trace", "0")
                self.assertEqual(code, 0)
                first = self.results[(w, "0")][1]["metrics"]
                for q in QUALITY:
                    self.assertEqual(first[q]["value"],
                                     again["metrics"][q]["value"], q)

    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(run.ROOT, path),
                                os.path.join(tmp, path))
            out = subprocess.run(
                SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
