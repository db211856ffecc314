#!/usr/bin/env python3
"""Tests for check_bench_regression.py's google-benchmark gate.

Runs the script on small synthetic reports and checks its exit code:
rows named */real_time (google-benchmark's suffix under UseRealTime()) are
gated on real_time, every other row on cpu_time; under repetitions the
median aggregate row is gated, not any single repetition; names found in
only one report are listed, not gated.

    python3 bench/test_check_bench_regression.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_bench_regression.py")


def row(name, real_time, cpu_time):
    return {"name": name, "run_type": "iteration", "iterations": 1,
            "real_time": real_time, "cpu_time": cpu_time,
            "time_unit": "ms"}


def repeated(name, cpu_times):
    """One row per repetition plus the aggregate rows google-benchmark
    writes under --benchmark_repetitions (median computed here)."""
    rows = [dict(row(name, t, t), run_name=name) for t in cpu_times]
    ordered = sorted(cpu_times)
    mid = ordered[len(ordered) // 2]
    for aggregate, value in (("median", mid), ("cv", 0.0)):
        rows.append({"name": f"{name}_{aggregate}", "run_name": name,
                     "run_type": "aggregate", "aggregate_name": aggregate,
                     "iterations": len(cpu_times), "real_time": value,
                     "cpu_time": value, "time_unit": "ms"})
    return rows


class GateTest(unittest.TestCase):
    def run_gate(self, baseline_rows, current_rows):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for label, rows in (("base", baseline_rows),
                                ("cur", current_rows)):
                path = os.path.join(tmp, label + ".json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"benchmarks": rows}, fh)
                paths.append(path)
            return subprocess.run([sys.executable, SCRIPT] + paths,
                                  capture_output=True, text=True)

    def test_real_time_row_fails_on_doubled_wall_time(self):
        # The threaded-bench case: main-thread cpu_time unchanged while the
        # wall time doubles must fail the gate.
        name = "BM_ServeBatchCalibration/4/real_time"
        result = self.run_gate([row(name, 500.0, 1.0)],
                               [row(name, 1000.0, 1.0)])
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn(name, result.stderr)

    def test_real_time_row_ignores_main_thread_cpu_time(self):
        name = "BM_StreamingSession/real_time"
        result = self.run_gate([row(name, 500.0, 1.0)],
                               [row(name, 500.0, 2.0)])
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_plain_row_still_gated_on_cpu_time(self):
        name = "BM_FractionalShift/192"
        doubled_cpu = self.run_gate([row(name, 6.0, 6.0)],
                                    [row(name, 6.0, 12.0)])
        self.assertEqual(doubled_cpu.returncode, 1,
                         doubled_cpu.stdout + doubled_cpu.stderr)
        doubled_wall = self.run_gate([row(name, 6.0, 6.0)],
                                     [row(name, 12.0, 6.0)])
        self.assertEqual(doubled_wall.returncode, 0,
                         doubled_wall.stdout + doubled_wall.stderr)

    def test_repetitions_gate_on_the_median(self):
        name = "BM_LocalizerLocate"
        baseline = repeated(name, [10.0, 10.2, 9.9, 10.1, 10.0])
        # One repetition 3x slower (a host hiccup), the median steady.
        one_slow = self.run_gate(
            baseline, repeated(name, [10.1, 9.8, 10.0, 10.2, 30.0]))
        self.assertEqual(one_slow.returncode, 0,
                         one_slow.stdout + one_slow.stderr)
        self.assertIn("cv", one_slow.stdout)
        # Every repetition 2x slower: the median regresses.
        slow_median = self.run_gate(
            baseline, repeated(name, [20.0, 20.3, 19.8, 20.1, 20.2]))
        self.assertEqual(slow_median.returncode, 1,
                         slow_median.stdout + slow_median.stderr)
        self.assertIn(name, slow_median.stderr)

    def test_names_in_one_report_are_listed_not_gated(self):
        # A rename (BM_FusionObjective/0, /1 -> BM_FusionObjective) must show
        # the dropped and the new names in full; only shared names gate.
        shared = "BM_FftPow2/1024"
        dropped = [f"BM_Old/{i}" for i in range(7)]
        added = ["BM_New"]
        result = self.run_gate(
            [row(shared, 1.0, 1.0)] + [row(n, 1.0, 1.0) for n in dropped],
            [row(shared, 1.0, 1.1)] + [row(n, 9.0, 9.0) for n in added])
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        out = result.stdout
        base_at = out.index("7 benchmark(s) only in baseline")
        cur_at = out.index("1 benchmark(s) only in current")
        for name in dropped:
            self.assertIn(f"  {name}\n", out[base_at:cur_at])
        self.assertIn("  BM_New\n", out[cur_at:])
        self.assertIn("comparing 1 benchmark(s)", out)


if __name__ == "__main__":
    unittest.main()
