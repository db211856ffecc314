#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py [--seeds 10] [--first-seed 1]
        [--workloads serve-jobs,query] [--out table.md] [--raw runs.jsonl]

Runs every workload once per seed through run.py and prints, per metric,
the median, the quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median and that spread as a share of the metric's bound in
BENCHMARK.json. Run it from the root of a checkout, on an otherwise idle
machine; ten seeds over both workloads take about 15 minutes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, out.returncode))
    return json.loads(lines[-1])


def table(spec, runs):
    rows = ["| workload | metric | median | q1 | q3 | spread | bound | "
            "spread / bound |", "|---|---|---|---|---|---|---|---|"]
    for w in sorted({r["workload"] for r in runs}):
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs
                    if r["workload"] == w]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows.append("| %s | %s | %.6g %s | %.6g | %.6g | %.3f | %.2f | "
                        "%.2f |" % (w, m["name"], med, m["unit"], q1, q3,
                                    spread, m["bound"], spread / m["bound"]))
    return "\n".join(rows)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default="")
    p.add_argument("--out", default="")
    p.add_argument("--raw", default="")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    runs = []
    for w in workloads:
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(spec, w, seed)
            result.update(workload=w, seed=seed)
            runs.append(result)
            if args.raw:
                with open(args.raw, "a") as f:
                    f.write(json.dumps(result) + "\n")
            print("%s seed %d: %s" % (w, seed, {
                k: round(v["value"], 4)
                for k, v in result["metrics"].items()}), file=sys.stderr)
    text = table(spec, runs)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")


if __name__ == "__main__":
    main()
