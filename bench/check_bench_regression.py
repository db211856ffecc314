#!/usr/bin/env python3
"""Compare two perf reports and fail on regressions.

Usage:
    check_bench_regression.py BASELINE.json CURRENT.json [--threshold 0.25]
        [--percentile-keys p99_ms] [--abs-floor-ms 0.05]

Two report shapes are understood, auto-detected from the files:

google-benchmark reports (a top-level "benchmarks" array)
    Benchmarks are matched by name; only names present in BOTH reports are
    compared (new benchmarks can land without a baseline, removed ones do
    not block). Every name found in only one report is listed, baseline-
    only and current-only separately, so a renamed benchmark shows up as a
    gate that went away rather than vanishing silently. A benchmark
    regresses when its gated time grows by more than `threshold` (default
    25%) relative to the baseline. The gated time
    is cpu_time, which is stable enough on shared CI runners to catch real
    algorithmic regressions, except for rows whose name ends in
    "/real_time": google-benchmark adds that suffix under UseRealTime(),
    which the pool-backed benchmarks use because their cpu_time counts only
    the main thread, and those rows are gated on real_time.

    Under --benchmark_repetitions a report holds one row per repetition
    plus aggregate rows. A benchmark with a "median" aggregate row is gated
    on that median, so one slow repetition cannot fail the gate on its own;
    without one, on the median of its repetition rows. Each row's
    coefficient of variation (the "cv" aggregate, else computed from the
    repetitions) is printed next to it so a noisy row can be told apart
    from a regression.

serve-load reports (schema "uniq-serve-load-v1", a "percentiles" object)
    The latency percentiles named by --percentile-keys (default: p99_ms)
    are compared directly; a percentile regresses when it grows by more
    than `threshold` AND by more than --abs-floor-ms absolute (default
    0.05 ms — sub-floor jitter on a cache-hit path measured in tens of
    microseconds is noise, not a regression). Throughput and hit rate are
    printed for context but never gate.

Both files must be the same shape. Exit codes: 0 ok, 1 at least one
regression, 2 bad input.
"""

import argparse
import json
import statistics
import sys


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)


def gated_field(name):
    """The timing a benchmark row is gated on (see the module docstring)."""
    return "real_time" if name.endswith("/real_time") else "cpu_time"


def extract_benchmarks(report, path):
    """Return {name: (gated time, time unit, cv or None)} per benchmark.

    The name is the run name (without any aggregate suffix); see the module
    docstring for which row's time is gated and where the cv comes from.
    """
    repetitions = {}
    aggregates = {}
    for entry in report.get("benchmarks", []):
        name = entry.get("run_name") or entry.get("name")
        if not name or gated_field(name) not in entry:
            continue
        if entry.get("run_type") == "aggregate":
            aggregates.setdefault(name, {})[entry.get("aggregate_name")] = entry
        else:
            repetitions.setdefault(name, []).append(entry)
    out = {}
    for name in sorted(set(repetitions) | set(aggregates)):
        field = gated_field(name)
        rows = repetitions.get(name, [])
        aggs = aggregates.get(name, {})
        times = [row[field] for row in rows]
        if "median" in aggs:
            gated = aggs["median"][field]
            unit = aggs["median"].get("time_unit", "ns")
        elif times:
            gated = statistics.median(times)
            unit = rows[0].get("time_unit", "ns")
        else:
            continue
        if "cv" in aggs:
            cv = aggs["cv"][field]
        elif len(times) >= 2 and statistics.mean(times) > 0:
            cv = statistics.stdev(times) / statistics.mean(times)
        else:
            cv = None
        out[name] = (gated, unit, cv)
    if not out:
        print(f"error: no benchmark entries in {path}", file=sys.stderr)
        sys.exit(2)
    return out


def format_cv(cv):
    return "cv n/a" if cv is None else f"cv {cv:.1%}"


def check_benchmarks(baseline, current, threshold):
    common = sorted(set(baseline) & set(current))
    if not common:
        print("error: baseline and current share no benchmark names",
              file=sys.stderr)
        sys.exit(2)

    for names, what in (
            (sorted(set(baseline) - set(current)),
             "only in baseline (gate dropped)"),
            (sorted(set(current) - set(baseline)),
             "only in current (no baseline, not gated)")):
        if names:
            print(f"note: {len(names)} benchmark(s) {what}:")
            for name in names:
                print(f"  {name}")

    regressions = []
    print(f"comparing {len(common)} benchmark(s), threshold "
          f"+{threshold:.0%} cpu_time (real_time for */real_time rows), "
          f"median over repetitions where present")
    for name in common:
        field = gated_field(name)
        base_time, unit, base_cv = baseline[name]
        cur_time, _, cur_cv = current[name]
        if base_time <= 0:
            continue
        ratio = cur_time / base_time
        flag = ""
        if ratio > 1.0 + threshold:
            regressions.append((name, ratio))
            flag = "  << REGRESSION"
        print(f"  {name}: {base_time:.1f} ({format_cv(base_cv)}) -> "
              f"{cur_time:.1f} ({format_cv(cur_cv)}) {unit} {field} "
              f"({ratio:.2f}x baseline){flag}")
    return regressions


def check_percentiles(base_report, cur_report, keys, threshold, abs_floor_ms):
    base = base_report.get("percentiles", {})
    cur = cur_report.get("percentiles", {})
    regressions = []
    print(f"comparing latency percentile(s) {', '.join(keys)}, threshold "
          f"+{threshold:.0%} and +{abs_floor_ms:.3f} ms absolute")
    for key in keys:
        if key not in base or key not in cur:
            print(f"error: percentile key '{key}' missing from "
                  f"{'baseline' if key not in base else 'current'} report",
                  file=sys.stderr)
            sys.exit(2)
        base_ms, cur_ms = float(base[key]), float(cur[key])
        flag = ""
        if base_ms > 0:
            ratio = cur_ms / base_ms
            if ratio > 1.0 + threshold and cur_ms - base_ms > abs_floor_ms:
                regressions.append((key, ratio))
                flag = "  << REGRESSION"
            print(f"  {key}: {base_ms:.4f} -> {cur_ms:.4f} ms "
                  f"({ratio:.2f}x baseline){flag}")
        else:
            print(f"  {key}: {base_ms:.4f} -> {cur_ms:.4f} ms "
                  f"(zero baseline, skipped)")
    # Context only — load-dependent and runner-dependent, never gated.
    for label, field in [("throughput", "throughput_ops_per_s"),
                         ("saturation", "saturation_ops_per_s"),
                         ("hit_rate", "hit_rate")]:
        if field in base_report and field in cur_report:
            print(f"  {label} (context): {base_report[field]:.2f} -> "
                  f"{cur_report[field]:.2f}")
    return regressions


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional growth (default 0.25 = +25%%)",
    )
    parser.add_argument(
        "--percentile-keys",
        default="p99_ms",
        help="comma-separated percentile keys gated for serve-load reports "
             "(default: p99_ms)",
    )
    parser.add_argument(
        "--abs-floor-ms",
        type=float,
        default=0.05,
        help="serve-load only: a percentile must also grow by this many ms "
             "to count as a regression (default 0.05)",
    )
    args = parser.parse_args()

    base_report = load_report(args.baseline)
    cur_report = load_report(args.current)

    base_is_load = "percentiles" in base_report
    cur_is_load = "percentiles" in cur_report
    if base_is_load != cur_is_load:
        print("error: baseline and current are different report shapes",
              file=sys.stderr)
        sys.exit(2)

    if base_is_load:
        keys = [k for k in args.percentile_keys.split(",") if k]
        regressions = check_percentiles(base_report, cur_report, keys,
                                        args.threshold, args.abs_floor_ms)
        what = "percentile(s)"
    else:
        regressions = check_benchmarks(
            extract_benchmarks(base_report, args.baseline),
            extract_benchmarks(cur_report, args.current),
            args.threshold)
        what = "benchmark(s)"

    if regressions:
        print(f"\nFAIL: {len(regressions)} {what} regressed more than "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x baseline", file=sys.stderr)
        sys.exit(1)
    print("OK: no regression beyond the threshold")


if __name__ == "__main__":
    main()
