#!/usr/bin/env python3
"""Diff two google-benchmark JSON result files and flag regressions.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--threshold 0.10]
    bench_compare.py --self-test

Benchmarks are matched by name. For each pair the wall time (`real_time`)
and throughput (`items_per_second`, when present) are compared against the
baseline; a benchmark whose wall time grew — or whose throughput shrank —
by more than the threshold (default 10%) is a REGRESSION and the script
exits 1. Improvements and within-noise drift are reported but never fail.
Benchmarks present on only one side are listed as added/removed, not
failed, so the baseline does not have to be regenerated in the same PR
that adds a benchmark.

The committed baselines live at the repo root (BENCH_*.json), produced by
    F='BM_EndToEnd|BM_RouteTreeBuild|BM_FullObjectiveEvaluation'
    F="$F|BM_RandomNeighbor|BM_Crossover|BM_FeatureExtraction"
    F="$F|BM_NonDominatedSort|BM_ParetoArchiveInsert"
    bench_micro --benchmark_filter="$F" \
                --benchmark_format=json --benchmark_out=BENCH_new.json
Before BENCH_21.json they held BM_EndToEnd only, and before BENCH_25.json
they lacked the two Pareto bookkeeping cells, so those cells show as ADDED
against an older baseline.

The BM_EndToEnd cells run with MinTime(2.0) (bench/bench_micro.cpp). At
google-benchmark's default minimum time a moela cell got only 4-5
iterations, and one slow run moved it past the 10% gate: zdt1_moela read
x1.18 and dtlz2_moead x1.11 on code that longer runs showed was not
slower. google-benchmark names such cells `.../min_time:2.000/real_time`;
names are matched with that component dropped, so baselines from before
the setting still pair up cell by cell.
"""

import argparse
import json
import re
import sys


def cell_name(name):
    """The benchmark name without google-benchmark's min_time component."""
    return re.sub(r"/min_time:[0-9.]+s?(?=/|$)", "", name)


def load_benchmarks(path):
    """name -> {"real_time": float, "items_per_second": float | None}."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    benchmarks = {}
    for entry in data.get("benchmarks", []):
        if entry.get("run_type") == "aggregate":
            continue  # compare raw runs, not mean/median/stddev rows
        benchmarks[cell_name(entry["name"])] = {
            "real_time": float(entry["real_time"]),
            "items_per_second": (
                float(entry["items_per_second"])
                if "items_per_second" in entry
                else None
            ),
        }
    return benchmarks


def compare(baseline, current, threshold):
    """Returns (report_lines, regression_names)."""
    lines = []
    regressions = []
    for name in sorted(set(baseline) | set(current)):
        if name not in baseline:
            lines.append(f"  ADDED      {name}")
            continue
        if name not in current:
            lines.append(f"  REMOVED    {name}")
            continue
        base, cur = baseline[name], current[name]
        time_ratio = cur["real_time"] / base["real_time"]
        reasons = []
        if time_ratio > 1.0 + threshold:
            reasons.append(f"wall time x{time_ratio:.2f}")
        if base["items_per_second"] and cur["items_per_second"]:
            rate_ratio = cur["items_per_second"] / base["items_per_second"]
            if rate_ratio < 1.0 - threshold:
                reasons.append(f"throughput x{rate_ratio:.2f}")
        if reasons:
            regressions.append(name)
            lines.append(f"  REGRESSION {name}: " + ", ".join(reasons))
        elif time_ratio < 1.0 - threshold:
            lines.append(f"  improved   {name}: wall time x{time_ratio:.2f}")
        else:
            lines.append(f"  ok         {name}: wall time x{time_ratio:.2f}")
    return lines, regressions


def self_test():
    """Exercises the comparison logic on synthetic results."""
    baseline = {
        "steady": {"real_time": 100.0, "items_per_second": 1000.0},
        "slower": {"real_time": 100.0, "items_per_second": 1000.0},
        "starved": {"real_time": 100.0, "items_per_second": 1000.0},
        "faster": {"real_time": 100.0, "items_per_second": 1000.0},
        "timeonly": {"real_time": 100.0, "items_per_second": None},
        "removed": {"real_time": 100.0, "items_per_second": 1000.0},
    }
    current = {
        "steady": {"real_time": 105.0, "items_per_second": 952.0},
        "slower": {"real_time": 125.0, "items_per_second": 800.0},
        "starved": {"real_time": 104.0, "items_per_second": 850.0},
        "faster": {"real_time": 50.0, "items_per_second": 2000.0},
        "timeonly": {"real_time": 150.0, "items_per_second": None},
        "added": {"real_time": 1.0, "items_per_second": 1.0},
    }
    _, regressions = compare(baseline, current, threshold=0.10)
    expected = ["slower", "starved", "timeonly"]
    checks = [
        (regressions == expected,
         f"expected {expected}, got {regressions}"),
        (compare(baseline, baseline, 0.10)[1] == [],
         "identical results must not regress"),
        (compare({}, current, 0.10)[1] == [],
         "an empty baseline must not regress"),
        (cell_name("BM_EndToEnd/zdt1_moela/min_time:2.000/real_time")
         == "BM_EndToEnd/zdt1_moela/real_time",
         "a min_time component must not split a cell from its baseline"),
        (cell_name("BM_RouteTreeBuild") == "BM_RouteTreeBuild",
         "names without min_time must stay as they are"),
    ]
    failed = [message for ok, message in checks if not ok]
    for message in failed:
        print(f"bench_compare self-test FAILED: {message}")
    if not failed:
        print("bench_compare self-test passed")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?", help="baseline BENCH json")
    parser.add_argument("current", nargs="?", help="candidate BENCH json")
    parser.add_argument(
        "--threshold", type=float, default=0.10,
        help="fractional regression tolerance (default 0.10 = 10%%)")
    parser.add_argument(
        "--self-test", action="store_true",
        help="verify the comparison logic on synthetic data and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        parser.error("BASELINE and CURRENT are required (or --self-test)")

    baseline = load_benchmarks(args.baseline)
    current = load_benchmarks(args.current)
    lines, regressions = compare(baseline, current, args.threshold)
    print(f"bench_compare: {args.baseline} -> {args.current} "
          f"(threshold {args.threshold:.0%})")
    for line in lines:
        print(line)
    if regressions:
        print(f"bench_compare: {len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%}")
        return 1
    print("bench_compare: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
