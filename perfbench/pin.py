#!/usr/bin/env python3
"""Re-derive the reference data in perfbench/pins.json.

    python3 perfbench/pin.py calibrate --seeds 101-106
    python3 perfbench/pin.py digests --seeds 0-20

(`targets` re-derives only the time-to-target PHVs under the pinned bounds.)

`calibrate` pins the PHV normalization (per problem: the objective ranges
seen over every snapshot of the calibration runs), the per-application
reference EDP (median picked EDP, only for applications whose picked EDP
varies over the calibration runs), and each workload's time-to-target PHV
per problem (the median PHV of the calibration runs halfway into their
budget). `digests` pins each workload's output digest per seed, and for
the held-out seed.
Calibration seeds should stay disjoint from the seeds used to measure.
Changing the pinned data changes what the benchmark measures: it is a
benchmark change, never part of a change that claims a gain.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

PINS = run.BENCH_DIR / "pins.json"
EDP_SENSITIVE = 1.01


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def driver_lines(driver, workload, seed, mode, work):
    out = subprocess.run(
        [str(driver), "--workload", workload, "--seed", str(seed), mode,
         "--pins", str(PINS), "--work-dir", str(work)],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def calibration_rows(driver, seeds, work):
    return [row for w in run.WORKLOADS for s in seeds
            for row in driver_lines(driver, w, s, "--calibrate", work)]


def pin_bounds(driver, pins, seeds, work):
    bounds, edps = {}, {}
    for row in calibration_rows(driver, seeds, work):
        b = bounds.setdefault(row["key"], {"ideal": row["ideal"], "nadir": row["nadir"]})
        b["ideal"] = [min(a, c) for a, c in zip(b["ideal"], row["ideal"])]
        b["nadir"] = [max(a, c) for a, c in zip(b["nadir"], row["nadir"])]
        if "edp" in row and row["workload"] != "fleet-sweep":
            edps.setdefault(row["key"].split(":")[1], []).append(row["edp"])
    pins["bounds"] = {k: {"ideal": [float(f"{x:.6g}") for x in v["ideal"]],
                          "nadir": [float(f"{x:.6g}") for x in v["nadir"]]}
                      for k, v in sorted(bounds.items())}
    # An application whose picked EDP stays within 1% over the calibration
    # runs saturates the GPU cores on every design, so its EDP says nothing
    # about the search; it gets no reference and is not scored.
    pins["edp_reference"] = {k: float(f"{statistics.median(v):.6g}")
                             for k, v in sorted(edps.items())
                             if max(v) > EDP_SENSITIVE * min(v)}


def phv_at(trace, share):
    """PHV of a [(share of budget, PHV), ...] trace at `share`."""
    prev = trace[0]
    for point in trace:
        if point[0] >= share:
            if point[0] == prev[0]:
                return point[1]
            w = (share - prev[0]) / (point[0] - prev[0])
            return prev[1] + w * (point[1] - prev[1])
        prev = point
    return trace[-1][1]


def targets_from(rows):
    # Under the pinned bounds, the target for each problem (each NoC
    # application) is the median PHV the calibration runs had halfway into
    # their budget.
    targets = {}
    for row in rows:
        key = f"{row['workload']}/{row['key']}"
        targets.setdefault(key, []).append(phv_at(row["phv_trace"], 0.5))
    return {k: float(f"{statistics.median(v):.4g}") for k, v in sorted(targets.items())}


def pin_targets(driver, pins, seeds, work):
    pins["targets"] = targets_from(calibration_rows(driver, seeds, work))


def digests(driver, pins, seeds, work):
    seeds = sorted(set(seeds) | {pins["held_out_seed"]})
    for w in run.WORKLOADS:
        for s in seeds:
            (row,) = driver_lines(driver, w, s, "--digest", work)
            pins["digests"].setdefault(w, {})[str(s)] = row["digest"]
            print(w, s, row["digest"], file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("calibrate", "targets", "digests"))
    parser.add_argument("--seeds", required=True, type=seed_list)
    args = parser.parse_args()
    build_root = Path.cwd() / ".bench_build"
    driver = run.build(build_root)
    pins = json.loads(PINS.read_text())
    work = build_root / "work" / "pin"
    if args.what == "calibrate":
        pin_bounds(driver, pins, args.seeds, work)
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    if args.what in ("calibrate", "targets"):
        pin_targets(driver, pins, args.seeds, work)
    if args.what == "digests":
        digests(driver, pins, args.seeds, work)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
