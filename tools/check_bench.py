#!/usr/bin/env python3
"""CI perf-regression gate for BENCH_*.json artifacts.

Compares a freshly measured benchmark artifact against a checked-in
baseline (bench/baselines/) and fails when any shared row's wall-clock
regresses beyond the tolerance:

    tools/check_bench.py --baseline bench/baselines/BENCH_scaling.json \
                         --current build/bench/BENCH_scaling.json \
                         --max-regression 25

Rows are matched by their "name" key.  For each matched pair the timing
metric (first of "wall_ms", "p50_ms" present in both) is compared;
`current > baseline * (1 + max_regression/100)` fails the gate.  Rows
present on only one side are reported but never fail the gate, so the
baseline does not have to be refreshed in the same commit that adds a
scenario.  Speedups are reported too — a large one is a hint that the
baseline is stale and should be refreshed (see docs/performance.md).

A row may also carry "work": deterministic work counts such as
"binding.registers_scanned".  They repeat exactly on any machine, so
each count present on both sides is compared exactly: any increase fails
the gate, and a decrease is reported as a stale baseline.

A row may also carry "peak_rss_mb", the process's peak resident set
after the row.  When both sides have it, it is held to the same
tolerance as the timing metric, so memory that grows with the square of
the design fails the gate even when the time does not.

Stdlib only; exit code 0 = pass, 1 = regression, 2 = usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import sys

METRIC_KEYS = ("wall_ms", "p50_ms")


def load_rows(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    rows = doc.get("results", [])
    out = {}
    for row in rows:
        name = row.get("name")
        if name is None:
            continue
        if name in out:
            print(f"check_bench: duplicate row '{name}' in {path}",
                  file=sys.stderr)
            sys.exit(2)
        out[name] = row
    return out


def pick_metric(base_row, cur_row):
    for key in METRIC_KEYS:
        if key in base_row and key in cur_row:
            return key
    return None


def compare_work(name, base_row, cur_row):
    """Exact comparison of the work counts both rows carry; returns the
    counts that went up."""
    base_work = base_row.get("work", {})
    cur_work = cur_row.get("work", {})
    grew = []
    for key in sorted(set(base_work) & set(cur_work)):
        b = int(base_work[key])
        c = int(cur_work[key])
        verdict = "ok"
        if c > b:
            verdict = "FAIL"
            grew.append(f"{name} {key}")
        elif c < b:
            verdict = "fewer (refresh baseline?)"
        print(f"  [{verdict:>4}] {name}: {key} {b} -> {c}")
    return grew


def compare_bounded(name, key, b, c, unit, lower, max_regression):
    """Prints one comparison held to the tolerance; returns True if `c`
    is worse than `b` by more than it."""
    delta_pct = 100.0 * (c - b) / b
    verdict = "ok"
    if delta_pct > max_regression:
        verdict = "FAIL"
    elif delta_pct < -max_regression:
        verdict = f"{lower} (stale baseline?)"
    print(f"  [{verdict:>4}] {name}: {key} {b:.1f} -> {c:.1f} {unit} "
          f"({delta_pct:+.1f}%)")
    return verdict == "FAIL"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True,
                    help="checked-in baseline BENCH_*.json")
    ap.add_argument("--current", required=True,
                    help="freshly measured BENCH_*.json")
    ap.add_argument("--max-regression", type=float, default=25.0,
                    help="max allowed wall-clock and peak-memory "
                         "regression, percent (default: 25)")
    args = ap.parse_args()

    base = load_rows(args.baseline)
    cur = load_rows(args.current)

    failures = []
    compared = 0
    for name in sorted(base):
        if name not in cur:
            print(f"  [gone] {name}: in baseline only (not compared)")
            continue
        failures += compare_work(name, base[name], cur[name])
        if "peak_rss_mb" in base[name] and "peak_rss_mb" in cur[name]:
            b = float(base[name]["peak_rss_mb"])
            c = float(cur[name]["peak_rss_mb"])
            if b <= 0:
                print(f"  [skip] {name}: non-positive baseline "
                      f"peak_rss_mb={b}")
            elif compare_bounded(name, "peak_rss_mb", b, c, "MB", "smaller",
                                 args.max_regression):
                failures.append(f"{name} peak_rss_mb")
        metric = pick_metric(base[name], cur[name])
        if metric is None:
            print(f"  [skip] {name}: no shared timing metric")
            continue
        b = float(base[name][metric])
        c = float(cur[name][metric])
        if b <= 0:
            print(f"  [skip] {name}: non-positive baseline {metric}={b}")
            continue
        compared += 1
        if compare_bounded(name, metric, b, c, "ms", "faster",
                           args.max_regression):
            failures.append(name)
    for name in sorted(cur):
        if name not in base:
            print(f"  [new ] {name}: not in baseline (not compared)")

    if compared == 0:
        print("check_bench: no comparable rows — baseline/current mismatch?",
              file=sys.stderr)
        sys.exit(2)
    if failures:
        print(f"check_bench: {len(failures)} regression(s) (time or peak "
              f"memory past {args.max_regression:.0f}% or more work): "
              f"{', '.join(failures)}",
              file=sys.stderr)
        sys.exit(1)
    print(f"check_bench: {compared} row(s) within "
          f"{args.max_regression:.0f}% of baseline")


if __name__ == "__main__":
    main()
