#!/usr/bin/env python3
"""Compare a BENCH_*.json run against a checked-in baseline.

Absolute pairs/s depend on the runner and are useless across CI hosts, so
the comparison unit is the *speedup ratio* each row already carries
(speedup_vs_scalar for the kernel ladder, speedup_vs_best_pair for the
panel-blocking rows, speedup_vs_baseline for ablation rows): those are
measured against a same-host, same-run reference and stay meaningful on
any machine.

A row regresses when its ratio drops below baseline * tolerance (default
0.8, i.e. fail on a >20% regression). Rows present in the current run but
not in the baseline are ignored (new benchmarks don't need a flag day);
rows in the baseline but missing from the run fail loudly — a silently
vanished kernel row must not read as a pass.

Usage: check_perf_regression.py <baseline.json> <current.json> [tolerance]
"""

import json
import sys


def row_key(row):
    """Identity of one benchmark row across runs."""
    return (
        row.get("table"),
        row.get("samples"),
        row.get("kernel") or row.get("variant"),
        row.get("width"),
    )


def row_ratio(row):
    """The host-independent speedup metric of a row, if it carries one."""
    for field in ("speedup_vs_scalar", "speedup_vs_best_pair",
                  "speedup_vs_baseline"):
        if field in row:
            return row[field]
    return None


def load_rows(path):
    with open(path) as handle:
        document = json.load(handle)
    rows = {}
    for row in document.get("rows", []):
        ratio = row_ratio(row)
        if ratio is not None:
            rows[row_key(row)] = ratio
    return rows


def main(argv):
    if len(argv) not in (3, 4):
        print(__doc__, file=sys.stderr)
        return 2
    baseline_path, current_path = argv[1], argv[2]
    tolerance = float(argv[3]) if len(argv) == 4 else 0.8

    baseline = load_rows(baseline_path)
    current = load_rows(current_path)
    if not baseline:
        print(f"error: no comparable rows in baseline {baseline_path}",
              file=sys.stderr)
        return 2

    failures = []
    for key, reference in sorted(baseline.items()):
        table, samples, variant, width = key
        label = f"{table}/m={samples}/{variant}"
        if width is not None:
            label += f"/B={width}"
        if key not in current:
            failures.append(f"{label}: missing from current run")
            continue
        measured = current[key]
        floor = reference * tolerance
        verdict = "ok" if measured >= floor else "REGRESSED"
        print(f"{label}: baseline {reference:.2f}x, measured {measured:.2f}x "
              f"(floor {floor:.2f}x) {verdict}")
        if measured < floor:
            failures.append(
                f"{label}: {measured:.2f}x < {floor:.2f}x "
                f"(baseline {reference:.2f}x, tolerance {tolerance:g})")

    if failures:
        print(f"\n{len(failures)} perf regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nall {len(baseline)} baseline rows within tolerance {tolerance:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
