#!/usr/bin/env python3
"""Compares two sets of untraced benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file is a `.bench_out/results.jsonl` written by `perfbench/run.py`.
For every workload present in both, it prints each end-to-end metric's
median and quartile spread on both sides and the change's shift, and flags
a metric whose median got worse by more than its `bound` in
`BENCHMARK.json`.  It refuses (exit 2) to compare runs made on machines
whose kernel ISA or CPU count differ, since their numbers are not
comparable; it exits 1 when any metric regressed beyond its bound.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = {}
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"] == 0 and record["correct"]:
                runs.setdefault(record["env"]["workload"], []).append(record)
    return runs


def machine(records):
    return {(r["env"]["isa"], r["env"]["nproc"]) for r in records}


def spread(values):
    if len(values) < 2:
        return 0.0, statistics.median(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0, q2


def main(base_path, change_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    base, change = load(base_path), load(change_path)
    regressed = False
    for workload in sorted(set(base) & set(change)):
        machines = machine(base[workload]) | machine(change[workload])
        if len(machines) != 1:
            print(f"refusing to compare {workload}: runs come from different machines "
                  f"(isa, nproc) = {sorted(machines)}", file=sys.stderr)
            return 2
        print(f"{workload}: {len(base[workload])} base runs, {len(change[workload])} change runs")
        for metric in metrics:
            name = metric["name"]
            old = [r["e2e"][name]["value"] for r in base[workload]]
            new = [r["e2e"][name]["value"] for r in change[workload]]
            (old_spread, old_median), (new_spread, new_median) = spread(old), spread(new)
            shift = (new_median - old_median) / old_median if old_median else 0.0
            worse = -shift if metric["better"] == "higher" else shift
            flag = "REGRESSED" if worse > metric["bound"] else ""
            regressed |= bool(flag)
            print(f"  {name:20s} {old_median:14.6g} (±{old_spread:6.2%}) -> "
                  f"{new_median:14.6g} (±{new_spread:6.2%})  {shift:+7.2%} {flag}")
    return 1 if regressed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
