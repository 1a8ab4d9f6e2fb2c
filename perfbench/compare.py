#!/usr/bin/env python3
"""Compare two sets of dacc benchmark runs (stdlib only).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the run JSONs that run.py writes (the untraced ones,
`<workload>-s<seed>-e2e-<time>.json`). For every workload and end-to-end
metric of BENCHMARK.json it prints each side's median and quartiles and a
verdict:

  regression  the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's own spread (interquartile distance over median)
              exceeds the bound, and not every change run beats every
              parent run;
  gain        the change wins at least 9/10 of the pairs (runs of the same
              seed, in time order; ties count for neither) and the medians
              differ by more than the parent's interquartile distance;
  same        none of the above.

Simulated results (the digest, every sim_* value and the failed ratio) must
be identical for each seed both sides ran; a difference is reported as
`differs`. Exits 1 on any regression or difference.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_runs(directory):
    """{workload: [record, ...]} of the untraced runs, in time order."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*-e2e-*.json")):
        with open(path) as f:
            record = json.load(f)
        runs[record["raw"]["workload"]].append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["stamp"]["when"])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent, change, name):
    """(parent value, change value) for runs of the same seed, in order."""
    by_seed = defaultdict(lambda: ([], []))
    for side, records in ((0, parent), (1, change)):
        for r in records:
            by_seed[r["stamp"]["seed"]][side].append(r["result"]["metrics"][name]["value"])
    out = []
    for p, c in by_seed.values():
        out.extend(zip(p, c))
    return out


def verdict(parent_vals, change_vals, paired, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    p1, pmed, p3 = quartiles(parent_vals)
    cmed = statistics.median(change_vals)
    worse = sign * (cmed - pmed) / pmed  # > 0: the change is worse
    if worse > bound:
        return "regression"
    spread = (p3 - p1) / pmed
    all_better = all(sign * (c - p) < 0 for c in change_vals for p in parent_vals)
    wins = sum(1 for p, c in paired if sign * (c - p) < 0)
    if paired and wins >= 0.9 * len(paired) and sign * (pmed - cmed) > p3 - p1:
        return "gain"
    if spread > bound and not all_better:
        return "unresolved"
    return "same"


def simulated(record):
    raw = record["raw"]
    failed_ratio = raw["failed"] / max(1, raw["attempted"])
    return dict(raw["model"], digest=raw["digest"], failed_ratio=failed_ratio)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args()
    with open(HERE.parent / "BENCHMARK.json") as f:
        spec = json.load(f)
    parent, change = load_runs(args.parent), load_runs(args.change)

    bad = False
    print("%-12s %-12s %8s %-32s %-32s %s" % ("workload", "metric", "bound",
          "parent q1/median/q3", "change q1/median/q3", "verdict"))
    for workload in sorted(set(parent) | set(change)):
        if not parent[workload] or not change[workload]:
            print("%-12s only one side has runs" % workload)
            bad = True
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["result"]["metrics"][name]["value"] for r in parent[workload]]
            cv = [r["result"]["metrics"][name]["value"] for r in change[workload]]
            v = verdict(pv, cv, pairs(parent[workload], change[workload], name),
                        m["bound"], m["better"] == "lower")
            bad = bad or v == "regression"
            print("%-12s %-12s %7.0f%% %-32s %-32s %s (n=%d/%d)" % (
                workload, name, 100 * m["bound"],
                "%.5g/%.5g/%.5g" % quartiles(pv), "%.5g/%.5g/%.5g" % quartiles(cv),
                v, len(pv), len(cv)))

        sim_parent = {r["stamp"]["seed"]: simulated(r) for r in parent[workload]}
        sim_change = {r["stamp"]["seed"]: simulated(r) for r in change[workload]}
        common = sorted(set(sim_parent) & set(sim_change))
        differ = [s for s in common if sim_parent[s] != sim_change[s]]
        print("%-12s %-12s %8s %s" % (workload, "simulated", "exact",
              "differs on seeds %s" % differ if differ else
              "identical on %d seed(s)" % len(common)))
        bad = bad or bool(differ)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
