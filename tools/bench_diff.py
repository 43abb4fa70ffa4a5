#!/usr/bin/env python3
"""Compares two benchmark records against the bounds in BENCHMARK.json.

Run from anywhere:

    python3 tools/bench_diff.py OLD.json NEW.json

OLD.json and NEW.json are BENCH_<workload>.json records written by
tools/bench_record.py. They must measure the same workload with the same
seeds, runs per seed and run length; otherwise the tool refuses them (exit
2). For every end-to-end metric in BENCHMARK.json and every seed it prints
the old and the new median with their quartiles, the ratio of the new
median to the old one, the metric's bound and one verdict:

- unresolved: the old record's IQR/median exceeds the bound, so its runs
  spread too widely to judge a change of that size;
- worse: the new median is worse than the old one by more than the bound,
  as a fraction of the old median;
- better: the new median is better than the old one by more than the old
  record's IQR;
- within bound: anything else.

It exits 1 if any verdict is worse, else 0. It takes no other options.
"""
import json
import math
import os
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "BENCHMARK.json")
MUST_AGREE = ("workload", "seeds", "runs_per_seed", "run_seconds")


def refuse(message):
    print(f"tools/bench_diff.py: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        refuse(f"cannot read {path}: {e}")


def verdict(old, new, better, bound):
    """Returns (new/old ratio, verdict) for one metric at one seed."""
    median = old["median"]
    iqr = old["q3"] - old["q1"]
    ratio = new["median"] / median if median else math.inf
    # Signed change in the direction of "worse", as a fraction of the old
    # median; the gain is the same change measured against the old IQR.
    change = new["median"] - median if better == "lower" else median - new["median"]
    if (iqr / median if median else iqr) > bound:
        return ratio, "unresolved"
    if change > 0 and (change / median if median else math.inf) > bound:
        return ratio, "worse"
    if -change > iqr:
        return ratio, "better"
    return ratio, "within bound"


def main():
    if len(sys.argv) != 3:
        refuse("usage: bench_diff.py OLD.json NEW.json")
    old, new = load(sys.argv[1]), load(sys.argv[2])
    for field in MUST_AGREE:
        if old.get(field) != new.get(field):
            refuse(f"records differ in {field}: {old.get(field)!r} vs {new.get(field)!r}")
    spec = load(BENCHMARK)

    print(f"{old['workload']}: old {str(old.get('commit'))[:10]}, "
          f"new {str(new.get('commit'))[:10]}, {old['runs_per_seed']} runs per seed "
          f"of {old['run_seconds']} s")
    header = ("metric", "seed", "old median [q1, q3]", "new median [q1, q3]", "new/old",
              "bound", "verdict")
    rows = []
    worse = False
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for side, record in (("old", old), ("new", new)):
            if name not in record["end_to_end"]:
                refuse(f"the {side} record has no {name}")
        for seed in (str(s) for s in old["seeds"]):
            o = old["end_to_end"][name]["seeds"][seed]
            n = new["end_to_end"][name]["seeds"][seed]
            ratio, result = verdict(o, n, metric["better"], metric["bound"])
            worse = worse or result == "worse"
            rows.append((name, seed, f"{o['median']:.4g} [{o['q1']:.4g}, {o['q3']:.4g}]",
                         f"{n['median']:.4g} [{n['q1']:.4g}, {n['q3']:.4g}]",
                         f"{ratio:.3f}", f"{metric['bound']:g}", result))
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
