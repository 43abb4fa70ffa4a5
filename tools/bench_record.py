#!/usr/bin/env python3
"""Records the D3L benchmark into committed BENCH_<workload>.json files.

Run from the repository root:

    python3 tools/bench_record.py

For every workload in BENCHMARK.json it drives d3lbench/run.py (unchanged):
five untraced runs at each of the default seed 1 and the held-out seed
7919, alternating between the seeds, then one traced run at seed 1. Each
run lasts BENCHMARK.json's run_seconds, so every record is comparable with
the next. It writes BENCH_<workload>.json at the repository root with

- the commit the runs measured (and whether the tree had uncommitted
  changes) and the machine's nproc;
- per seed, the median and quartiles of every end-to-end metric;
- the per-layer means from the traced run;
- the attempted and failed operation counts, per run.

It exits non-zero, writing nothing, if any run fails or reports a failed
operation.
"""
import json
import os
import statistics
import subprocess
import sys

SEEDS = (1, 7919)
RUNS_PER_SEED = 5


def fail(message):
    sys.exit(f"tools/bench_record.py: {message}")


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join("d3lbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        fail(f"{workload} seed {seed} trace {trace}: {result['failed']} of "
             f"{result['attempted']} operations failed")
    return result


def git(*args):
    return subprocess.run(["git", *args], stdout=subprocess.PIPE, text=True,
                          check=True).stdout.strip()


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    header = {
        "commit": git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no")),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "runs_per_seed": RUNS_PER_SEED,
    }
    records = {}
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = {seed: [] for seed in SEEDS}
        for _ in range(RUNS_PER_SEED):
            for seed in SEEDS:
                untraced[seed].append(run(workload, seed, seconds, 0))
                print(f"{workload} seed {seed}: run {len(untraced[seed])} of {RUNS_PER_SEED}",
                      file=sys.stderr)
        traced = run(workload, SEEDS[0], seconds, 1)

        end_to_end = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            per_seed = {}
            for seed, results in untraced.items():
                q1, median, q3 = statistics.quantiles(
                    [r["metrics"][name]["value"] for r in results], n=4, method="inclusive")
                per_seed[str(seed)] = {"median": median, "q1": q1, "q3": q3}
            end_to_end[name] = {"unit": metric["unit"], "better": metric["better"],
                                "seeds": per_seed}
        records[workload] = dict(header, workload=workload, end_to_end=end_to_end,
            per_layer={name: {"mean": m["value"], "unit": m["unit"]}
                       for name, m in sorted(traced["metrics"].items())},
            operations={
                "untraced": {str(seed): [{"attempted": r["attempted"], "failed": r["failed"]}
                                         for r in results]
                             for seed, results in untraced.items()},
                "traced": {"attempted": traced["attempted"], "failed": traced["failed"]},
            })

    for workload, record in records.items():
        with open(f"BENCH_{workload}.json", "w") as f:
            json.dump(record, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote BENCH_{workload}.json", file=sys.stderr)


if __name__ == "__main__":
    main()
