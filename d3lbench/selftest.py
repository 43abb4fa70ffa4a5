#!/usr/bin/env python3
"""Self-test of the D3L benchmark, at tiny scale (about a minute plus the build).

Run from the repository root:

    python3 d3lbench/selftest.py

For every workload in BENCHMARK.json it checks that an untraced run reports
exactly the end-to-end metrics and a traced run exactly the per-layer
metrics, each with its declared unit, with no failed operation; and that a
run whose reference ranking is deliberately perturbed counts failures.
Exits non-zero on the first violation.
"""
import json
import os
import subprocess
import sys

SECONDS = "1"


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join("d3lbench", "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", SECONDS, "--trace", str(trace),
               "--scale", "tiny", *extra]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"FAIL {workload}: result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        sys.exit(f"FAIL {workload}: attempted {result['attempted']}")
    return result


def check_metrics(workload, trace, result, declared):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        sys.exit(f"FAIL {workload} trace={trace}: missing {missing}, extra {extra}, "
                 f"wrong units {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            sys.exit(f"FAIL {workload}: {name} is not a number")


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run(workload, trace)
            check_metrics(workload, trace, result, declared)
            if not result["correct"] or result["failed"] != 0:
                sys.exit(f"FAIL {workload} trace={trace}: {result['failed']} failed")
            print(f"ok   {workload} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations")
        perturbed = run(workload, 0, "--perturb-reference")
        if perturbed["correct"] or perturbed["failed"] == 0:
            sys.exit(f"FAIL {workload}: a perturbed reference was not counted as failed")
        print(f"ok   {workload} perturbed reference: {perturbed['failed']} failed of "
              f"{perturbed['attempted']}")
    print("self-test passed")


if __name__ == "__main__":
    main()
