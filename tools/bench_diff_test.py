#!/usr/bin/env python3
"""Self-test for tools/bench_diff.py.

Writes small BENCH_<workload>.json records to a temporary directory and
checks each verdict (better, within bound, worse, unresolved), the exit
codes (0, 1 on any worse, 2 on records that cannot be compared) and that
every end-to-end metric of BENCHMARK.json is reported at every seed.

Run directly: python3 tools/bench_diff_test.py
"""
import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
DIFF = TOOLS / "bench_diff.py"
SPEC = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
SEEDS = [1, 7919]


def record(**medians):
    """A record whose every metric reads 100 [99, 101] unless overridden
    with name=(q1, median, q3)."""
    end_to_end = {}
    for metric in SPEC["end_to_end"]:
        q1, median, q3 = medians.get(metric["name"], (99.0, 100.0, 101.0))
        end_to_end[metric["name"]] = {
            "unit": metric["unit"], "better": metric["better"],
            "seeds": {str(s): {"q1": q1, "median": median, "q3": q3} for s in SEEDS}}
    return {"commit": "0" * 40, "workload": "remote_service", "seeds": SEEDS,
            "runs_per_seed": 5, "run_seconds": SPEC["run_seconds"],
            "end_to_end": end_to_end}


def run(tmp, old, new):
    paths = []
    for name, rec in (("old.json", old), ("new.json", new)):
        path = Path(tmp) / name
        path.write_text(json.dumps(rec))
        paths.append(str(path))
    return subprocess.run([sys.executable, str(DIFF), *paths], capture_output=True, text=True)


def verdicts(stdout):
    """(metric, seed) -> verdict, from the printed table."""
    out = {}
    for line in stdout.splitlines():
        cells = [c for c in line.split("  ") if c.strip()]
        if len(cells) == 7 and cells[0] != "metric":
            out[(cells[0].strip(), cells[1].strip())] = cells[-1].strip()
    return out


def main():
    failures = []

    def check(case, old, new, want_exit, want):
        with tempfile.TemporaryDirectory() as tmp:
            proc = run(tmp, old, new)
        if proc.returncode != want_exit:
            failures.append(f"{case}: expected exit {want_exit}, got {proc.returncode}\n"
                            f"{proc.stdout}{proc.stderr}")
            return
        if want_exit == 2:
            return
        got = verdicts(proc.stdout)
        if len(got) != len(SPEC["end_to_end"]) * len(SEEDS):
            failures.append(f"{case}: expected a row per metric and seed\n{proc.stdout}")
        for (metric, seed), verdict in got.items():
            expected = want.get(metric, "within bound")
            if verdict != expected:
                failures.append(f"{case}: {metric} seed {seed} is {verdict!r}, "
                                f"expected {expected!r}\n{proc.stdout}")

    base = record()
    check("identical records", base, base, 0, {})
    check("lower is better, 2x faster", base, record(query_p50_ms=(49, 50, 51)), 0,
          {"query_p50_ms": "better"})
    check("higher is better, 30% fewer", base, record(qps=(69, 70, 71)), 1,
          {"qps": "worse"})
    check("higher is better, 20% fewer", base, record(qps=(79, 80, 81)), 0, {})
    check("lower is better, 30% slower", base, record(setup_s=(129, 130, 131)), 1,
          {"setup_s": "worse"})
    check("gain inside the old IQR", base, record(query_p95_ms=(98, 99.5, 100)), 0, {})
    # The old runs spread by 40% of their median, wider than the 0.25 bound:
    # even a doubling cannot be judged.
    check("noisy old record", record(rss_mb=(80, 100, 120)), record(rss_mb=(190, 200, 210)),
          0, {"rss_mb": "unresolved"})

    for field, value in (("workload", "exemplar_search"), ("seeds", [1, 2]),
                         ("runs_per_seed", 10), ("run_seconds", 15)):
        other = copy.deepcopy(base)
        other[field] = value
        check(f"records differing in {field}", base, other, 2, {})
    missing = copy.deepcopy(base)
    del missing["end_to_end"]["qps"]
    check("a record without a metric", base, missing, 2, {})
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, str(DIFF), str(Path(tmp) / "only.json")],
                              capture_output=True, text=True)
    if proc.returncode != 2:
        failures.append(f"one argument: expected exit 2, got {proc.returncode}")

    if failures:
        print("\n".join(failures))
        sys.exit(1)
    print("bench_diff self-test: all cases pass")


if __name__ == "__main__":
    main()
