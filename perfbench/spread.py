"""Run-to-run spread of the end-to-end metrics across seeds, pass after pass.

    python3 perfbench/spread.py --workload ring-blocks-128 --seeds 1-10 --passes 2

Runs ``run.py --trace 0`` once per seed, one run after the other, and prints
for every end-to-end metric the median of the per-run values and the distance
between their first and third quartiles (``statistics.quantiles(n=4)``) as a
share of that median, next to the metric's bound from BENCHMARK.json. A
benchmark is steady when every spread but setup_s's stays below a third of
its bound. With ``--passes 2`` or more the seeds are run again in later
passes, and each later pass's medians are compared with the first's: the
code is the same, so a median that moves by more than the bound is the host's
drift, which the benchmark has failed to cancel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_pass(workload: str, seeds: list[int], spec: dict) -> dict[str, list[float]] | None:
    per_metric: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    longest = 0.0
    failed = 0
    for seed in seeds:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--trace", "0"]
        t0 = time.perf_counter()
        child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        elapsed = time.perf_counter() - t0
        longest = max(longest, elapsed)
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            print(f"seed {seed}: exited {child.returncode}")
            return None
        result = json.loads(child.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, value in result["metrics"].items():
            per_metric[name].append(value["value"])
        print(f"seed {seed}: {elapsed:.1f} s, {result['attempted']} ops, "
              f"correct {result['correct']}, "
              + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"\n{workload}: {len(seeds)} runs, longest {longest:.1f} s, "
          f"{failed} failed operations")
    print(f"{'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>8s} "
          f"{'bound':>6s}  below bound/3")
    medians = {}
    for m in spec["end_to_end"]:
        values = per_metric[m["name"]]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        medians[m["name"]] = med
        print(f"{m['name']:14s} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:8.3f} "
              f"{m['bound']:6.2f}  {spread < m['bound'] / 3}", flush=True)
    return medians


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 0,3,7")
    parser.add_argument("--passes", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)

    first = None
    for n in range(1, args.passes + 1):
        print(f"\n== pass {n}", flush=True)
        medians = one_pass(args.workload, seeds, spec)
        if medians is None:
            return 1
        if first is None:
            first = medians
            continue
        print(f"\npass {n} against pass 1: median change, worse when positive")
        for m in spec["end_to_end"]:
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (medians[m["name"]] - first[m["name"]]) / first[m["name"]]
            print(f"{m['name']:14s} {change:+8.3f}  bound {m['bound']:.2f}  "
                  f"within {change <= m['bound']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
