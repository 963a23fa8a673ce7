"""Run the benchmark over several seeds and write one result record.

    python3 perfbench/record.py --seeds 101-110 --out perfbench/baseline/NAME.json

For every workload: one `run.py --trace 0` run per seed, then one
`--trace 1` run at the first seed, each lasting BENCHMARK.json's
`run_seconds`.  The record holds each run's result line and machine
facts, and per end-to-end metric the median, quartiles and spread
(interquartile range over the median) across the seeds: the figures a
later change is compared against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True,
    )
    lines = proc.stdout.strip().split("\n")
    facts = next(json.loads(l[len("facts "):]) for l in lines if l.startswith("facts "))
    return {"seed": seed, "facts": facts, **json.loads(lines[-1])}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="101-110", help="lo-hi, inclusive")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    record = {"seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        runs = [bench(name, seed, seconds, 0) for seed in parse_seeds(args.seeds)]
        metrics = {m: summary([r["metrics"][m]["value"] for r in runs]) for m in runs[0]["metrics"]}
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
            "runs": runs,
            "traced": bench(name, runs[0]["seed"], seconds, 1),
        }
        record["workloads"][name] = entry
        print(name, json.dumps({m: round(s["median"], 4) for m, s in metrics.items()}),
              "spread", json.dumps({m: round(s["spread"], 4) for m, s in metrics.items()}), flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
