"""Regenerate the reference CSVs the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Runs every workload at each reference seed, once with the default BLAS
threading and once pinned to one thread, stores the default-threading CSV
under `perfbench/reference/` and prints the largest relative difference
between the two per value column: the tolerance in `manifest.json` must
stay above it.  Keep the tolerance and seeds in `manifest.json`; this
script only rewrites the CSVs.
"""

from __future__ import annotations

import csv
import io
import os
import shutil
import sys
import tempfile
import time

from check import VALUE_COLUMNS, load_manifest, reference_path
from run import WORK_DIR, run_child
from workloads import WORKLOADS


def run_once(workload, seed: int, blas_threads: int | None) -> str:
    out_dir = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        scenario = os.path.join(out_dir, "scenario.ini")
        with open(scenario, "w", encoding="utf-8") as fh:
            fh.write(workload.scenario_text(seed))
        out = os.path.join(out_dir, "out.csv")
        record, _ = run_child(workload.cli_argv(scenario, out), time.perf_counter() + 600, blas_threads=blas_threads)
        if not record or record["rc"] != 0:
            raise SystemExit(f"{workload.name} seed {seed} failed")
        with open(out, encoding="utf-8", newline="") as fh:
            return fh.read()
    finally:
        shutil.rmtree(out_dir)


def max_rel_diff(a: str, b: str) -> dict[str, float]:
    worst = dict.fromkeys(VALUE_COLUMNS, 0.0)
    for ra, rb in zip(csv.DictReader(io.StringIO(a)), csv.DictReader(io.StringIO(b))):
        for column in VALUE_COLUMNS:
            if ra[column] and rb[column]:
                x, y = float(ra[column]), float(rb[column])
                if x != y:
                    worst[column] = max(worst[column], abs(x - y) / max(abs(y), 1e-300))
    return worst


def main() -> int:
    os.makedirs(WORK_DIR, exist_ok=True)
    manifest = load_manifest()
    for workload in WORKLOADS.values():
        for seed in manifest["seeds"]:
            default = run_once(workload, seed, None)
            single = run_once(workload, seed, 1)
            with open(reference_path(workload.name, seed), "w", encoding="utf-8", newline="") as fh:
                fh.write(default)
            print(workload.name, seed, "1 vs default threads:", max_rel_diff(single, default))
    return 0


if __name__ == "__main__":
    sys.exit(main())
