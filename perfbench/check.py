"""Correctness checks on the CSV a benchmark command wrote.

At the seeds in `reference/manifest.json` the values are compared with the
stored reference CSV within the tolerance stated there.  At any other seed
only invariants are checked: the row set, finite values and non-negative
spectral efficiency.  Every seed also requires the command to exit 0 and,
within one run, to write the same bytes as the run's first good command.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

from workloads import Workload

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
VALUE_COLUMNS = ("se_value", "se_stderr", "se_de")


def load_manifest() -> dict:
    with open(os.path.join(REFERENCE_DIR, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def reference_path(workload: str, seed: int) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.seed{seed}.csv")


def _rows(text: str) -> dict[tuple[str, float, int], dict]:
    rows = {}
    for row in csv.DictReader(io.StringIO(text)):
        key = (row["scheme"], float(row["snr_db"]), int(row["user_id"]))
        if key in rows:
            raise ValueError(f"duplicate row {key}")
        rows[key] = row
    return rows


def _number(cell: str) -> float | None:
    return float(cell) if cell else None


def invariant_problems(text: str, workload: Workload, seed: int) -> list[str]:
    try:
        rows = _rows(text)
    except (KeyError, ValueError) as exc:
        return [f"unreadable CSV: {exc}"]
    problems = []
    expected = workload.row_keys()
    if set(rows) != expected:
        problems.append(
            f"row set differs: {len(expected - set(rows))} missing, {len(set(rows) - expected)} extra"
        )
    for key, row in rows.items():
        if row.get("scenario_id") != workload.name or row.get("seed") != str(seed):
            problems.append(f"{key}: scenario_id/seed columns do not match the workload")
            break
        values = [_number(row[c]) for c in VALUE_COLUMNS]
        if any(v is not None and not math.isfinite(v) for v in values):
            problems.append(f"{key}: non-finite value")
            break
        if values[0] is None or values[0] < 0:
            problems.append(f"{key}: se_value missing or negative")
            break
    return problems


def reference_problems(text: str, reference: str, tolerance: dict) -> list[str]:
    try:
        rows, ref_rows = _rows(text), _rows(reference)
    except (KeyError, ValueError) as exc:
        return [f"unreadable CSV: {exc}"]
    if set(rows) != set(ref_rows):
        return ["row set differs from the reference"]
    problems = []
    for key, ref in ref_rows.items():
        row = rows[key]
        if row["tau_used"] != ref["tau_used"]:
            problems.append(f"{key}: tau_used {row['tau_used']} != {ref['tau_used']}")
        for column in VALUE_COLUMNS:
            got, want = _number(row[column]), _number(ref[column])
            if (got is None) != (want is None):
                problems.append(f"{key}: {column} presence differs from the reference")
                continue
            if want is None:
                continue
            tol = tolerance[column]
            if not abs(got - want) <= tol["atol"] + tol["rtol"] * abs(want):
                problems.append(f"{key}: {column} {got!r} vs reference {want!r}")
        if len(problems) >= 5:
            break
    return problems


def output_problems(text: str, workload: Workload, seed: int) -> list[str]:
    """Check one command's CSV against the reference or the invariants."""
    manifest = load_manifest()
    problems = invariant_problems(text, workload, seed)
    if seed in manifest["seeds"]:
        with open(reference_path(workload.name, seed), encoding="utf-8") as fh:
            problems += reference_problems(text, fh.read(), manifest["tolerance"])
    return problems


def command_problems(
    rc: int | None,
    text: str | None,
    first_text: str | None,
    workload: Workload,
    seed: int,
) -> list[str]:
    """Why one command counts as failed; empty when it succeeded.

    `first_text` is the CSV of the run's first good command, or None when
    this is the first; pass None also for a command whose BLAS threading
    differs from the run's, whose last bits may legitimately differ.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    if text is None:
        return ["no CSV written"]
    if first_text is not None and text != first_text:
        return ["CSV bytes differ from the run's first command"]
    return output_problems(text, workload, seed)
