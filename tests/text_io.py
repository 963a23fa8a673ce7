"""Readers and writers of the package's text formats that only the tests
need: result rows back from CSV, and a scenario spec out to its file."""

import dataclasses

from rician_mimo.results import FIELD_NAMES, ResultRow
from rician_mimo.scenarios import ScenarioSpec


def parse_csv(text: str) -> list[ResultRow]:
    """Inverse of `results.render_csv`."""
    lines = text.strip("\n").split("\n")
    if lines[0] != ",".join(FIELD_NAMES):
        raise ValueError("unexpected CSV header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        values = dict(zip(FIELD_NAMES, parts))
        rows.append(
            ResultRow(
                scenario_id=values["scenario_id"],
                scheme=values["scheme"],
                snr_db=float(values["snr_db"]),
                user_id=int(values["user_id"]),
                se_value=float(values["se_value"]),
                se_stderr=float(values["se_stderr"]) if values["se_stderr"] else None,
                se_de=float(values["se_de"]) if values["se_de"] else None,
                tau_used=int(values["tau_used"]),
                prelog=float(values["prelog"]),
                seed=int(values["seed"]),
            )
        )
    return rows


def serialize_scenario(spec: ScenarioSpec) -> str:
    """Inverse of `scenarios.parse_scenario`."""
    lines = []
    for f in dataclasses.fields(ScenarioSpec):
        value = getattr(spec, f.name)
        if f.name == "snr_grid_db":
            value = ",".join(repr(v) for v in value)
        elif value is None:
            value = "none"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
