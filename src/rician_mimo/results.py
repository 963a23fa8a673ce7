"""Result rows and their CSV/JSON serialization.

One row per (scheme, operating point, user).  A row refuses a NaN, infinite
or negative SE, DE or stderr with ValueError, so none is written.
Files are deterministic: fixed column order, repr() floats (shortest
round-trip decimal), LF line endings, so identical runs produce
byte-identical output.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path


@dataclass
class ResultRow:
    scenario_id: str
    scheme: str  # conv_single | stat_single | conv_multi | stat_multi
    snr_db: float
    user_id: int
    se_value: float
    se_stderr: float | None  # Monte Carlo rows only
    se_de: float | None  # present when the asymptotic value was computed
    tau_used: int
    prelog: float
    seed: int

    def __post_init__(self):
        for name in ("se_value", "se_stderr", "se_de"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


FIELD_NAMES = [f.name for f in fields(ResultRow)]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(rows: list[ResultRow]) -> str:
    lines = [",".join(FIELD_NAMES)]
    for row in rows:
        lines.append(",".join(_cell(getattr(row, name)) for name in FIELD_NAMES))
    return "\n".join(lines) + "\n"


def render_json(rows: list[ResultRow]) -> str:
    return json.dumps([asdict(row) for row in rows], indent=2) + "\n"


def render(rows: list[ResultRow], fmt: str) -> str:
    """The rows as csv or json text."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    return render_csv(rows) if fmt == "csv" else render_json(rows)


def emit_results(rows: list[ResultRow], fmt: str, path: str | Path) -> Path:
    """Write rows to `path` as csv or json; returns the written path."""
    if not rows:
        raise ValueError("no result rows to emit")
    text = render(rows, fmt)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def parse_csv(text: str) -> list[ResultRow]:
    """Inverse of render_csv (used by tests and the reproduce checks)."""
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
