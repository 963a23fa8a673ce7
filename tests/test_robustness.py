"""Robustness over the spec space: every spec `ScenarioSpec` accepts runs
`simulate` and `asymptotic` to exit 0 with finite, non-negative rows
(ROADMAP item 14).  The examples are the specs the small-spec probe flagged;
a failure the production DE has today is a strict xfail naming its fix."""

import math

import pytest
from text_io import parse_csv

from rician_mimo import cli

# one cell, shared exponential Theta, no LoS, K/N = 3/4
SHARED_THETA = {
    "n4_k3": "n = 4\nk = 3\n",
    "n8_k6": "n = 8\nk = 6\n",
}
SPEC_TAIL = """\
t = 100
correlation = exponential
kappa_max = 0
seed = 1
snr_grid_db = -20:40:20
"""


def run(tmp_path, command, spec):
    path = tmp_path / "spec.cfg"
    path.write_text(SHARED_THETA[spec] + SPEC_TAIL)
    out = tmp_path / "rows.csv"
    code = cli.main([command, "--scenario", str(path), "--out", str(out)])
    return code, parse_csv(out.read_text()) if code == 0 else []


def assert_finite_non_negative(rows):
    assert rows
    for row in rows:
        for value in (row.se_value, row.se_stderr, row.se_de):
            assert value is None or (math.isfinite(value) and value >= 0.0), row


@pytest.mark.parametrize("spec", sorted(SHARED_THETA))
def test_simulate_runs_every_flagged_spec(tmp_path, spec):
    code, rows = run(tmp_path, "simulate", spec)
    assert code == 0
    assert_finite_non_negative(rows)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the refined conventional DE's SINR is negative from 20 dB (down to "
        "-2661 at N=4, K=3 and -1331 at N=8, K=6; log1p of it was a NaN SE), "
        "so asymptotic exits 2; fixed by ROADMAP item 2 step B"
    ),
)
@pytest.mark.parametrize("spec", sorted(SHARED_THETA))
def test_asymptotic_runs_every_flagged_spec(tmp_path, spec):
    code, rows = run(tmp_path, "asymptotic", spec)
    assert code == 0
    assert_finite_non_negative(rows)
