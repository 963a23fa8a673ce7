"""Smoke tests of the command-line scripts in `scripts/`: in-process at
small sizes, and `crossover_summary.py`, whose presets are fixed at N=150,
as a subprocess on its cheapest figure."""

import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import rician_mimo
from rician_mimo.presets import preset_specs

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, capsys, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def numbers(line):
    return [float(cell.rstrip("%")) for cell in line.split()]


def test_stat_gap_vs_antennas(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "stat_gap_vs_antennas.py", "--n", "8", "16")
    assert lines[0].split() == ["N", "worst_gap", "mean_gap"]
    rows = [numbers(line) for line in lines[1:]]
    assert [row[0] for row in rows] == [8, 16]
    assert all(0.0 <= row[2] <= row[1] and math.isfinite(row[1]) for row in rows)


def test_tau_star_table(monkeypatch, capsys):
    lines = run_script(
        monkeypatch, capsys, "tau_star_table.py",
        "--n", "8", "--k", "2", "--t", "20", "--kappa-max", "0", "2",
    )
    assert lines[0] == "N=8, K=2, T=20, seed=11"
    body = lines[2:]
    assert len(body) == 4
    for stars, losses in zip(body[::2], body[1::2]):
        assert all(2 <= tau < 20 for tau in numbers(stars)[1:])
        assert losses.startswith("   loss@K")
        assert all(0.0 <= loss <= 100.0 for loss in numbers(losses.split(maxsplit=1)[1]))


@pytest.mark.parametrize("multi", [False, True])
def test_compare_de_vs_mc(monkeypatch, capsys, multi):
    args = ["--n", "8", "--k", "2", "--trials", "4"] + (["--multi"] if multi else [])
    lines = run_script(monkeypatch, capsys, "compare_de_vs_mc.py", *args)
    assert lines[0].startswith("scenario: " + ("three_cell_edge" if multi else "single_cell"))
    assert lines[1].split() == ["snr_db", "worst_gap", "mean_gap", "mc_stderr"]
    rows = [numbers(line) for line in lines[2:]]
    assert len(rows) == 9
    assert all(all(math.isfinite(x) for x in row) and row[2] <= row[1] for row in rows)


def test_crossover_summary_fig1b():
    # fig1b's summary is the tau* table: no crossover curve is solved
    src = os.path.dirname(os.path.dirname(rician_mimo.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "crossover_summary.py"), "fig1b"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    table = json.loads(proc.stdout)["tau_star_by_snr"]
    specs = preset_specs("fig1b")
    assert sorted(table) == sorted(spec.scenario_id for spec in specs)
    for spec in specs:
        taus = list(table[spec.scenario_id].values())
        assert len(taus) == len(spec.snr_grid_db) == 9
        assert all(isinstance(tau, int) and spec.k <= tau < spec.t for tau in taus)
