"""Acceptance gate: the README's criteria, checked at paper scale.

Each scenario gets one module-scoped Monte Carlo run, which every criterion
reading it shares.  A criterion the program does not meet yet is marked
`xfail(strict=True)` with its measured gap, so the mark turns into a failure
the moment the program meets it.

The DE-vs-MC settings are those of `scripts/compare_de_vs_mc.py --trials
1000`: N=150, K=20, T=500, seed 3, kappa_max 2, tau = K, the default SNR
grid and placement.  The N-convergence criterion runs one cell at
K = N/8 and 400 trials.  Byte-identical reproduction runs each command
twice, in fresh interpreters with different hash seeds.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import rician_mimo
from rician_mimo.scenarios import ScenarioSpec, build_scenario
from rician_mimo.spectral_efficiency import conventional_mc
from rician_mimo.sweeps import conv_de_per_bs

TRIALS = 1000
SEED = 3
DE_VS_MC_TOLERANCE = 0.05


def _plain_de_gap(gap: str) -> pytest.MarkDecorator:
    return pytest.mark.xfail(
        strict=True,
        reason=f"the plain DE on one_ring is {gap} off MC for its worst user (ROADMAP item 2)",
    )


@pytest.fixture(
    scope="module",
    params=[
        pytest.param(("exponential", "single_cell"), id="exponential-single_cell"),
        pytest.param(("exponential", "three_cell_edge"), id="exponential-three_cell_edge"),
        pytest.param(("one_ring", "single_cell"), id="one_ring-single_cell", marks=_plain_de_gap("18.9%")),
        pytest.param(
            ("one_ring", "three_cell_edge"), id="one_ring-three_cell_edge", marks=_plain_de_gap("557%")
        ),
    ],
)
def conventional_curves(request):
    """(MC, DE) conventional SE, each (SNR point, BS, user), of one scenario."""
    correlation, layout = request.param
    cells = 3 if layout == "three_cell_edge" else 1
    spec = ScenarioSpec(
        layout=layout, l=cells, n=150, k=20, t=500, kappa_max=2.0,
        correlation=correlation, seed=SEED, trials=TRIALS,
    )
    scenario = build_scenario(spec)
    configs = [spec.system_config(snr) for snr in spec.snr_grid_db]
    mc, _ = conventional_mc(scenario.profiles, configs, TRIALS, SEED)
    return mc, conv_de_per_bs(scenario, configs)


def test_conventional_de_within_five_percent_of_mc_for_every_user(conventional_curves):
    # every user at every SNR point, relative to the DE
    mc, de = conventional_curves
    gap = np.abs(mc - de) / de
    assert gap.max() <= DE_VS_MC_TOLERANCE, f"worst per-user gap {gap.max():.1%}"


def _user_mean_gap(correlation: str, n: int) -> float:
    """Largest gap between the user means of the MC and the DE over 0, 10
    and 20 dB, relative to the DE: one cell, K = N/8, tau = K, 400 trials
    with common random numbers across the three points."""
    spec = ScenarioSpec(n=n, k=n // 8, t=500, kappa_max=2.0, correlation=correlation, seed=SEED, trials=400)
    scenario = build_scenario(spec)
    configs = [spec.system_config(snr) for snr in (0.0, 10.0, 20.0)]
    mc = conventional_mc(scenario.profiles, configs, 400, SEED)[0].mean(axis=-1)
    de = conv_de_per_bs(scenario, configs).mean(axis=-1)
    return float(np.max(np.abs(mc - de) / de))


def _no_convergence(gaps: str) -> pytest.MarkDecorator:
    return pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=f"the production conventional DE's user-mean gap does not shrink with N: {gaps} (ROADMAP item 2)",
    )


@pytest.mark.parametrize(
    "correlation",
    [
        pytest.param("one_ring", marks=_no_convergence("7.56% at N=32, 9.37% at N=256")),
        pytest.param("exponential", marks=_no_convergence("0.33% at N=32, 0.39% at N=256")),
    ],
)
def test_conventional_de_converges_to_mc_with_n(correlation):
    # a large-N equivalent's error shrinks with N: below 1% at N=256, and at
    # most half of the N=32 gap
    gap_32, gap_256 = _user_mean_gap(correlation, 32), _user_mean_gap(correlation, 256)
    assert gap_256 < 0.01, f"N=256 gap {gap_256:.2%}"
    assert gap_256 <= 0.5 * gap_32, f"N=32 gap {gap_32:.2%}, N=256 gap {gap_256:.2%}"


REPRODUCED_SCENARIO = "correlation = one_ring\nn = 150\nk = 20\nt = 500\nseed = 3\ntrials = 16\n"


def _fresh_run(argv: list[str], out: str, hash_seed: str) -> tuple[bytes, bytes]:
    """(rows, stdout) of one `python -m rician_mimo.cli` run in a new interpreter."""
    src = os.path.dirname(os.path.dirname(rician_mimo.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "rician_mimo.cli", *argv, "--out", out],
        env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    with open(out, "rb") as fh:
        return fh.read(), proc.stdout


@pytest.mark.parametrize("preset", [None, "fig1b"], ids=["simulate-one_ring-single_cell", "reproduce-fig1b"])
def test_reproduction_is_byte_identical(tmp_path, preset):
    # a paper-scale one-ring Monte Carlo (16 trials, default grid) and the
    # fig1b preset: rows and summary the same bytes in two fresh interpreters
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(REPRODUCED_SCENARIO)
    argv = ["reproduce", "--figure", preset] if preset else ["simulate", "--scenario", str(scenario)]
    first, second = (_fresh_run(argv, str(tmp_path / f"rows{seed}.csv"), seed) for seed in ("0", "1"))
    assert first[0] and first == second
