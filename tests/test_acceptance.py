"""Acceptance gate: the README's criteria, checked at paper scale.

Each scenario gets one module-scoped Monte Carlo run, which every criterion
reading it shares.  A criterion the program does not meet yet is marked
`xfail(strict=True)` with its measured gap, so the mark turns into a failure
the moment the program meets it.

The DE-vs-MC settings are those of `scripts/compare_de_vs_mc.py --trials
1000`: N=150, K=20, T=500, seed 3, kappa_max 2, tau = K, the default SNR
grid and placement.  The N-convergence criterion runs one cell at
K = N/8 and 400 trials.  The favorable-propagation criterion runs N=150,
K=20, T=500, tau = K and the default grid, with orthogonal DFT LoS and
white scattering.  The derivative checks run N=150, K=20, T=500, seed 3,
kappa_max 2 and the default grid on both families, at tau = 20, 50, 150 and
400.  Byte-identical reproduction runs each command twice, in fresh
interpreters with different hash seeds.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import rician_mimo
from rician_mimo.asymptotics import _plain_state, se_conv_expanded, se_conv_favorable, se_conv_multicell_de
from rician_mimo.scenarios import ScenarioSpec, build_scenario
from rician_mimo.spectral_efficiency import conventional_mc
from rician_mimo.sweeps import conv_de_per_bs
from rician_mimo.training import TrainingCurve

TRIALS = 1000
SEED = 3
DE_VS_MC_TOLERANCE = 0.05
FAVORABLE_TOLERANCE = 1e-10
# A step study of central differences and Richardson pairs, h from 1e-6 tau
# to 1e-1 tau, chose the Richardson pair h = 1e-2 tau and h/2.  Its worst
# relative gaps were 6.9e-7 (7.6e-7 with BLAS on every core) for gamma',
# round-off: gamma reaches 2e4 at 30 dB where gamma' is 1e-6, and no step
# did better than 3.3e-7; and 1.1e-8 for the SE derivative, the O(h^4)
# truncation.  A central difference at 1e-4 tau gave 2.8e-5 and 6.4e-8.
DERIVATIVE_STEP = 1e-2
GAMMA_PRIME_TOLERANCE = 2e-6
SE_DERIVATIVE_TOLERANCE = 2e-8


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


@pytest.mark.parametrize("layout", ["single_cell", "three_cell_edge"])
def test_favorable_propagation_corollaries_at_1e_10(layout):
    # under orthogonal LoS and white scattering the general equivalent without
    # its estimation-error quadratic (plain state) is, in one cell, the
    # interference-free corollary and, in three cells whose inter-cell links
    # carry no LoS, the published expanded form.  The small-scale units are
    # test_asymptotics.py::test_favorable_corollary_equals_theorem_under_orthogonal_los
    # and ::test_multicell_theorem_matches_expanded_under_orthogonal_los
    cells = 3 if layout == "three_cell_edge" else 1
    spec = ScenarioSpec(
        layout=layout, l=cells, n=150, k=20, t=500, kappa_max=2.0,
        correlation="identity", los="dft", seed=SEED,
    )
    scenario = build_scenario(spec)
    for config in (spec.system_config(snr) for snr in spec.snr_grid_db):
        for bs in scenario.profiles:
            state = _plain_state(bs, config)
            theorem = se_conv_multicell_de(state, config, include_estimation_error=False)
            if cells == 1:
                corollary = se_conv_favorable(bs, config)
            else:
                corollary, contam, _ = se_conv_expanded(state, config)
                assert np.all(contam > 0)
            gap = np.max(np.abs(theorem - corollary))
            assert gap <= FAVORABLE_TOLERANCE, f"{config.snr_data:g}: worst gap {gap:.2e}"


def _richardson(f, tau: float, h: float) -> float:
    """The derivative of f at tau from central differences at steps h and
    h/2, extrapolated to O(h^4)."""

    def central(step):
        return (f(tau + step) - f(tau - step)) / (2 * step)

    return (4 * central(h / 2) - central(h)) / 3


@pytest.mark.parametrize("correlation", ["one_ring", "exponential"])
def test_training_derivatives_match_finite_differences(correlation):
    # gamma' and the SE derivative whose root is tau*, against finite
    # differences of gamma and of the average SE.  The small-scale units
    # are test_training.py::test_gamma_prime_matches_finite_difference and
    # ::test_se_derivative_matches_finite_difference
    spec = ScenarioSpec(n=150, k=20, t=500, kappa_max=2.0, correlation=correlation, seed=SEED)
    curve = TrainingCurve(build_scenario(spec).local_profiles(0))
    for config in (spec.system_config(snr) for snr in spec.snr_grid_db):
        for tau in (20.0, 50.0, 150.0, 400.0):
            h = DERIVATIVE_STEP * tau
            fd = _richardson(lambda x: curve.gamma(x, config), tau, h)
            gap = np.max(np.abs(curve.gamma_prime(tau, config) - fd) / np.maximum(np.abs(fd), 1e-12))
            assert gap < GAMMA_PRIME_TOLERANCE, f"{config.snr_data:g}, tau {tau:g}: gamma' gap {gap:.2e}"
            fd = _richardson(lambda x: curve.avg_se(x, config), tau, h)
            assert curve.se_derivative(tau, config) == pytest.approx(fd, rel=SE_DERIVATIVE_TOLERANCE, abs=1e-12)


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
