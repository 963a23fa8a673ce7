import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rician_mimo.channel import (
    build_profile,
    exponential_correlation,
    los_steering,
    one_ring_correlation,
)
from rician_mimo.config import SystemConfig
from rician_mimo.training import (
    TrainingCurve,
    gamma_of_tau,
    gamma_prime,
    kappa_threshold,
    solve_tau_star,
)


def make_config(k=4, t=200, snr_data=2.0, snr_training=2.0):
    return SystemConfig(
        n_antennas=32,
        n_users=k,
        n_cells=1,
        coherence_len=t,
        training_len=k,
        snr_data=snr_data,
        snr_training=snr_training,
    )


def white_profiles(n, k, beta=1.0, kappa=1.0, seed=0):
    rng = np.random.default_rng(seed)
    return [
        build_profile(beta, kappa, np.eye(n, dtype=complex), los_steering(rng.uniform(-1, 1), n))
        for _ in range(k)
    ]


def correlated_profiles(n, k, kappa=1.0, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(k):
        theta = one_ring_correlation(-math.pi, rng.uniform(-2.0, 0.5), n)
        out.append(
            build_profile(rng.uniform(0.5, 1.5), kappa, theta, los_steering(rng.uniform(-1, 1), n))
        )
    return out


# ---------------------------------------------------------------------------
# gamma closed form for the single-user white case


def test_gamma_single_user_closed_form():
    n, beta, kappa = 32, 1.4, 2.0
    rho_d, rho_tr, tau = 3.0, 1.5, 10.0
    p = build_profile(beta, kappa, np.eye(n, dtype=complex), los_steering(0.3, n))
    cfg = make_config(k=1, snr_data=rho_d, snr_training=rho_tr)
    c = beta / (1.0 + kappa)
    s = 1.0 / (tau * rho_tr)
    expected = rho_d * (beta * kappa / (1.0 + kappa) + c**2 / (c + s))
    gam = gamma_of_tau([p], cfg, tau)
    assert gam[0] == pytest.approx(expected, rel=1e-10)


def test_gamma_increasing_in_tau():
    profiles = correlated_profiles(32, 4, seed=1)
    cfg = make_config()
    g1 = gamma_of_tau(profiles, cfg, 4.0)
    g2 = gamma_of_tau(profiles, cfg, 40.0)
    assert np.all(g2 > g1)


def test_gamma_rejects_nonpositive_tau():
    profiles = white_profiles(32, 2)
    with pytest.raises(ValueError):
        gamma_of_tau(profiles, make_config(k=2), 0.0)
    with pytest.raises(ValueError):
        gamma_prime(profiles, make_config(k=2), -1.0)


# ---------------------------------------------------------------------------
# analytic derivatives against central finite differences


@pytest.mark.parametrize("kappa", [0.0, 1.0, 8.0])
def test_gamma_prime_matches_finite_difference(kappa):
    profiles = correlated_profiles(32, 4, kappa=kappa, seed=2)
    cfg = make_config(snr_data=5.0, snr_training=2.0)
    curve = TrainingCurve(profiles, cfg)
    for tau in (4.0, 10.0, 50.0, 150.0):
        h = 1e-4 * tau
        fd = (curve.gamma(tau + h) - curve.gamma(tau - h)) / (2 * h)
        ana = curve.gamma_prime(tau)
        assert np.max(np.abs(ana - fd) / np.maximum(np.abs(fd), 1e-12)) < 1e-5


def test_gamma_second_matches_finite_difference():
    profiles = correlated_profiles(32, 3, seed=3)
    cfg = make_config(k=3)
    curve = TrainingCurve(profiles, cfg)
    for tau in (6.0, 30.0, 120.0):
        h = 1e-3 * tau
        fd = (curve.gamma_prime(tau + h) - curve.gamma_prime(tau - h)) / (2 * h)
        ana = curve.gamma_second(tau)
        assert np.max(np.abs(ana - fd) / np.maximum(np.abs(fd), 1e-12)) < 1e-4


def test_se_derivative_matches_finite_difference():
    profiles = correlated_profiles(32, 4, seed=4)
    cfg = make_config()
    curve = TrainingCurve(profiles, cfg)
    for tau in (5.0, 40.0, 180.0):
        h = 1e-4 * tau
        fd = (curve.avg_se(tau + h) - curve.avg_se(tau - h)) / (2 * h)
        assert curve.se_derivative(tau) == pytest.approx(fd, rel=1e-5, abs=1e-12)


def test_d_alpha_diag_closed_form_white():
    n, beta, kappa = 16, 1.0, 1.0
    p = build_profile(beta, kappa, np.eye(n, dtype=complex), los_steering(0.1, n))
    cfg = make_config(k=1, snr_training=2.0)
    curve = TrainingCurve([p], cfg)
    tau = 12.0
    c = beta / (1.0 + kappa)
    s = 1.0 / (tau * cfg.snr_training)
    for alpha in (1, 2, 3):
        expected = ((-1.0) ** alpha) / (cfg.snr_training * tau**alpha) * (c / (c + s)) ** alpha
        assert curve.d_alpha_diag(tau, alpha)[0] == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# tau* solver


def test_tau_star_boundary_at_huge_kappa():
    # pure LoS: training adds nothing, so tau* = K exactly
    profiles = white_profiles(32, 4, kappa=1e12, seed=5)
    sol = solve_tau_star(profiles, make_config())
    assert sol.tau_star == 4
    assert sol.boundary_hit


def test_tau_star_matches_exhaustive_grid():
    cfg = make_config(k=4, t=120)
    for seed in range(6):
        profiles = correlated_profiles(32, 4, kappa=0.5, seed=seed)
        sol = solve_tau_star(profiles, cfg)
        curve = TrainingCurve(profiles, cfg)
        grid = np.array([curve.avg_se(float(tau)) for tau in range(4, 120)])
        best = int(np.argmax(grid)) + 4
        assert curve.avg_se(float(sol.tau_star)) >= grid.max() - 1e-9
        assert abs(sol.tau_star - best) <= 1 or math.isclose(
            curve.avg_se(float(sol.tau_star)), grid.max(), rel_tol=1e-9
        )


def test_tau_star_low_snr_approaches_half_coherence():
    # vanishing SNR: the optimum tends to max(K, T/2)
    profiles = white_profiles(32, 4, kappa=0.0, seed=6)
    cfg = make_config(k=4, t=200, snr_data=1e-5, snr_training=1e-5)
    sol = solve_tau_star(profiles, cfg)
    assert abs(sol.tau_continuous - 100.0) / 100.0 < 0.02


def test_tau_star_rejects_k_ge_t():
    profiles = white_profiles(8, 4)
    cfg = make_config(k=4, t=200)
    object.__setattr__(cfg, "coherence_len", 4)
    with pytest.raises(ValueError):
        solve_tau_star(profiles, cfg)


def test_solution_reports_consistent_objective():
    profiles = correlated_profiles(32, 4, seed=7)
    cfg = make_config()
    sol = solve_tau_star(profiles, cfg)
    curve = TrainingCurve(profiles, cfg)
    assert sol.avg_se_at_star == pytest.approx(curve.avg_se(float(sol.tau_star)))
    assert 4 <= sol.tau_star < cfg.coherence_len


@settings(max_examples=10, deadline=None)
@given(
    snr_db=st.floats(-10, 20),
    kappa=st.floats(0.0, 5.0),
    seed=st.integers(0, 20),
)
def test_tau_star_beats_neighbors(snr_db, kappa, seed):
    snr = 10 ** (snr_db / 10)
    profiles = correlated_profiles(32, 4, kappa=kappa, seed=seed)
    cfg = make_config(snr_data=snr, snr_training=snr)
    sol = solve_tau_star(profiles, cfg)
    curve = TrainingCurve(profiles, cfg)
    at_star = curve.avg_se(float(sol.tau_star))
    for nb in (sol.tau_star - 1, sol.tau_star + 1):
        if 4 <= nb < cfg.coherence_len:
            assert at_star >= curve.avg_se(float(nb)) - 1e-9


# ---------------------------------------------------------------------------
# Rician-factor threshold


def test_kappa_threshold_white_value():
    n = 32
    p = build_profile(1.0, 1.0, np.eye(n, dtype=complex), los_steering(0.3, n))
    cfg = make_config(k=20, t=500)
    assert kappa_threshold(p, cfg) == pytest.approx((500 - 20) / 20)


def test_kappa_threshold_scales_with_frame():
    n = 16
    p = build_profile(1.0, 2.0, exponential_correlation(0.3, n), los_steering(0.1, n))
    short = kappa_threshold(p, make_config(k=10, t=100))
    long = kappa_threshold(p, make_config(k=10, t=1000))
    assert long > short


def test_kappa_threshold_ignores_link_locality():
    # theta is the same for a non-local link (R = beta theta) and its local
    # twin (R = beta theta / (1 + kappa)), and so is the threshold
    n = 16
    theta = exponential_correlation(0.3, n)
    local = build_profile(2.0, 1.0, theta, los_steering(0.1, n))
    remote = build_profile(2.0, 1.0, theta, los_steering(0.1, n), is_local=False)
    cfg = make_config(k=10, t=250)
    assert kappa_threshold(remote, cfg) == pytest.approx(kappa_threshold(local, cfg), rel=1e-12)
    assert kappa_threshold(local, cfg) == pytest.approx((250 - 10) / 10, rel=1e-12)
