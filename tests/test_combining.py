import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rician_mimo.channel import build_profile, exponential_correlation, los_steering
from rician_mimo.combining import conventional_combiner, statistical_combiner


def random_estimates(n, k, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / math.sqrt(2)


def regularized_inverse(reg, rho):
    """M = (A + (N/rho) I)^{-1}, the combiner's regularizer at one SNR."""
    n = len(reg)
    return np.linalg.inv(reg + (n / rho) * np.eye(n))


def sinr_of(g, h_all, k, noise_cov):
    sig = np.abs(g.conj() @ h_all[:, k]) ** 2
    interf = sum(
        np.abs(g.conj() @ h_all[:, i]) ** 2 for i in range(h_all.shape[1]) if i != k
    )
    return sig / (interf + np.real(g.conj() @ noise_cov @ g))


# ---------------------------------------------------------------------------
# conventional combiner


def test_conventional_solves_linear_system():
    n, k = 12, 4
    est = random_estimates(n, k)
    reg = 0.3 * np.eye(n)
    rho = 2.0
    combo = conventional_combiner(est, regularized_inverse(reg, rho))
    mat = est @ est.conj().T + reg + (n / rho) * np.eye(n)
    residual = mat @ combo - est
    assert np.max(np.abs(residual)) < 1e-8


def test_conventional_single_user_direction():
    # K = 1, no regularizer: g is parallel to the estimate
    n = 8
    est = random_estimates(n, 1, seed=3)
    combo = conventional_combiner(est, regularized_inverse(np.zeros((n, n)), 1.0))
    g = combo[:, 0]
    cos = np.abs(g.conj() @ est[:, 0]) / (np.linalg.norm(g) * np.linalg.norm(est[:, 0]))
    assert cos == pytest.approx(1.0, abs=1e-12)


def test_conventional_maximizes_rayleigh_quotient():
    # the regularized combiner maximizes the SINR whose interference covariance
    # equals the inverted matrix minus the desired user's outer product; check
    # against 100 random perturbations
    n, k = 10, 5
    est = random_estimates(n, k, seed=11)
    reg = 0.5 * np.eye(n) + 0.1 * np.ones((n, n))
    rho = 4.0
    combo = conventional_combiner(est, regularized_inverse(reg, rho))
    others = np.delete(est, 2, axis=1)
    noise_cov = others @ others.conj().T + reg + (n / rho) * np.eye(n)
    g_star = combo[:, 2]

    # direct Rayleigh quotient: |g^H h|^2 / g^H B g with B = noise_cov
    def quotient(g):
        return np.abs(g.conj() @ est[:, 2]) ** 2 / np.real(g.conj() @ noise_cov @ g)

    base = quotient(g_star)
    rng = np.random.default_rng(99)
    for _ in range(100):
        pert = g_star + 0.01 * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        assert quotient(pert) <= base + 1e-12


def test_conventional_scale_invariance_of_quotient():
    n, k = 6, 3
    est = random_estimates(n, k, seed=5)
    combo = conventional_combiner(est, regularized_inverse(np.eye(n), 1.0))
    g = combo[:, 0]
    noise_cov = np.eye(n)
    assert sinr_of(3.7 * g, est, 0, noise_cov) == pytest.approx(
        sinr_of(g, est, 0, noise_cov), rel=1e-12
    )


def test_conventional_rejects_nonfinite():
    n = 4
    est = random_estimates(n, 2)
    est[0, 0] = np.nan
    with pytest.raises((ValueError, np.linalg.LinAlgError)):
        conventional_combiner(est, regularized_inverse(np.eye(n), 1.0))


def _regularizer(n, rank, seed):
    b = random_estimates(n, rank, seed=seed)
    return b @ b.conj().T / max(rank, 1)


@pytest.mark.parametrize(
    "n, k, rank",
    [(150, k, rank) for k in (20, 149) for rank in (0, 30, 150)] + [(8, 3, 8)],
)
@pytest.mark.parametrize("rho", [0.1, 1e4, 1e5])
def test_conventional_backward_error_at_hard_corners(n, k, rank, rho):
    # normwise backward error of each column against the defining N x N
    # system, down to noise loadings N/rho far below the regularizer's scale
    est = random_estimates(n, k, seed=rank + k)
    reg = _regularizer(n, rank, seed=7)
    g = conventional_combiner(est, regularized_inverse(reg, rho))
    mat = est @ est.conj().T + reg + (n / rho) * np.eye(n)
    residual = np.linalg.norm(mat @ g - est, axis=0)
    backward = residual / (np.linalg.norm(mat, 2) * np.linalg.norm(g, axis=0))
    assert np.max(backward) <= 1e-11


# ---------------------------------------------------------------------------
# statistical combiner


def make_profiles(n, k, kappas, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(k):
        angle = rng.uniform(-math.pi / 2, math.pi / 2)
        out.append(
            build_profile(
                rng.uniform(0.5, 2.0),
                kappas[i],
                exponential_correlation(0.3, n),
                los_steering(angle, n),
            )
        )
    return out


def test_statistical_matches_direct_per_user_inverse():
    # the LoS-resolvent columns u_k / m_k equal the per-user matrix inverse
    # that excludes the served user's own LoS outer product
    n, k = 16, 4
    profiles = make_profiles(n, k, [2.0, 1.0, 3.0, 0.5], seed=1)
    rho = 5.0
    combo = statistical_combiner(profiles, rho)
    h_bar = np.column_stack([p.h_bar for p in profiles])
    r_sum = sum(p.r_cov for p in profiles)
    for u in range(k):
        others = np.delete(h_bar, u, axis=1)
        mat = r_sum + others @ others.conj().T + (n / rho) * np.eye(n)
        direct = np.linalg.solve(mat, h_bar[:, u])
        ratio = combo[:, u] / direct
        # direction must match exactly; scaling is irrelevant for SINR
        assert np.allclose(ratio, ratio[0], atol=1e-9)


def test_statistical_zero_for_rayleigh_user():
    n, k = 8, 3
    profiles = make_profiles(n, k, [0.0, 2.0, 1.0], seed=2)
    combo = statistical_combiner(profiles, 1.0)
    assert np.linalg.norm(combo[:, 0]) == 0.0
    assert np.linalg.norm(combo[:, 1]) > 0.0


def test_statistical_deterministic():
    n, k = 8, 3
    profiles = make_profiles(n, k, [1.0, 1.0, 1.0], seed=3)
    a = statistical_combiner(profiles, 2.0)
    b = statistical_combiner(profiles, 2.0)
    assert np.array_equal(a, b)


@settings(max_examples=15, deadline=None)
@given(rho=st.floats(0.05, 100.0), seed=st.integers(0, 50))
def test_statistical_vectors_finite(rho, seed):
    profiles = make_profiles(6, 3, [1.0, 4.0, 0.2], seed=seed)
    combo = statistical_combiner(profiles, rho)
    assert np.all(np.isfinite(combo))
