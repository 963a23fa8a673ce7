import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import toeplitz
from scipy.special import j0

from rician_mimo.channel import (
    ChannelModelError,
    ScenarioGeometry,
    UserLinkProfile,
    antenna_image,
    build_profile,
    dft_steering,
    drop_users,
    exponential_correlation,
    los_steering,
    one_ring_correlation,
    one_ring_first_row,
    pathloss,
    real_basis,
    real_image,
    row_spectrum,
    toeplitz_image,
)
from rician_mimo.scenarios import MIN_ANGULAR_SPREAD


# ---------------------------------------------------------------------------
# one-ring correlation


def test_one_ring_unit_diagonal():
    theta = one_ring_correlation(-math.pi, -0.3, 4)
    assert np.allclose(np.diag(theta), 1.0)


def test_one_ring_hermitian():
    theta = one_ring_correlation(-1.0, 2.0, 6)
    assert np.max(np.abs(theta - theta.conj().T)) < 1e-12


def test_one_ring_against_quadrature_oracle():
    # independent adaptive quadrature of the defining integral
    lo, hi = -math.pi, 0.0
    theta = one_ring_correlation(lo, hi, 2)

    def integrand_re(t):
        return math.cos(math.pi * math.cos(t)) / (hi - lo)

    def integrand_im(t):
        return math.sin(math.pi * math.cos(t)) / (hi - lo)

    re, _ = quad(integrand_re, lo, hi, epsabs=1e-12)
    im, _ = quad(integrand_im, lo, hi, epsabs=1e-12)
    # entry (1, 2) integrates exp(+j*pi*cos(theta)) (v - u = 1)
    assert theta[0, 1].real == pytest.approx(re, abs=1e-10)
    assert theta[0, 1].imag == pytest.approx(im, abs=1e-10)
    # real part is the order-0 Bessel value by the cosine-kernel identity
    assert theta[0, 1].real == pytest.approx(j0(math.pi), abs=1e-10)


# (lo, hi) windows; the wide ones span about 2*pi, where 600 lags oscillate
# faster than a fixed 2048-node rule resolves
NARROW_WINDOWS = [
    (-math.pi, -math.pi + MIN_ANGULAR_SPREAD),
    (-math.pi, -math.pi + 0.3),
    (-2.0, -0.5),
    (-math.pi, -1e-3),
]
WIDE_WINDOWS = [(-math.pi, math.pi - 1e-3), (-3.0, 2 * math.pi - 3.2)]


def composite_gauss_legendre_row(lo, hi, n, spacing, panels=1024, order=24):
    """First row of the one-ring matrix: `panels` equal panels of an
    `order`-node Gauss-Legendre rule, one cosine and sine per (lag, node)."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    angles = ((0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * x).ravel()
    weights = (half[:, None] * w).ravel() / (hi - lo)
    row = np.zeros(n, dtype=complex)
    for a, wt in zip(np.array_split(angles, 16), np.array_split(weights, 16)):
        phase = 2.0 * np.pi * spacing * np.outer(np.arange(n), np.cos(a))
        row += np.cos(phase) @ wt + 1j * (np.sin(phase) @ wt)
    return row


@pytest.mark.parametrize("spacing", [0.5, 1.0])
@pytest.mark.parametrize("n", [1, 2, 8, 150, 151, 600])
def test_one_ring_matches_direct_exponential_quadrature(n, spacing):
    # 1024 panels x 24 nodes agrees with 1536 x 20 to 1.1e-14 at these sizes
    windows = WIDE_WINDOWS if n > 151 else NARROW_WINDOWS + WIDE_WINDOWS
    for lo, hi in windows:
        row = composite_gauss_legendre_row(lo, hi, n, spacing)
        expected = toeplitz(np.conj(row), row)
        np.fill_diagonal(expected, 1.0)
        got = one_ring_correlation(lo, hi, n, spacing)
        assert np.max(np.abs(got - expected)) <= 1e-13, (lo, hi)


def test_one_ring_degenerate_window_rejected():
    with pytest.raises(ChannelModelError):
        one_ring_correlation(0.5, 0.5, 4)


@settings(max_examples=25, deadline=None)
@given(
    lo=st.floats(-math.pi, math.pi - 0.05),
    width=st.floats(0.05, 2 * math.pi),
    n=st.integers(1, 24),
)
def test_one_ring_psd_property(lo, width, n):
    theta = one_ring_correlation(lo, lo + width, n)
    assert np.max(np.abs(theta - theta.conj().T)) < 1e-12
    ev = np.linalg.eigvalsh(theta)
    assert ev[0] > -1e-10
    # bounded spectral norm: at most n for a unit-diagonal PSD matrix
    assert ev[-1] <= n + 1e-8


# ---------------------------------------------------------------------------
# exponential correlation


def test_exponential_rho_zero_is_identity():
    assert np.array_equal(exponential_correlation(0.0, 5), np.eye(5))


def test_exponential_first_row():
    theta = exponential_correlation(0.5, 3)
    assert np.allclose(theta[0], [1.0, 0.5, 0.25])


def test_exponential_psd_at_high_rho():
    ev = np.linalg.eigvalsh(exponential_correlation(0.9, 8))
    assert ev[0] > 0


def test_exponential_complex_rho_hermitian():
    theta = exponential_correlation(0.4 + 0.3j, 6)
    assert np.max(np.abs(theta - theta.conj().T)) < 1e-12
    assert np.allclose(np.diag(theta), 1.0)


def test_exponential_rejects_unit_rho():
    with pytest.raises(ChannelModelError):
        exponential_correlation(1.0, 4)


# ---------------------------------------------------------------------------
# steering vectors and pathloss


def test_steering_broadside_all_ones():
    assert np.allclose(los_steering(0.0, 5), np.ones(5))


def test_steering_endfire_alternates():
    assert np.allclose(los_steering(math.pi / 2, 4), [1, -1, 1, -1])


def test_steering_norm():
    z = los_steering(0.7, 33)
    assert np.linalg.norm(z) ** 2 == pytest.approx(33, abs=1e-12)


def test_dft_steering_orthogonal():
    n = 16
    cols = np.column_stack([dft_steering(i, n) for i in range(4)])
    gram = cols.conj().T @ cols
    assert np.allclose(gram, n * np.eye(4), atol=1e-10)


def test_pathloss_values():
    assert pathloss(1.0, 2.5) == pytest.approx(1.0)
    assert pathloss(10.0, 2.5) == pytest.approx(10 ** (-2.5))
    assert pathloss(150.0, 2.5) == pytest.approx(150 ** (-2.5))


def test_pathloss_rejects_nonpositive():
    with pytest.raises(ChannelModelError):
        pathloss(0.0, 2.5)


# ---------------------------------------------------------------------------
# real basis of centro-Hermitian matrices


def _correlation(family, n):
    if family == "one_ring":
        return one_ring_correlation(-math.pi, -2.0, n)
    if family == "exponential":
        return exponential_correlation(0.6 * np.exp(0.7j), n)
    return np.eye(n, dtype=complex)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 150, 151])
@pytest.mark.parametrize("family", ["one_ring", "exponential", "identity"])
def test_real_image_of_every_correlation_family(family, n):
    theta = _correlation(family, n)
    scale = np.abs(theta).max()
    # Q^H Theta Q from the vector map alone: Q^H Theta, then times Q
    left = real_basis(theta.T).T
    image = np.conj(real_basis(np.conj(left)))
    assert np.abs(image.imag).max() <= 1e-15 * scale
    real = real_image(theta)
    assert real.dtype == np.float64 and np.array_equal(real, image.real)
    assert np.abs(antenna_image(real) - theta).max() <= 1e-15 * scale
    # the image from the first row alone (Toeplitz and Hankel blocks)
    from_row = toeplitz_image(theta[0])
    assert np.array_equal(from_row, from_row.T)
    assert np.abs(from_row - real).max() <= 1e-15 * scale
    if family == "one_ring":
        assert np.array_equal(toeplitz_image(one_ring_first_row(-math.pi, -2.0, n)), from_row)
    lam = np.linalg.eigvalsh(theta)
    assert np.abs(np.linalg.eigvalsh(real) - lam).max() <= 1e-13 * lam[-1]


@pytest.mark.parametrize("n", [1, 2, 7, 8, 150, 151])
@pytest.mark.parametrize("family", ["one_ring", "exponential", "identity"])
def test_sqrt_r_image_squares_to_r_image(family, n):
    # the Gram product (V lam^{1/4})(V lam^{1/4})^T is exactly symmetric,
    # and its square is the covariance image up to rounding
    p = build_profile(2.3, 1.0, _correlation(family, n), los_steering(0.3, n))
    root, r = p.sqrt_r_image, p.r_image
    assert np.array_equal(root, root.T)
    assert np.abs(root @ root - r).max() <= n * np.finfo(float).eps * np.linalg.norm(r, 2)


def test_real_image_rejects_hermitian_non_toeplitz():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    theta = a @ a.conj().T / 6  # Hermitian PSD, not centro-Hermitian
    with pytest.raises(ChannelModelError):
        real_image(theta)
    with pytest.raises(ChannelModelError):
        build_profile(1.0, 1.0, theta, los_steering(0.0, 6))


# ---------------------------------------------------------------------------
# profiles


def test_profile_rayleigh_has_zero_mean():
    p = build_profile(2.0, 0.0, np.eye(4, dtype=complex), los_steering(0.3, 4))
    assert np.allclose(p.h_bar, 0.0)
    assert np.allclose(p.r_cov, 2.0 * np.eye(4))


def test_profile_large_kappa_limit():
    n = 4
    p = build_profile(2.0, 1e12, np.eye(n, dtype=complex), los_steering(0.3, n))
    assert np.linalg.norm(p.r_cov, 2) <= 2.0 * 1e-11
    assert np.linalg.norm(p.h_bar) ** 2 == pytest.approx(n * 2.0, rel=1e-9)


def test_profile_unit_kappa_split():
    n = 6
    p = build_profile(2.0, 1.0, np.eye(n, dtype=complex), los_steering(0.1, n))
    assert np.allclose(p.r_cov, np.eye(n))
    assert np.linalg.norm(p.h_bar) ** 2 == pytest.approx(n)


@settings(max_examples=20, deadline=None)
@given(beta=st.floats(0.01, 10.0), kappa=st.floats(0.0, 50.0))
def test_profile_power_identity(beta, kappa):
    # scattered + specular powers always add up to beta per antenna
    n = 5
    p = build_profile(beta, kappa, np.eye(n, dtype=complex), los_steering(0.2, n))
    total = np.real(np.trace(p.r_cov)) / n + np.linalg.norm(p.h_bar) ** 2 / n
    assert total == pytest.approx(beta, rel=1e-12)


def test_intercell_profile_has_no_los():
    p = build_profile(0.5, 3.0, np.eye(4, dtype=complex), los_steering(0.3, 4), is_local=False)
    assert np.allclose(p.h_bar, 0.0)
    assert np.allclose(p.r_cov, 0.5 * np.eye(4))  # kappa only weights local links


def test_profile_rejects_indefinite_theta():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)  # Hermitian Toeplitz, eigenvalues -1, 3
    with pytest.raises(ChannelModelError, match="not PSD"):
        build_profile(1.0, 1.0, bad, los_steering(0.0, 2))


@pytest.mark.parametrize("n", [6, 7])
def test_profile_rejects_centro_hermitian_non_toeplitz_theta(n):
    # I + 0.1 J is centro-Hermitian with a real image and PSD, but its first
    # row does not fix it: a link keeps only that row, so it is refused
    theta = (np.eye(n) + 0.1 * np.eye(n)[::-1]).astype(complex)
    real_image(theta)
    with pytest.raises(ChannelModelError, match="Toeplitz"):
        build_profile(1.0, 1.0, theta, los_steering(0.0, n))


# ---------------------------------------------------------------------------
# sampling


def test_sample_channel_moments():
    n = 6
    theta = one_ring_correlation(-math.pi, -1.0, n)
    p = build_profile(1.5, 0.8, theta, los_steering(0.4, n))
    rng = np.random.default_rng(123)
    draws = 100_000
    z = (rng.standard_normal((draws, n)) + 1j * rng.standard_normal((draws, n))) / math.sqrt(2)
    h = p.h_bar[None, :] + z @ p.sqrt_r.T
    mean = h.mean(axis=0)
    # per-entry std of the mean estimate
    sigma = np.sqrt(np.real(np.diag(p.r_cov)) / draws)
    assert np.all(np.abs(mean - p.h_bar) < 5 * sigma)
    centered = h - p.h_bar[None, :]
    emp_cov = centered.conj().T @ centered / draws
    assert np.linalg.norm(emp_cov.T - p.r_cov) < 5 * np.linalg.norm(p.r_cov) / math.sqrt(draws) * n


# ---------------------------------------------------------------------------
# user drops


def test_drop_users_uniform_within_annulus():
    geo = drop_users(np.zeros((1, 2)), 150.0, 50, "uniform_disk", np.random.default_rng(1))
    d = np.linalg.norm(geo.user_positions[0], axis=1)
    assert np.all(d >= 1.0 - 1e-9)
    assert np.all(d <= 150.0 + 1e-9)


def test_drop_users_reproducible():
    a = drop_users(np.zeros((1, 2)), 150.0, 1, "uniform_disk", np.random.default_rng(7))
    b = drop_users(np.zeros((1, 2)), 150.0, 1, "uniform_disk", np.random.default_rng(7))
    assert np.array_equal(a.user_positions, b.user_positions)


def test_drop_users_cell_edge_distance():
    centers = np.array([[0.0, 0.0], [300.0, 0.0], [150.0, 260.0]])
    geo = drop_users(centers, 150.0, 10, "cell_edge", np.random.default_rng(3))
    for j in range(3):
        d = np.linalg.norm(geo.user_positions[j] - centers[j], axis=1)
        assert np.all(np.abs(d - 0.95 * 150.0) < 0.1 * 150.0)


def test_drop_users_unknown_placement():
    with pytest.raises(ChannelModelError):
        drop_users(np.zeros((1, 2)), 150.0, 3, "grid", np.random.default_rng(0))


def _link(beta=1.0, kappa=1.0, los_len=4):
    theta_eig = row_spectrum(np.eye(4, dtype=complex)[0])
    return UserLinkProfile(beta, kappa, theta_eig, los_steering(0.3, los_len))


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: one_ring_first_row(-1.0, 1.0, 0), "n must be >= 1"),
        (lambda: los_steering(0.3, 0), "n must be >= 1"),
        (lambda: _link(beta=0.0), "beta must be positive"),
        (lambda: _link(kappa=-0.1), "kappa must be non-negative"),
        (lambda: _link(los_len=3), "los_dir must have length N"),
        (lambda: build_profile(1.0, 1.0, np.eye(4, 3, dtype=complex), los_steering(0.3, 4)),
         "theta must be N x N"),
        (lambda: ScenarioGeometry(np.zeros((1, 2)), np.zeros((1, 1, 2))).distance(0, 0, 0),
         "distance must be positive"),
        (lambda: drop_users(np.zeros((1, 2)), 150.0, 0, "uniform_disk", np.random.default_rng(0)),
         "at least one user"),
        (lambda: drop_users(np.zeros((1, 2)), 0.0, 3, "uniform_disk", np.random.default_rng(0)),
         "cell_radius must be positive"),
    ],
    ids=["ring-n", "steering-n", "beta", "kappa", "los-length", "theta-shape", "distance",
         "no-users", "radius"],
)
def test_channel_inputs_out_of_range_rejected(make, match):
    with pytest.raises(ChannelModelError, match=match):
        make()
