import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmmse_oracle import dense_lmmse
from rician_mimo.channel import (
    antenna_image,
    build_profile,
    exponential_correlation,
    los_steering,
    one_ring_correlation,
    real_basis,
    real_image,
    row_spectrum,
    standard_complex_normal,
)
from rician_mimo.estimation import (
    BSStatistics,
    build_estimator_multicell,
    key_shrinkage,
    regularizer_sums,
    same_pilot_spectrum,
)


def _error_image(state):
    """Real image of a single-cell estimator's error covariance: the
    regularizer A of one user in a single cell."""
    links = [[p] for p in state.spectrum.links]
    bs = BSStatistics(links, state.local_index)
    return regularizer_sums(bs, 1, state.tau_rho)[1]


def _link_images(state):
    """Real images of R_l Phi and of R_l - R_l Phi R_l for every same-pilot
    link l, formed link by link from the estimator's real factors:
    P_l diag(f) V^T and P_l diag(f) W_l^T with W_l = (S - R_l + sI) V.  A
    decomposed group stores its P_l; a same-basis group stores none, and
    P_l = V diag(lam_l) is formed here from its links' eigenvalues."""
    sp = state.spectrum
    proj = sp.stack
    if proj is None:
        proj = [sp.eigvecs * p.r_eigvals for p in sp.links]
    gains, conds = [], []
    for ell in range(len(sp.links)):
        w = sum((proj[m] for m in range(len(sp.links)) if m != ell), sp.eigvecs / state.tau_rho)
        gains.append((proj[ell] * state.shrink) @ sp.eigvecs.T)
        cond = (proj[ell] * state.shrink) @ w.T
        conds.append(0.5 * (cond + cond.T))
    return gains, conds


def scaled_identity_profile(c, n, kappa=0.0, is_local=True):
    return build_profile(
        c * (1.0 + kappa) if is_local else c,
        kappa,
        np.eye(n, dtype=complex),
        los_steering(0.3, n),
        is_local=is_local,
    )


# ---------------------------------------------------------------------------
# closed forms for scaled-identity covariances


def test_singlecell_identity_closed_form():
    # R = c*I gives r_tilde = c^2 / (c + 1/(tau*rho)) * I, which is its own
    # real image
    c, tau, rho = 0.7, 8, 2.0
    p = scaled_identity_profile(c, 5)
    st_ = build_estimator_multicell([p], 0, tau, rho)
    expected = c**2 / (c + 1.0 / (tau * rho))
    assert np.allclose(st_.r_tilde, expected * np.eye(5), atol=1e-12)
    assert np.allclose(_error_image(st_), (c - expected) * np.eye(5), atol=1e-12)


def test_multicell_identity_closed_form():
    # three same-pilot cells with R = c*I each: contamination inflates the
    # observation covariance to 3c + 1/(tau*rho)
    c, tau, rho = 0.5, 10, 1.0
    n = 4
    profiles = [scaled_identity_profile(c, n)] + [
        scaled_identity_profile(c, n, is_local=False) for _ in range(2)
    ]
    st_ = build_estimator_multicell(profiles, 0, tau, rho)
    expected = c**2 / (3 * c + 1.0 / (tau * rho))
    assert np.allclose(st_.r_tilde, expected * np.eye(n), atol=1e-12)


def test_estimate_quality_improves_with_pilot_power():
    c, n = 1.0, 6
    p = scaled_identity_profile(c, n)
    weak = build_estimator_multicell([p], 0, 4, 0.1)
    strong = build_estimator_multicell([p], 0, 4, 100.0)
    assert np.trace(_error_image(strong)) < np.trace(_error_image(weak))
    # infinite pilot power recovers the channel: the error covariance -> 0
    perfect = build_estimator_multicell([p], 0, 4, 1e12)
    assert np.linalg.norm(_error_image(perfect)) < 1e-9


def test_rejects_nonpositive_pilot_energy():
    p = scaled_identity_profile(1.0, 3)
    with pytest.raises(ValueError):
        build_estimator_multicell([p], 0, 0, 1.0)


def test_rejects_mismatched_dimensions():
    with pytest.raises(ValueError):
        build_estimator_multicell(
            [scaled_identity_profile(1.0, 4), scaled_identity_profile(1.0, 5, is_local=False)],
            0,
            4,
            1.0,
        )


# ---------------------------------------------------------------------------
# spectral estimator against the N x N inverse: the real factors production
# applies, mapped back to the antenna basis, against `dense_lmmse`


@pytest.mark.parametrize("tau_rho", [1e-3, 1.0, 1e6])
@pytest.mark.parametrize(
    "theta",
    [
        one_ring_correlation(-math.pi, -math.pi + 0.3, 24),  # 18 of 24 eigenvalues < 1e-12 of the top
        exponential_correlation(0.7, 24),
        np.eye(24, dtype=complex),
    ],
    ids=["one_ring", "exponential", "identity"],
)
def test_spectral_singlecell_matches_inverse(theta, tau_rho):
    p = build_profile(1.3, 0.8, theta, los_steering(0.3, 24))
    state = build_estimator_multicell([p], 0, 1, tau_rho)
    oracle = dense_lmmse([p], 0, tau_rho)
    s = 1.0 / tau_rho
    err = _error_image(state)
    got = {
        "gain": state.weighted(0) @ state.spectrum.eigvecs.T,
        "r_tilde": state.r_tilde,
        "err_cov": err,
    }
    # relative condition number of R -> R (R + sI)^{-1}; on a numerically
    # rank-deficient R with tiny s the inverse-based reference itself is
    # only good to about eps * cond
    lam = np.linalg.eigvalsh(p.r_cov)
    cond = max(1.0, lam[-1] * s / (max(lam[0], 0.0) + s) ** 2)
    for name, image in got.items():
        ref = getattr(oracle, name)
        error = np.linalg.norm(antenna_image(image) - ref)
        assert error <= 1e-12 * cond * np.linalg.norm(ref), name
    ev_err = np.linalg.eigvalsh(err)
    assert ev_err[0] >= -1e-14 * ev_err[-1]


def _three_cell_links(n, user):
    # same-pilot links at one BS: local, then two interferers; the narrow
    # windows leave most of theta's eigenvalues below 1e-12 of the top
    windows = [(-math.pi, -math.pi + 0.3 + 0.2 * user), (-math.pi, -1.0), (-2.5, -2.3)]
    powers = [(40.0, 1.5), (0.8, 0.0), (0.5, 0.0)]  # (beta, kappa)
    return [
        build_profile(
            beta, kappa, one_ring_correlation(lo, hi, n), los_steering(0.3 + user, n),
            is_local=(ell == 0),
        )
        for ell, ((lo, hi), (beta, kappa)) in enumerate(zip(windows, powers))
    ]


def _shared_theta_links(n):
    # same-pilot links of one exponential theta that hold its one eigenpair,
    # as a scenario's links do: the group takes no eigh of its sum
    theta = exponential_correlation(0.7, n)
    eig = row_spectrum(theta[0])
    powers = [(40.0, 1.5), (0.8, 0.0), (0.5, 0.0)]  # (beta, kappa)
    return [
        build_profile(beta, kappa, None, los_steering(0.3, n), is_local=(ell == 0), theta_eig=eig)
        for ell, (beta, kappa) in enumerate(powers)
    ]


@pytest.mark.parametrize("tau_rho", [1e-3, 1.0, 1e6])
def test_spectral_multicell_matches_inverse(tau_rho, monkeypatch):
    n = 24
    ring = _three_cell_links(n, 0)
    ev = np.linalg.eigvalsh(ring[0].theta)
    assert np.sum(ev < 1e-12 * ev[-1]) >= n // 2
    eighs = []
    original_eigh = np.linalg.eigh

    def eigh(a, *args, **kwargs):
        eighs.append(np.shape(a))
        return original_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    # the one-ring group takes one eigh of its sum; the shared-theta group
    # reuses theta's eigenvectors
    for links, sum_eighs in ((ring, [(n, n)]), (_shared_theta_links(n), [])):
        s = 1.0 / tau_rho
        obs = sum(p.r_cov for p in links) + s * np.eye(n)
        # condition of the inverse-based reference, as in the single-cell test
        lam = np.linalg.eigvalsh(obs - s * np.eye(n))
        cond = max(1.0, lam[-1] * s / (max(lam[0], 0.0) + s) ** 2)
        for local in range(3):
            eighs.clear()
            state = build_estimator_multicell(links, local, 1, tau_rho)
            assert eighs == sum_eighs
            oracle = dense_lmmse(links, local, tau_rho)
            gains, conds = _link_images(state)
            r = links[local].r_cov
            # the spectral gain solves G (S + sI) = R to rounding, with no
            # inverse: within the backward-error scale n*eps*|G||S + sI| for
            # every link, and within 1e-12 |R| for the dominant served link (the
            # inverse misses both by orders of magnitude at tau*rho = 1e6)
            residual = np.linalg.norm(gains[local] @ real_image(obs) - links[local].r_image)
            eps = np.finfo(float).eps
            assert residual <= n * eps * np.linalg.norm(gains[local]) * np.linalg.norm(obs, 2)
            if local == 0:
                assert residual <= 1e-12 * np.linalg.norm(r)
            checks = [
                ("gain", gains[local], oracle.gain),
                ("r_tilde", state.r_tilde, oracle.r_tilde),
                ("err_cov", conds[local], oracle.err_cov),
            ]
            for ell in state.others:
                checks.append((f"gain[{ell}]", gains[ell], oracle.gains[ell]))
                checks.append((f"cond[{ell}]", conds[ell], oracle.conds[ell]))
            for name, image, ref in checks:
                scale = np.linalg.norm(ref) + np.linalg.norm(r)
                assert np.linalg.norm(antenna_image(image) - ref) <= 1e-12 * cond * scale, name


@pytest.mark.parametrize("tau_rho", [1e-3, 1.0, 1e6])
def test_regularizer_sums_match_dense_state_sums(tau_rho):
    # the batched stacks against per-state, per-link products of the same
    # factors, in three cells and (first link of each group alone) in one
    n, k = 24, 3
    three_cell = [_three_cell_links(n, u) for u in range(k)]
    cases = [(three_cell, local) for local in range(3)] + [([g[:1] for g in three_cell], 0)]
    for groups, local in cases:
        states = [build_estimator_multicell(links, local, 1, tau_rho) for links in groups]
        links = [[s.spectrum[ell] for s in states] for ell in range(len(groups[0]))]
        bs = BSStatistics(links, local)
        shrink, a_img, b_img = regularizer_sums(bs, 1, tau_rho)
        assert np.array_equal(shrink, key_shrinkage(bs, 1, tau_rho))
        others = [ell for ell in range(len(groups[0])) if ell != local]
        conds = [_link_images(s)[1] for s in states]
        err = sum(c[local] for c in conds)
        a_ref = err + sum(links[ell].r_image for links in groups for ell in others)
        b_ref = err + sum(c[ell] for c in conds for ell in others)
        for img, ref in ((a_img, a_ref), (b_img, b_ref)):
            # real symmetric images; an exactly symmetric image maps back to
            # an exactly Hermitian matrix
            assert img.dtype == np.float64
            assert np.max(np.abs(img - img.T)) == 0.0
            got = antenna_image(img)
            assert np.max(np.abs(got - got.conj().T)) == 0.0
            assert np.linalg.norm(img - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("cells", [1, 3])
def test_bs_stacks_hold_every_spectrum_once(cells):
    # every same-pilot V lives once at the BS.  One-ring links in three
    # cells each hold their own basis: every group takes one eigh, and its V
    # and P are views of the BS's two stacks, with contiguous rows (the
    # (N, K*N) rows of regularizer_sums).  In one cell every group is its
    # link: the BS is same-basis, V_k is the link's own array, and no
    # projection is stored; `proj` forms V_k diag(lam_k) on each read
    n, k = 12, 3
    groups = [_three_cell_links(n, u)[:cells] for u in range(k)]
    bs = BSStatistics([[g[ell] for g in groups] for ell in range(cells)], 0)
    assert bs.same_basis == (cells == 1)
    assert bs.vecs.shape == (n, k, n) and bs.proj.shape == (cells, n, k, n)
    assert bs.vecs.flags.c_contiguous and bs.proj.flags.c_contiguous
    for u, (sp, group) in enumerate(zip(bs.spectra, groups)):
        alone = same_pilot_spectrum(group)
        assert np.array_equal(sp.eigvecs, alone.eigvecs) and np.array_equal(sp.proj, alone.proj)
        assert np.array_equal(bs.vecs[:, u], sp.eigvecs)
        if cells == 1:
            assert sp.eigvecs is group[0].eigvecs and sp.stack is None
            assert np.array_equal(bs.proj[0, :, u], group[0].eigvecs * group[0].r_eigvals)
        else:
            assert np.shares_memory(sp.eigvecs, bs.vecs) and np.shares_memory(sp.proj, bs.proj)
            assert sp.eigvecs.strides[-1] == sp.proj.strides[-1] == sp.proj.itemsize
    if cells == 1:
        # formed on each read, never cached
        assert bs.proj is not bs.proj
    assert not any(hasattr(bs, name) for name in ("proj_t", "vecs_t", "rest_t"))
    # one-ring links each hold their own eigenvectors: no common basis
    assert bs.basis is None


def test_same_pilot_spectrum_is_shared_across_keys():
    links = _three_cell_links(8, 0)
    spectrum = same_pilot_spectrum(links)
    first = build_estimator_multicell(spectrum, 0, 4, 0.5)
    second = build_estimator_multicell(spectrum, 2, 10, 3.0)
    assert first.spectrum is second.spectrum is spectrum
    # the spectrum indexes like its links
    assert len(spectrum) == 3 and all(spectrum[ell] is links[ell] for ell in range(3))
    # a single link reuses the profile's own eigenpair
    alone = same_pilot_spectrum(links[:1])
    assert alone.eigvecs is links[0].eigvecs and alone.eigvals is links[0].r_eigvals


# ---------------------------------------------------------------------------
# statistical identities, checked empirically at 1e5 draws
# (tolerance 4/sqrt(draws) * ||R||_F on Frobenius norms of covariance errors)


def _draws_setup(multicell):
    n = 8
    theta = one_ring_correlation(-math.pi, -0.8, n)
    local = build_profile(1.2, 1.5, theta, los_steering(0.4, n))
    profiles = [local]
    if multicell:
        profiles += [
            build_profile(0.3, 0.0, exponential_correlation(0.5, n), los_steering(0.9, n), is_local=False),
            build_profile(0.2, 0.0, np.eye(n, dtype=complex), los_steering(-0.7, n), is_local=False),
        ]
    state = build_estimator_multicell(profiles, 0, 8, 2.0)
    return profiles, state


def _sample_links(profiles, rng, draws):
    return [
        p.h_bar[None, :] + standard_complex_normal(rng, draws, p.n_antennas) @ p.sqrt_r.T
        for p in profiles
    ]


def _observe(state, links, rng, draws):
    noise = standard_complex_normal(rng, draws, state.n_antennas)
    return sum(links) + noise / math.sqrt(state.tau_rho)


def _estimate(state, y):
    """The local estimate and the interferers' conditional means in the real
    basis, as the Monte Carlo kernel forms them:
    Q^H h_bar + P_l diag(f) V^T Q^H (y - h_bar) for every same-pilot link l."""
    sp = state.spectrum
    h_bar = sp.links[state.local_index].h_bar
    coeffs = (real_basis(y - h_bar) @ sp.eigvecs) * state.shrink
    fits = [coeffs @ sp.proj[ell].T for ell in range(len(sp.links))]
    h_hat = real_basis(h_bar) + fits[state.local_index]
    return h_hat, {ell: fits[ell] for ell in state.others}


def test_mmse_orthogonality_and_covariance_split():
    draws = 100_000
    rng = np.random.default_rng(2024)
    profiles, state = _draws_setup(multicell=False)
    (h,) = _sample_links(profiles, rng, draws)
    y = _observe(state, [h], rng, draws)
    # everything in the real basis, where the norms are the antenna basis's
    h_hat, _ = _estimate(state, y)
    err = real_basis(h) - h_hat
    tol = 4.0 / math.sqrt(draws) * np.linalg.norm(profiles[0].r_cov)

    # orthogonality: estimate and error are uncorrelated
    cross = (h_hat - h_hat.mean(0)).conj().T @ err / draws
    assert np.linalg.norm(cross) < tol

    # covariance split: cov(h_hat) = R_tilde and cov(err) = R - R_tilde
    hc = h_hat - real_basis(profiles[0].h_bar)[None, :]
    cov_hat = (hc.conj().T @ hc / draws).T
    assert np.linalg.norm(cov_hat - state.r_tilde) < tol
    cov_err = (err.conj().T @ err / draws).T
    assert np.linalg.norm(cov_err - _error_image(state)) < tol


def test_multicell_conditional_interference_moments():
    draws = 100_000
    rng = np.random.default_rng(77)
    profiles, state = _draws_setup(multicell=True)
    links = _sample_links(profiles, rng, draws)
    y = _observe(state, links, rng, draws)
    _, cond_means = _estimate(state, y)
    _, conds = _link_images(state)
    y_real = real_basis(y)
    for ell in (1, 2):
        resid = real_basis(links[ell]) - cond_means[ell]
        tol = 4.0 / math.sqrt(draws) * np.linalg.norm(profiles[ell].r_cov)
        # residual is uncorrelated with the observation
        cross = (y_real - y_real.mean(0)).conj().T @ resid / draws
        assert np.linalg.norm(cross) < 4.0 / math.sqrt(draws) * np.linalg.norm(
            sum(p.r_cov for p in profiles)
        )
        cov_resid = (resid.conj().T @ resid / draws).T
        assert np.linalg.norm(cov_resid - conds[ell]) < tol


# ---------------------------------------------------------------------------
# structural invariants


@settings(max_examples=20, deadline=None)
@given(
    c=st.floats(0.05, 5.0),
    tau=st.integers(1, 40),
    rho=st.floats(0.05, 50.0),
    kappa=st.floats(0.0, 10.0),
)
def test_error_covariance_psd_and_dominated(c, tau, rho, kappa):
    n = 4
    p = build_profile(c, kappa, exponential_correlation(0.4, n), los_steering(0.2, n))
    st_ = build_estimator_multicell([p], 0, tau, rho)
    ev_err = np.linalg.eigvalsh(_error_image(st_))
    ev_til = np.linalg.eigvalsh(st_.r_tilde)
    assert ev_err[0] > -1e-10
    assert ev_til[0] > -1e-10
    # estimate covariance never exceeds the prior covariance
    assert np.linalg.eigvalsh(p.r_image - st_.r_tilde)[0] > -1e-10


@settings(max_examples=15, deadline=None)
@given(c_local=st.floats(0.1, 2.0), c_inter=st.floats(0.01, 2.0))
def test_contamination_never_helps(c_local, c_inter):
    n = 3
    tau, rho = 6, 1.0
    clean = build_estimator_multicell([scaled_identity_profile(c_local, n)], 0, tau, rho)
    contaminated = build_estimator_multicell(
        [
            scaled_identity_profile(c_local, n),
            scaled_identity_profile(c_inter, n, is_local=False),
        ],
        0,
        tau,
        rho,
    )
    assert (
        np.trace(_link_images(contaminated)[1][0])
        >= np.trace(_link_images(clean)[1][0]) - 1e-12
    )
