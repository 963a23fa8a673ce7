import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lmmse_oracle import dense_lmmse

from rician_mimo.asymptotics import (
    _plain_state,
    _refined_state,
    build_q_multicell,
    build_q_singlecell,
    pilot_contamination_term,
    se_conv_expanded,
    se_conv_favorable,
    se_conv_multicell_de,
    se_conv_singlecell_de,
    se_stat_multicell_de,
    se_stat_singlecell_de,
)
from rician_mimo.channel import (
    build_profile,
    dft_steering,
    exponential_correlation,
    exponential_first_row,
    los_steering,
    one_ring_correlation,
    row_spectrum,
)
from rician_mimo.config import SystemConfig
from rician_mimo.scenarios import ScenarioSpec, build_scenario
from rician_mimo.estimation import BSStatistics, EstimatorState
from rician_mimo.spectral_efficiency import conventional_mc, se_stat_multicell, se_stat_singlecell
from rician_mimo.sweeps import conv_de_per_bs


def make_config(n, k, t=200, tau=None, snr=2.0):
    return SystemConfig(
        n_antennas=n,
        n_users=k,
        coherence_len=t,
        training_len=tau if tau is not None else k,
        snr_data=snr,
        snr_training=snr,
    )


def shared_profiles(theta, steering, betas, kappas):
    """Local links of one correlation matrix, sharing its eigenpair as a
    scenario's links do (the refined DE's common basis)."""
    eig = row_spectrum(theta[0])
    return [
        build_profile(beta, kappa, None, los, theta_eig=eig)
        for los, beta, kappa in zip(steering, betas, kappas)
    ]


def dft_profiles(n, k, beta=1.0, kappa=2.0):
    steering = [dft_steering(i, n) for i in range(k)]
    return shared_profiles(np.eye(n, dtype=complex), steering, [beta] * k, [kappa] * k)


# ---------------------------------------------------------------------------
# scalar closed forms (plain mode reproduces the published expressions)


def test_plain_q_scalar_closed_form():
    # K = 1, Rayleigh, R = c I: Q = 1 / (r_tilde_scalar + 1/rho)
    n, c, tau, rho = 16, 0.8, 4, 3.0
    p = build_profile(c, 0.0, np.eye(n, dtype=complex), los_steering(0.1, n))
    cfg = make_config(n, 1, tau=tau, snr=rho)
    state = _plain_state(BSStatistics([[p]], 0), cfg)
    r_tilde_scalar = c**2 / (c + 1.0 / (tau * rho))
    assert state.q_matrix[0, 0].real == pytest.approx(1.0 / (r_tilde_scalar + 1.0 / rho), rel=1e-12)
    # one cell: the expanded form is the simplified SE prelog * log(rho / [Q]_kk)
    simp, contam, uncorr = se_conv_expanded(state, cfg)
    assert simp[0] == pytest.approx(cfg.prelog * math.log1p(rho * r_tilde_scalar), rel=1e-12)
    assert contam.tolist() == uncorr.tolist() == [0.0]
    # a refined state reads [E Qtilde]_kk, which carries the resolvent bias, in place of [Q]_kk
    shared = shared_profiles(np.eye(n, dtype=complex), [los_steering(0.1, n)], [c], [0.0])
    refined = build_q_singlecell(BSStatistics([shared], 0), cfg)
    q_mean, q = refined.q_mean[0, 0].real, refined.q_matrix[0, 0].real
    assert q_mean > 1.02 * q
    assert se_conv_expanded(refined, cfg)[0][0] == pytest.approx(cfg.prelog * math.log(rho / q_mean), rel=1e-12)


def test_plain_q_diagonal_under_orthogonal_los():
    n, k = 32, 4
    profiles = dft_profiles(n, k)
    state = _plain_state(BSStatistics([profiles], 0), make_config(n, k))
    off = state.q_matrix - np.diag(np.diag(state.q_matrix))
    assert np.max(np.abs(off)) < 1e-12


def test_favorable_corollary_equals_theorem_under_orthogonal_los():
    # with orthogonal LoS directions and white scattering, the general
    # equivalent (plain mode, no estimation-error quadratic) collapses to the
    # interference-free corollary exactly
    n, k = 64, 4
    rho = 3.0
    profiles = dft_profiles(n, k, beta=1.3, kappa=1.7)
    stats = BSStatistics([profiles], 0)
    cfg = make_config(n, k, snr=rho)
    state = _plain_state(stats, cfg)
    theorem = se_conv_singlecell_de(state, cfg, include_estimation_error=False)
    corollary = se_conv_favorable(stats, cfg)
    assert np.max(np.abs(theorem - corollary)) < 1e-10


def test_multicell_theorem_matches_expanded_under_orthogonal_los():
    n, k, l = 64, 3, 2
    rho = 2.0
    local = dft_profiles(n, k, beta=1.0, kappa=1.0)
    inter = [
        build_profile(0.1, 0.0, np.eye(n, dtype=complex), dft_steering(i, n), is_local=False)
        for i in range(k)
    ]
    cfg = make_config(n, k, snr=rho)
    state = _plain_state(BSStatistics([local, inter], 0), cfg)
    theorem = se_conv_multicell_de(state, cfg, include_estimation_error=False)
    expanded, contam, uncorr = se_conv_expanded(state, cfg)
    assert np.max(np.abs(theorem - expanded)) < 1e-10
    assert np.all(contam > 0)
    # orthogonal LoS and white scattering: Q is diagonal, so no i != k term
    assert np.max(np.abs(uncorr)) < 1e-20


def test_negative_contamination_moment_is_a_numerical_failure():
    n, k = 16, 3
    local = dft_profiles(n, k)
    inter = [
        build_profile(0.1, 0.0, np.eye(n, dtype=complex), dft_steering(i, n), is_local=False)
        for i in range(k)
    ]
    cfg = make_config(n, k)
    state = _plain_state(BSStatistics([local, inter], 0), cfg)
    assert np.all(se_conv_multicell_de(state, cfg) > 0)
    state.contam_second[0, 1] = -1e-30
    with pytest.raises(ValueError, match="negative"):
        se_conv_multicell_de(state, cfg)


@pytest.mark.parametrize("shift", [-1e6, math.nan])
def test_negative_or_nan_sinr_is_a_numerical_failure_without_a_warning(shift):
    # a denominator pushed below zero (or to NaN) is refused before the log,
    # where log1p of a SINR below -1 would warn and return NaN
    n, k = 16, 3
    cfg = make_config(n, k)
    state = _plain_state(BSStatistics([dft_profiles(n, k)], 0), cfg)
    assert np.all(se_conv_multicell_de(state, cfg) > 0)
    broken = dataclasses.replace(state, noise_corr=state.noise_corr + shift)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="conventional DE SINR is negative or NaN"):
            se_conv_multicell_de(broken, cfg)


# ---------------------------------------------------------------------------
# refined mode


def test_refined_and_plain_converge_with_n():
    k, rho = 4, 10.0
    rng = np.random.default_rng(0)

    def gap(n):
        draws = [(rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.0), rng.uniform(-1, 1)) for _ in range(k)]
        betas, kappas, angles = zip(*draws)
        steering = [los_steering(angle, n) for angle in angles]
        profiles = shared_profiles(exponential_correlation(0.4, n), steering, betas, kappas)
        stats = BSStatistics([profiles], 0)
        cfg = make_config(n, k, snr=rho)
        states = [_plain_state(stats, cfg), build_q_singlecell(stats, cfg)]
        # one cell is the L = 1 case of the one SE formula, bit for bit
        for state in states:
            for err in (True, False):
                multi = se_conv_multicell_de(state, cfg, include_estimation_error=err)
                assert np.array_equal(se_conv_singlecell_de(state, cfg, err), multi)
        plain, refined = (se_conv_singlecell_de(state, cfg) for state in states)
        return np.max(np.abs(refined - plain) / plain)

    g32, g256 = gap(32), gap(256)
    assert g256 < g32
    assert g256 < 0.05


def test_refined_state_carries_moment_fields():
    n, k = 16, 3
    profiles = dft_profiles(n, k)
    stats, cfg = BSStatistics([profiles], 0), make_config(n, k, snr=1.0)
    refined = build_q_singlecell(stats, cfg)
    plain = _plain_state(stats, cfg)
    assert refined.var_mat.shape == (k, k)
    assert np.all(np.diag(refined.var_mat) >= 0)
    assert np.array_equal(plain.var_mat, np.zeros((k, k)))
    assert np.array_equal(plain.q_mean, plain.q_matrix)


# ---------------------------------------------------------------------------
# trace-only refined moments against the per-pair trace formulas


def _tr(a, b):
    return np.trace(a @ b)


def _oracle_moments(h_bar, r_tildes, z, zxz, q, gram2, t_bar, n, rho_d):
    """Refined fluctuation moments by the per-pair formulas: one
    einsum("ab,ba->") or np.trace(a @ b) per trace, N x N products throughout."""
    k = len(r_tildes)
    zr = [z @ rt for rt in r_tildes]
    t_t = np.array([[np.real(np.einsum("ab,ba->", zr[i], zr[j])) for j in range(k)] for i in range(k)])
    w_mats = [h_bar.conj().T @ (zr_j @ z) @ h_bar for zr_j in zr]
    q_diag = np.real(np.diag(q))
    p_mat = np.abs(q) ** 2
    w_sum = sum(q_diag[a] * w_mats[a] for a in range(k))
    m_mat = w_sum + np.diag(t_t @ q_diag + np.array([np.real(_tr(wm, q)) for wm in w_mats]))
    qm = q + q @ m_mat @ q / n**2
    qm = 0.5 * (qm + qm.conj().T)
    pm_mat = np.abs(qm) ** 2
    w_left = np.column_stack([np.real(np.diag(qm.conj().T @ wm @ qm)) for wm in w_mats])
    w_right = np.column_stack([np.real(np.diag(q.conj().T @ wm @ q)) for wm in w_mats])
    var_mat = (pm_mat @ t_t @ p_mat + w_left @ p_mat + (w_right @ pm_mat).T) / n**2
    var_mat = 0.5 * (var_mat + var_mat.T)

    def quad_shift(b_weight, g_bar):
        u_vec = np.real(np.diag(q @ g_bar @ q))
        s_vec = np.array([np.real(_tr(g_bar @ q @ wm, q)) for wm in w_mats])
        b_vec = (pm_mat @ (t_t @ u_vec) + w_left @ u_vec + pm_mat @ s_vec) / n**2
        bzr = [b_weight @ rt for rt in r_tildes]
        t1b = np.array([[np.real(np.einsum("ab,ba->", zr[a], bzr[i])) for i in range(k)] for a in range(k)])
        w1b = [h_bar.conj().T @ (zr_a @ b_weight) @ h_bar for zr_a in zr]
        m1b = sum(q_diag[a] * w1b[a] for a in range(k)) + np.diag(
            t1b.T @ q_diag + np.array([np.conj(_tr(wm, q)) for wm in w1b])
        )
        return b_vec - 2.0 * np.real(np.diag(qm.conj().T @ m1b @ qm)) / n**2

    noise_corr = quad_shift(z @ z, gram2)
    err_corr = quad_shift(zxz, t_bar / n)
    s0 = h_bar.conj().T @ z @ h_bar
    y_mat = q @ s0
    mu_psi = (qm @ s0) / n - (qm @ w_sum) / n**2
    zv = z @ ((h_bar - h_bar @ (y_mat / n)) / n)
    zhq = z @ h_bar @ q
    vrv = np.stack([np.real(np.diag(zv.conj().T @ rt @ zv)) for rt in r_tildes])
    vrhq = np.stack([np.diag(zv.conj().T @ rt @ zhq) for rt in r_tildes])
    qwq = np.stack([np.real(np.diag(q @ wm @ q)) for wm in w_mats])
    ab = np.abs(y_mat) ** 2
    qyc = q * y_mat.conj()
    var_psi = p_mat @ vrv + (qwq.T @ ab + p_mat @ (t_t @ ab)) / n**4
    cov_qpsi = -(p_mat @ vrhq) / n**2 + (qwq.T @ qyc + p_mat @ (t_t @ qyc)) / n**3
    mean_t = np.eye(k) - qm / rho_d - mu_psi
    contam = np.abs(mean_t) ** 2 + var_mat / rho_d**2 + var_psi + (2.0 / rho_d) * np.real(cov_qpsi)
    return qm, var_mat, noise_corr, err_corr, contam


def _dense_estimators(profiles_at_bs, bs, tau_rho):
    """`dense_lmmse` of every pilot at BS `bs`: antenna-basis matrices from
    one N x N inverse each."""
    cells = len(profiles_at_bs)
    return [
        dense_lmmse([profiles_at_bs[ell][i] for ell in range(cells)], bs, tau_rho)
        for i in range(len(profiles_at_bs[bs]))
    ]


def _oracle_state(profiles_at_bs, estimators, bs, rho_d):
    """Every refined field of build_q_{single,multi}cell by the per-pair
    formulas, from the dense `estimators` of `_dense_estimators`."""
    local = profiles_at_bs[bs]
    n, k = local[0].n_antennas, len(local)
    others = [ell for ell in range(len(profiles_at_bs)) if ell != bs]
    err_sum = sum(e.err_cov for e in estimators)
    a_mat = err_sum + sum(profiles_at_bs[ell][i].r_cov for ell in others for i in range(k))
    quad = err_sum + sum(estimators[i].conds[ell] for ell in others for i in range(k))
    h_bar = np.column_stack([p.h_bar for p in local])
    r_tildes = [e.r_tilde for e in estimators]
    z = np.linalg.inv(np.eye(n) + (rho_d / n) * a_mat)
    z = 0.5 * (z + z.conj().T)

    def gram(weight):
        g = h_bar.conj().T @ weight @ h_bar + np.diag([np.real(_tr(rt, weight)) for rt in r_tildes])
        return 0.5 * (g + g.conj().T) / n

    q = np.linalg.inv(gram(z) + np.eye(k) / rho_d)
    q = 0.5 * (q + q.conj().T)
    zxz = z @ quad @ z
    t_mat = h_bar.conj().T @ zxz @ h_bar + np.diag([np.real(_tr(rt, zxz)) for rt in r_tildes])
    cross = np.array(
        [
            [np.real(np.trace(z @ profiles_at_bs[ell][i].r_cov @ estimators[i].gain.conj().T)) / n for i in range(k)]
            for ell in others
        ]
    ).reshape(len(others), k)
    moments = _oracle_moments(h_bar, r_tildes, z, zxz, q, gram(z @ z), t_mat, n, rho_d)
    alphas = np.array(
        [[n * cross[m, i] / np.real(_tr(z, r_tildes[i])) for i in range(k)] for m in range(len(others))]
    ).reshape(len(others), k)
    # one shared theta: each contaminating gain R_l Phi is alpha times the
    # local one, so the conditional mean is alpha e_i with no remainder
    for m, ell in enumerate(others):
        for i, e in enumerate(estimators):
            gap = np.linalg.norm(e.gains[ell] - alphas[m, i] * e.gain)
            assert gap <= 1e-10 * np.linalg.norm(e.gains[ell])
    fields = dict(zip(("q_mean", "var_mat", "noise_corr", "err_corr", "contam_second"), moments))
    # the state forms its signal as Q G - shift/rho_d; the oracle by definition
    fields.update(cross_traces=cross, contam_alpha=alphas, signal=1.0 - np.real(np.diag(moments[0])) / rho_d)
    return fields


def _assert_state_matches_oracle(state, oracle):
    for name, expected in oracle.items():
        got = getattr(state, name)
        assert got.shape == expected.shape, name
        scale = max(np.linalg.norm(expected), 1e-300)
        assert np.linalg.norm(got - expected) <= 1e-10 * scale, name


def _state_at(links, bs, rho):
    """The state of BS `bs` from its links[cell][user], at tau = K."""
    cfg = make_config(links[bs][0].n_antennas, len(links[bs]), snr=rho)
    build = build_q_singlecell if len(links) == 1 else build_q_multicell
    return build(BSStatistics(links, bs), cfg)


@pytest.mark.parametrize("correlation", ["exponential"])
@pytest.mark.parametrize("layout", ["single_cell", "three_cell_edge"])
def test_refined_state_matches_per_pair_trace_oracle(correlation, layout):
    cells = 1 if layout == "single_cell" else 3
    spec = ScenarioSpec(
        layout=layout, l=cells, n=12, k=3, t=50, correlation=correlation,
        placement="cell_edge" if cells > 1 else "uniform_disk", kappa_max=2.0, seed=3,
    )
    scenario = build_scenario(spec)
    rho = 10.0
    for bs in range(cells):
        state = _state_at(scenario.profiles[bs], bs, rho)
        dense = _dense_estimators(scenario.profiles[bs], bs, 3 * rho)
        _assert_state_matches_oracle(state, _oracle_state(scenario.profiles[bs], dense, bs, rho))


def test_refined_multicell_de_saturates_at_the_contamination_ceiling():
    # pilot contamination caps the three-cell SE: past 100 dB no user's DE
    # moves; dropping a contamination gain lifts users far above it
    spec = ScenarioSpec(
        layout="three_cell_edge", l=3, n=150, k=20, t=500, correlation="exponential",
        placement="cell_edge", kappa_max=2.0, seed=3,
    )
    scenario = build_scenario(spec)
    configs = [spec.system_config(snr) for snr in (100.0, 120.0, 150.0, 300.0)]
    de = conv_de_per_bs(scenario, configs)
    np.testing.assert_allclose(de[1:], np.broadcast_to(de[0], de[1:].shape), rtol=1e-8, atol=0.0)


def _assert_same_state(got, expected):
    for field in dataclasses.fields(expected):
        assert np.array_equal(getattr(got, field.name), getattr(expected, field.name)), field.name


def test_the_bs_basis_picks_the_de_mode():
    # the refined state where every link holds one theta eigenpair
    n, k, rho = 12, 3, 10.0
    cfg = make_config(n, k, snr=rho)
    shared = BSStatistics([dft_profiles(n, k)], 0)
    assert shared.basis is not None
    refined = build_q_multicell(shared, cfg)
    _assert_same_state(refined, _refined_state(shared, k * rho, rho))
    assert np.all(np.diag(refined.var_mat) > 0)


def test_refined_mode_needs_a_common_basis():
    # one-ring links each hold their own eigenvectors: the refined state
    # has no diagonal form, so the BS gets the plain state, field for field
    n, k, rho = 12, 3, 10.0
    cfg = make_config(n, k, snr=rho)
    for cells, layout in ((1, "single_cell"), (3, "three_cell_edge")):
        spec = ScenarioSpec(
            layout=layout, l=cells, n=n, k=k, t=50, correlation="one_ring",
            placement="cell_edge" if cells > 1 else "uniform_disk", kappa_max=2.0, seed=3,
        )
        stats = build_scenario(spec).profiles[0]
        assert stats.basis is None
        _assert_same_state(build_q_multicell(stats, cfg), _plain_state(stats, cfg))


def test_refined_mode_refuses_one_basis_with_unrelated_spectra():
    # links that share one eigenvector array but not one correlation matrix:
    # their spectra are not proportional, so a contaminating conditional
    # mean is no multiple of the local estimate and the BS gets the plain
    # state, field for field
    n, k, rho = 12, 3, 10.0
    cfg = make_config(n, k, snr=rho)
    _, v, row = row_spectrum(exponential_first_row(0.6, n))
    base = np.linspace(0.1, 2.0, n)
    links = [
        [
            build_profile(
                1.0 / (1 + ell), 1.5 if ell == 0 else 0.0, None, los_steering(0.4 * i - 0.3 * ell, n),
                is_local=(ell == 0), theta_eig=(lam, v, row),
            )
            for i in range(k)
        ]
        for ell, lam in enumerate([base, base[::-1], np.sqrt(base)])
    ]
    stats = BSStatistics(links, 0)
    assert stats.same_basis and stats.basis is None
    _assert_same_state(build_q_multicell(stats, cfg), _plain_state(stats, cfg))


@pytest.mark.parametrize("correlation", ["exponential", "identity", "one_ring"])
@pytest.mark.parametrize("layout", ["single_cell", "three_cell_edge"])
def test_conv_de_matches_mc_at_minus_600_db(correlation, layout):
    # both DE modes form the signal and the contamination mean from
    # Q (G + I/rho_d) = I, with no cancellation: at -600 dB the SE is about
    # 1e-61 and the DE keeps the Monte Carlo's digits
    cells = 1 if layout == "single_cell" else 3
    spec = ScenarioSpec(
        layout=layout, l=cells, n=16, k=3, t=50, correlation=correlation,
        placement="cell_edge" if cells > 1 else "uniform_disk", seed=4,
    )
    scenario = build_scenario(spec)
    configs = [spec.system_config(-600.0)]
    mc, _ = conventional_mc(scenario.profiles, configs, 20, 4)
    de = conv_de_per_bs(scenario, configs)
    assert np.all(de > 0) and np.all(de < 1e-59)
    np.testing.assert_allclose(de, mc, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("correlation", ["one_ring", "exponential"])
@pytest.mark.parametrize("layout", ["single_cell", "three_cell_edge"])
def test_plain_state_matches_per_pair_trace_oracle(correlation, layout):
    # Z = I: the cross traces come from the real same-pilot spectrum, not
    # from dense gains; every field against the per-pair dense formulas
    cells = 1 if layout == "single_cell" else 3
    spec = ScenarioSpec(
        layout=layout, l=cells, n=12, k=3, t=50, correlation=correlation,
        placement="cell_edge" if cells > 1 else "uniform_disk", kappa_max=2.0, seed=3,
    )
    scenario = build_scenario(spec)
    n, k, rho = 12, 3, 10.0
    for bs in range(cells):
        links = scenario.profiles[bs]
        stats, cfg = BSStatistics(links, bs), make_config(n, k, tau=3, snr=rho)
        state = _plain_state(stats, cfg)
        others = [ell for ell in range(cells) if ell != bs]
        dense = _dense_estimators(links, bs, 3 * rho)
        err_sum = sum(e.err_cov for e in dense)
        quad = err_sum + sum(dense[i].conds[ell] for ell in others for i in range(k))
        h_bar = np.column_stack([p.h_bar for p in links[bs]])
        gram = h_bar.conj().T @ h_bar + np.diag([np.real(np.trace(e.r_tilde)) for e in dense])
        gram = 0.5 * (gram + gram.conj().T) / n
        q = np.linalg.inv(gram + np.eye(k) / rho)
        t_mat = h_bar.conj().T @ quad @ h_bar + np.diag([np.real(_tr(e.r_tilde, quad)) for e in dense])
        cross = np.array(
            [
                [np.real(_tr(dense[i].gains[ell], links[bs][i].r_cov)) / n for i in range(k)]
                for ell in others
            ]
        ).reshape(len(others), k)
        expected = {"q_matrix": q, "gram2": gram, "t_matrix": t_mat, "cross_traces": cross}
        for name, ref in expected.items():
            got = getattr(state, name)
            assert got.shape == ref.shape, name
            assert np.linalg.norm(got - ref) <= 1e-10 * max(np.linalg.norm(ref), 1e-300), name


@pytest.mark.parametrize("layout", ["single_cell", "three_cell_edge"])
def test_plain_de_forms_no_estimate_covariance_image(layout, monkeypatch):
    # the plain state takes every trace off the same-pilot stacks;
    # `EstimatorState.r_tilde` stays a tested accessor only
    def forbidden(self):
        raise AssertionError("the plain DE formed an R_tilde image")

    monkeypatch.setattr(EstimatorState, "r_tilde", property(forbidden))
    cells = 1 if layout == "single_cell" else 3
    spec = ScenarioSpec(
        layout=layout, l=cells, n=12, k=3, t=50, correlation="one_ring",
        placement="cell_edge" if cells > 1 else "uniform_disk", kappa_max=2.0, seed=3,
    )
    scenario = build_scenario(spec)
    de = conv_de_per_bs(scenario, [spec.system_config(snr) for snr in (0.0, 20.0)])
    assert np.all(np.isfinite(de)) and np.all(de > 0)


@pytest.mark.parametrize("correlation", ["exponential", "one_ring"])
@pytest.mark.parametrize("layout", ["single_cell", "three_cell_edge"])
def test_refined_de_builds_no_same_pilot_spectra(layout, correlation):
    # the refined state reads only the links' eigenvalues, so no BS writes
    # its same-pilot stacks; the plain (one-ring) state reads them
    cells = 1 if layout == "single_cell" else 3
    spec = ScenarioSpec(
        layout=layout, l=cells, n=12, k=3, t=50, correlation=correlation,
        placement="cell_edge" if cells > 1 else "uniform_disk", kappa_max=2.0, seed=3,
    )
    scenario = build_scenario(spec)
    de = conv_de_per_bs(scenario, [spec.system_config(snr) for snr in (0.0, 20.0)])
    assert np.all(np.isfinite(de))
    built = ["_pilot" in vars(stats) for stats in scenario.profiles]
    assert built == [correlation == "one_ring"] * cells


# ---------------------------------------------------------------------------
# statistical-combining equivalents


def test_stat_full_form_equals_exact_expression():
    # the "full" statistical equivalent is the same exact expectation the
    # Monte Carlo-free evaluator computes
    n, k = 24, 3
    rng = np.random.default_rng(5)
    profiles = [
        build_profile(
            rng.uniform(0.5, 2.0),
            rng.uniform(0.5, 4.0),
            one_ring_correlation(-math.pi, rng.uniform(-1.5, 0.0), n),
            los_steering(rng.uniform(-1, 1), n),
        )
        for _ in range(k)
    ]
    cfg = make_config(n, k, snr=4.0)
    full, simplified = se_stat_singlecell_de(profiles, cfg)
    exact = se_stat_singlecell(profiles, [cfg])[0]
    assert np.max(np.abs(full - exact)) < 1e-10
    assert np.all(simplified >= 0)


def test_stat_simplified_rank_one_downdate():
    # the LoS-only resolvent form c_k / m_k equals the direct leave-one-out quadratic
    n, k = 16, 4
    profiles = dft_profiles(n, k, kappa=3.0)
    rho = 2.0
    cfg = make_config(n, k, snr=rho)
    _, simplified = se_stat_singlecell_de(profiles, cfg)
    h_bar = np.column_stack([p.h_bar for p in profiles])
    for u in range(k):
        others = np.delete(h_bar, u, axis=1)
        mat = others @ others.conj().T + (n / rho) * np.eye(n)
        quad = np.real(h_bar[:, u].conj() @ np.linalg.solve(mat, h_bar[:, u]))
        assert simplified[u] == pytest.approx(math.log1p(quad), rel=1e-10)


def test_stat_multicell_uses_local_statistics_only():
    n, k = 16, 3
    profiles = dft_profiles(n, k)
    cfg = make_config(n, k, snr=2.0)
    de = se_stat_multicell_de(profiles, cfg)
    _, single = se_stat_singlecell_de(profiles, cfg)
    assert np.allclose(de, single)


def test_stat_converges_to_simplified_with_n():
    k, rho = 3, 2.0

    def gap(n):
        profiles = dft_profiles(n, k, kappa=2.0)
        cfg = make_config(n, k, snr=rho)
        full, simplified = se_stat_singlecell_de(profiles, cfg)
        return np.max(np.abs(full - simplified) / simplified)

    assert gap(256) < gap(32)


@pytest.mark.parametrize("correlation", ["exponential", "one_ring"])
def test_stat_multicell_converges_to_los_only_form_with_n(correlation):
    # the LoS-only form is the large-N corollary of the exact multi-cell SE:
    # the scattered and inter-cell covariances vanish against (N/rho_d) I
    def gap(n):
        spec = ScenarioSpec(
            layout="three_cell_edge", l=3, placement="cell_edge", n=n, k=3, t=50,
            correlation=correlation, kappa_max=2.0, seed=5,
        )
        scenario = build_scenario(spec)
        cfg = spec.system_config(3.0)
        exact = se_stat_multicell(scenario.profiles, [cfg])[0]
        return max(
            np.max(np.abs(se_stat_multicell_de(scenario.local_profiles(j), cfg) - se) / se)
            for j, se in enumerate(exact)
        )

    gaps = [gap(n) for n in (32, 64, 128, 256)]
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps


# ---------------------------------------------------------------------------
# pilot contamination coefficient


def test_contamination_term_zero_without_interferers():
    n = 8
    p = build_profile(1.0, 1.0, np.eye(n, dtype=complex), los_steering(0.3, n))
    assert pilot_contamination_term([p], 0, 4, 1.0) == 0.0


def test_contamination_term_positive_and_scales_with_beta():
    n = 8
    local = build_profile(1.0, 0.5, np.eye(n, dtype=complex), los_steering(0.3, n))
    weak = build_profile(0.1, 0.0, np.eye(n, dtype=complex), los_steering(0.8, n), is_local=False)
    strong = build_profile(0.4, 0.0, np.eye(n, dtype=complex), los_steering(0.8, n), is_local=False)
    f_weak = pilot_contamination_term([local, weak], 0, 4, 1.0)
    f_strong = pilot_contamination_term([local, strong], 0, 4, 1.0)
    assert 0 < f_weak < f_strong


@settings(max_examples=20, deadline=None)
@given(
    kappa_lo=st.floats(0.0, 4.0),
    delta=st.floats(0.1, 20.0),
    beta_inter=st.floats(0.01, 1.0),
)
def test_contamination_nonincreasing_in_kappa(kappa_lo, delta, beta_inter):
    n = 6
    theta = exponential_correlation(0.3, n)
    steer = los_steering(0.4, n)
    inter = build_profile(beta_inter, 0.0, np.eye(n, dtype=complex), steer, is_local=False)

    def f(kappa):
        local = build_profile(1.0, kappa, theta, steer)
        return pilot_contamination_term([local, inter], 0, 6, 2.0)

    assert f(kappa_lo + delta) <= f(kappa_lo) + 1e-12


# ---------------------------------------------------------------------------
# structural invariants


@settings(max_examples=15, deadline=None)
@given(
    rho=st.floats(0.05, 50.0),
    kappa=st.floats(0.0, 8.0),
    seed=st.integers(0, 30),
)
def test_de_outputs_finite_and_nonnegative(rho, kappa, seed):
    n, k = 12, 3
    rng = np.random.default_rng(seed)
    draws = [(rng.uniform(0.3, 2.0), rng.uniform(-1, 1)) for _ in range(k)]
    steering = [los_steering(angle, n) for _, angle in draws]
    profiles = shared_profiles(
        exponential_correlation(0.3, n), steering, [beta for beta, _ in draws], [kappa] * k
    )
    cfg = make_config(n, k, snr=rho)
    state = build_q_singlecell(BSStatistics([profiles], 0), cfg)
    ev = np.linalg.eigvalsh(state.q_matrix)
    assert ev[0] > 0
    se = se_conv_singlecell_de(state, cfg)
    assert np.all(np.isfinite(se))
    assert np.all(se >= 0)
