import copy
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from lmmse_oracle import dense_lmmse

from rician_mimo import estimation, spectral_efficiency
from rician_mimo.asymptotics import se_stat_singlecell_de
from rician_mimo.channel import (
    build_profile,
    exponential_correlation,
    exponential_first_row,
    los_steering,
    one_ring_correlation,
    real_basis,
    row_spectrum,
    standard_complex_normal,
)
from rician_mimo.combining import conventional_combiner, statistical_combiner, statistical_resolvent
from rician_mimo.config import SystemConfig
from rician_mimo.estimation import BSStatistics, key_shrinkage, regularizer_sums
from rician_mimo.presets import preset_specs
from rician_mimo.scenarios import ScenarioSpec, build_scenario
from rician_mimo.spectral_efficiency import (
    BLOCK_TRIALS,
    _EstimatorArrays,
    _rotated_draws,
    conventional_mc,
    mc_log_moments,
    se_stat_multicell,
    se_stat_singlecell,
)
from rician_mimo.sweeps import run_sweep


def tiny_profiles(n=8, k=2, l=2, seed=0, family="one_ring"):
    """Per-BS statistics of a small synthetic network, profiles[bs][cell][user].

    `family` sets each link's correlation: "one_ring" a wide random window
    per link, "narrow_one_ring" a 0.1 rad window per link (numerically
    semi-definite, so eigenvalues clamp to exactly 0), and
    "shared_exponential" one exponential Theta whose eigenpair every link
    holds, so every link reads one V.
    """
    rng = np.random.default_rng(seed)
    shared = None
    if family == "shared_exponential":
        shared = row_spectrum(exponential_first_row(0.7 * np.exp(0.4j), n))
    profiles = []
    for j in range(l):
        per_bs = []
        for ell in range(l):
            cell = []
            for _ in range(k):
                beta = rng.uniform(0.5, 1.5) if ell == j else rng.uniform(0.05, 0.2)
                kappa = rng.uniform(0.5, 3.0)
                theta, theta_eig = None, None
                if family == "one_ring":
                    theta = one_ring_correlation(
                        rng.uniform(-math.pi, -1.0), rng.uniform(0.0, 1.0), n
                    )
                elif family == "narrow_one_ring":
                    center = rng.uniform(-math.pi, math.pi)
                    theta = one_ring_correlation(center - 0.05, center + 0.05, n)
                else:
                    theta_eig = shared
                cell.append(
                    build_profile(
                        beta,
                        kappa,
                        theta,
                        los_steering(rng.uniform(-1.0, 1.0), n),
                        is_local=(ell == j),
                        theta_eig=theta_eig,
                    )
                )
            per_bs.append(cell)
        profiles.append(BSStatistics(per_bs, j))
    return profiles


def make_config(**overrides):
    base = dict(
        n_antennas=8,
        n_users=2,
        coherence_len=50,
        training_len=2,
        snr_data=2.0,
        snr_training=2.0,
    )
    base.update(overrides)
    return SystemConfig(**base)


def point(tau, rho_d, rho_tr, **overrides):
    """A Monte Carlo operating point: training length and the data and
    training SNRs (linear)."""
    return make_config(training_len=tau, snr_data=rho_d, snr_training=rho_tr, **overrides)


# ---------------------------------------------------------------------------
# nested Monte Carlo oracle for the conditional-expectation SINR denominator


def test_conditional_denominator_matches_nested_mc():
    # One outer draw of estimates; the closed-form denominator terms must
    # match a brute-force inner Monte Carlo over channels conditioned on the
    # pilot observation.
    n, k, l = 8, 2, 2
    profiles = tiny_profiles(n, k, l, seed=4)
    tau, rho_tr, rho_d = k, 2.0, 3.0
    j = 0  # evaluate at BS 0
    rng = np.random.default_rng(123)

    states = [
        dense_lmmse([profiles[j][ell][u] for ell in range(l)], j, tau * rho_tr) for u in range(k)
    ]
    true = [
        [
            profiles[j][ell][u].h_bar
            + profiles[j][ell][u].sqrt_r
            @ ((rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2))
            for u in range(k)
        ]
        for ell in range(l)
    ]
    h_hat = np.zeros((n, k), dtype=complex)
    cond = []
    for u in range(k):
        noise = standard_complex_normal(rng, n) / math.sqrt(tau * rho_tr)
        y = sum(true[ell][u] for ell in range(l)) + noise
        centered = y - profiles[j][j][u].h_bar
        h_hat[:, u] = profiles[j][j][u].h_bar + states[u].gain @ centered
        cond.append({ell: states[u].gains[ell] @ centered for ell in states[u].others})

    a_mat = sum(s.err_cov for s in states) + sum(
        profiles[j][ell][u].r_cov for ell in range(l) if ell != j for u in range(k)
    )
    b_mat = sum(s.err_cov for s in states) + sum(
        states[u].conds[ell] for ell in range(l) if ell != j for u in range(k)
    )
    g = conventional_combiner(h_hat, np.linalg.inv(a_mat + (n / rho_d) * np.eye(n)))[:, 0]

    # closed-form denominator for user 0
    intra = sum(np.abs(g.conj() @ h_hat[:, u]) ** 2 for u in range(1, k))
    err = np.real(g.conj() @ b_mat @ g)
    inter = sum(
        np.abs(g.conj() @ cond[u][ell]) ** 2 for u in range(k) for ell in range(l) if ell != j
    )
    noise = (n / rho_d) * np.linalg.norm(g) ** 2
    closed = intra + err + inter + noise

    # inner Monte Carlo: redraw every channel from its conditional law
    draws = 60_000
    sqrt_err = [np.linalg.cholesky(s.err_cov + 1e-12 * np.eye(n)) for s in states]
    sqrt_cond = [
        {ell: np.linalg.cholesky(s.conds[ell] + 1e-12 * np.eye(n)) for ell in s.others}
        for s in states
    ]

    def cn(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)

    total = np.zeros(draws)
    for u in range(k):
        local = h_hat[:, u][None, :] + cn((draws, n)) @ sqrt_err[u].T
        if u != 0:
            total += np.abs(local @ g.conj()) ** 2
        else:
            # own estimation error still interferes
            total += np.abs((local - h_hat[:, u][None, :]) @ g.conj()) ** 2
        for ell in range(l):
            if ell == j:
                continue
            inter_draw = cond[u][ell][None, :] + cn((draws, n)) @ sqrt_cond[u][ell].T
            total += np.abs(inter_draw @ g.conj()) ** 2
    total += np.abs(cn((draws, n)) @ g.conj()) ** 2 * (n / rho_d)
    empirical = total.mean()
    stderr = total.std() / math.sqrt(draws)
    assert abs(empirical - closed) < max(5 * stderr, 0.01 * closed)


# ---------------------------------------------------------------------------
# Monte Carlo harness behaviour


def test_mc_common_random_numbers_across_point_subsets():
    # evaluating a subset of points with the same seed sees identical draws
    profiles = tiny_profiles(seed=2)
    both = conventional_mc(profiles, [point(2, 1.0, 1.0), point(2, 5.0, 5.0)], 10, seed=3)
    solo = conventional_mc(profiles, [point(2, 5.0, 5.0)], 10, seed=3)
    assert np.array_equal(both[0][1], solo[0][0])


@pytest.mark.parametrize("cells", [1, 3])
def test_mc_configs_with_one_training_snr_share_one_estimator_key(monkeypatch, cells):
    # a fixed training SNR puts two data SNRs on one (tau, rho_tr) key: the
    # estimators are built once per (BS, user), and each config's SE and
    # standard error are those a solo call gives
    layout = {"layout": "three_cell_edge", "l": 3} if cells == 3 else {}
    spec = ScenarioSpec(n=8, k=2, t=50, correlation="exponential", seed=5,
                        snr_training_db=5.0, **layout)
    profiles = build_scenario(spec).profiles
    configs = [spec.system_config(0.0), spec.system_config(10.0)]
    assert configs[0].snr_data != configs[1].snr_data
    keys = {(c.training_len, c.snr_training) for c in configs}
    assert len(keys) == 1
    builds = []
    original = estimation.build_estimator_multicell

    def counted(*args, **kwargs):
        builds.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(estimation, "build_estimator_multicell", counted)
    both = conventional_mc(profiles, configs, 5, seed=3)
    assert len(builds) == cells * spec.k
    for p, cfg in enumerate(configs):
        solo = conventional_mc(profiles, [cfg], 5, seed=3)
        for grid, alone in zip(both, solo):
            assert np.array_equal(grid[p], alone[0])


@pytest.mark.parametrize(
    "cells, n, trials, family",
    [
        pytest.param(1, 8, 3, "one_ring", id="1"),
        pytest.param(3, 8, 3, "one_ring", id="3"),
        # odd N: the real basis has a middle row of its own
        pytest.param(1, 7, 3, "one_ring", id="1-odd_n"),
        pytest.param(3, 7, 3, "one_ring", id="3-odd_n"),
        # one full block of trials and a partial one
        pytest.param(1, 8, BLOCK_TRIALS + 3, "one_ring", id="1-blocks"),
        pytest.param(3, 8, BLOCK_TRIALS + 3, "one_ring", id="3-blocks"),
        # every link holds one V: the draw V (sqrt(lam) * V^T z) of each
        # link rotates by the same eigenvectors
        pytest.param(3, 8, 3, "shared_exponential", id="3-shared_exponential"),
        # eigenvalues clamped to exactly 0 drop out of the draw
        pytest.param(3, 8, 3, "narrow_one_ring", id="3-narrow_one_ring"),
    ],
)
def test_mc_log_moments_match_dense_replay(cells, n, trials, family):
    # replay the kernel's draws (per-trial SeedSequence, z then w) through
    # dense inverse-based estimators and an N x N solve for the combiner
    k, seed = 2, 7
    profiles = tiny_profiles(n=n, k=k, l=cells, seed=4, family=family)
    every_link = [p for bs in profiles for cell in bs for p in cell]
    if family == "shared_exponential":
        assert all(p.eigvecs is every_link[0].eigvecs for p in every_link)
    if family == "narrow_one_ring":
        assert any(np.any(p.r_eigvals == 0) for p in every_link)
    points = [point(2, 1.0, 1.0), point(2, 30.0, 30.0), point(3, 30.0, 0.5)]
    mean, m2 = mc_log_moments(profiles, points, seed, 0, trials)
    logs = np.zeros((len(points), cells, trials, k))
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
        z = [[standard_complex_normal(rng, k, n) for _ in range(cells)] for _ in range(cells)]
        w = [standard_complex_normal(rng, k, n) for _ in range(cells)]
        for p_idx, pt in enumerate(points):
            s = 1.0 / (pt.training_len * pt.snr_training)
            for j in range(cells):
                links = profiles[j]
                h_hat = np.zeros((n, k), dtype=complex)
                a_mat = np.zeros((n, n), dtype=complex)
                b_mat = np.zeros((n, n), dtype=complex)
                means = []
                for u in range(k):
                    covs = [links[ell][u].r_cov for ell in range(cells)]
                    phi = np.linalg.inv(sum(covs) + s * np.eye(n))
                    y = math.sqrt(s) * w[j][u] + sum(
                        links[ell][u].h_bar + links[ell][u].sqrt_r @ z[j][ell][u]
                        for ell in range(cells)
                    )
                    h_hat[:, u] = links[j][u].h_bar + covs[j] @ phi @ (y - links[j][u].h_bar)
                    for ell in range(cells):
                        cond = covs[ell] - covs[ell] @ phi @ covs[ell]
                        b_mat += cond
                        a_mat += cond if ell == j else covs[ell]
                        if ell != j:
                            means.append(covs[ell] @ phi @ (y - links[j][u].h_bar))
                reg = h_hat @ h_hat.conj().T + a_mat + (n / pt.snr_data) * np.eye(n)
                g = np.linalg.solve(reg, h_hat)
                p_mat = g.conj().T @ h_hat
                sig = np.abs(np.diag(p_mat)) ** 2
                den = np.sum(np.abs(p_mat) ** 2, axis=1) - sig
                den += np.real(np.sum(g.conj() * (b_mat @ g), axis=0))
                den += sum(np.abs(g.conj().T @ m) ** 2 for m in means)
                den += (n / pt.snr_data) * np.sum(np.abs(g) ** 2, axis=0)
                logs[p_idx, j, t] = np.log1p(sig / den)
    assert np.allclose(mean, logs.mean(axis=2), rtol=1e-12, atol=0)
    centered = logs - logs.mean(axis=2, keepdims=True)
    assert np.allclose(m2, (centered**2).sum(axis=2), rtol=1e-12, atol=0)


def test_single_cell_links_hold_the_bs_eigenvectors_and_mc_forms_no_projection(monkeypatch):
    # a single cell's one-ring links hold their V as columns of one array,
    # which is the BS's `vecs` itself; the Monte Carlo reads (V_k, lam_k)
    # and never forms the stack V_k diag(lam_k)
    spec = ScenarioSpec(n=12, k=3, t=50, correlation="one_ring", kappa_max=2.0, seed=3, trials=5)
    [bs] = build_scenario(spec).profiles
    assert bs.same_basis and bs.vecs.flags.c_contiguous
    for k, link in enumerate(bs[0]):
        assert np.shares_memory(link.eigvecs, bs.vecs) and link.eigvecs.base is bs.vecs
        assert np.array_equal(bs.vecs[:, k], link.eigvecs)
    assert all(sp.stack is None for sp in bs.spectra)

    def forbidden(*args):
        raise AssertionError("a same-basis Monte Carlo formed V diag(lam)")

    monkeypatch.setattr(estimation, "basis_projections", forbidden)
    configs = [spec.system_config(db) for db in (0.0, 20.0)]
    conventional_mc([bs], configs, spec.trials, spec.seed)
    with pytest.raises(AssertionError, match="formed V diag"):
        bs.proj


def _three_product_draws(stats, seed, first, count):
    """`_rotated_draws` as the dense reference: per link the three products
    V_k^T V_lk (sqrt(lam_lk) * (V_lk^T z_lk)), and V_k^T w_k."""
    cells, users, n = stats[0].eigvals.shape
    z = np.empty((count, cells, cells, users, n), dtype=complex)
    w = np.empty((count, cells, users, n), dtype=complex)
    for t in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(first + t,)))
        for j in range(cells):
            for ell in range(cells):
                z[t, j, ell] = standard_complex_normal(rng, users, n)
        for j in range(cells):
            w[t, j] = standard_complex_normal(rng, users, n)
    z, w = real_basis(z), real_basis(w)
    rot = []
    for j, bs in enumerate(stats):
        per_user = []
        for k in range(users):
            v_k = bs.vecs[:, k]
            channel = sum(
                link[k].eigvecs @ (np.sqrt(link[k].r_eigvals)[:, None] * (link[k].eigvecs.T @ z[:, j, ell, k].T))
                for ell, link in enumerate(bs)
            )
            per_user.append(np.concatenate([v_k.T @ channel, v_k.T @ w[:, j, k].T], axis=-1))
        rot.append(np.array(per_user))
    return rot


def _rel(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize(
    "layout, correlation",
    [("single_cell", "exponential"), ("three_cell_edge", "exponential"), ("single_cell", "one_ring")],
)
def test_same_basis_kernel_matches_dense_projections(layout, correlation):
    # the diagonal forms of a same-basis BS (draws sqrt(lam) * V^T z beside
    # V^T w, fits V_k (lam_lk f_k * rot), A and B as Gram products) against
    # the dense reference: P_lk = (Q^H R_lk Q) V_k and the three-product draw
    cells = 3 if layout == "three_cell_edge" else 1
    spec = ScenarioSpec(n=12, k=3, t=50, layout=layout, l=cells, correlation=correlation,
                        corr_rho=0.6, kappa_max=2.0, seed=8)
    stats = build_scenario(spec).profiles
    assert all(bs.same_basis for bs in stats)
    seed, count = 5, 3
    rot = _rotated_draws(stats, [np.sqrt(bs.eigvals) for bs in stats], seed, 2, count)
    for got, ref in zip(rot, _three_product_draws(stats, seed, 2, count)):
        assert _rel(got, ref) <= 1e-13
    tau, rho_tr = 3, 2.5
    s = 1.0 / (tau * rho_tr)
    est = _EstimatorArrays(stats, tau, rho_tr, [1.0])
    for j, bs in enumerate(stats):
        shrink = key_shrinkage(bs, tau, rho_tr)
        proj = np.array([[link.r_image @ bs.vecs[:, k] for k, link in enumerate(cell)] for cell in bs])
        x = shrink[..., None] * (rot[j][..., :count] + rot[j][..., count:] / math.sqrt(tau * rho_tr))
        assert _rel(est.fits(j, bs, rot[j]), proj @ x) <= 1e-13
        # error (l = j) and conditional covariances, P_lk diag(f_k) W_lk^T
        conds = [
            sum(
                (proj[ell, k] * shrink[k])
                @ (sum((proj[m, k] for m in range(cells) if m != ell), s * bs.vecs[:, k])).T
                for k in range(spec.k)
            )
            for ell in range(cells)
        ]
        a_ref = conds[j] + sum(link.r_image for ell in bs.others for link in bs[ell])
        b_ref = sum(conds)
        f, a_mat, b_mat = regularizer_sums(bs, tau, rho_tr)
        assert np.array_equal(f, shrink)
        for got, ref in ((a_mat, a_ref), (b_mat, b_ref)):
            assert np.array_equal(got, got.T)
            assert _rel(got, 0.5 * (ref + ref.T)) <= 1e-13
        assert (a_mat is b_mat) == (cells == 1)


def test_mc_trial_chunks_are_contiguous():
    profiles = tiny_profiles(seed=5)
    m1, q1 = mc_log_moments(profiles, [point(2, 1.0, 1.0)], 11, 0, 6)
    m2a, q2a = mc_log_moments(profiles, [point(2, 1.0, 1.0)], 11, 0, 3)
    m2b, q2b = mc_log_moments(profiles, [point(2, 1.0, 1.0)], 11, 3, 3)
    # two halves of three trials each merge into the six-trial moments
    assert np.allclose(m1, (m2a + m2b) / 2)
    assert np.allclose(q1, q2a + q2b + (m2b - m2a) ** 2 * (3 * 3 / 6))
    # a range that starts inside a block: a trial's draws and logs depend on
    # its index alone, not on where the blocks of the call fall
    first, n_a, n_b = 3, BLOCK_TRIALS - 1, 4
    m3, q3 = mc_log_moments(profiles, [point(2, 1.0, 1.0)], 11, first, n_a + n_b)
    m3a, q3a = mc_log_moments(profiles, [point(2, 1.0, 1.0)], 11, first, n_a)
    m3b, q3b = mc_log_moments(profiles, [point(2, 1.0, 1.0)], 11, first + n_a, n_b)
    total = n_a + n_b
    assert np.allclose(m3, (n_a * m3a + n_b * m3b) / total, rtol=1e-13, atol=0)
    assert np.allclose(q3, q3a + q3b + (m3b - m3a) ** 2 * (n_a * n_b / total), rtol=1e-12, atol=0)


def test_mc_stderr_matches_exact_rational_recomputation():
    # fig2a-style row (N=150, K=20, one-ring, kappa_max 0.5, two trials):
    # each single-trial call returns that trial's log exactly, so the
    # standard error can be recomputed in rational arithmetic
    spec = dataclasses.replace(preset_specs("fig2a")[0], trials=2)
    profiles = build_scenario(spec).profiles
    points = [spec.system_config(db) for db in (-10.0, 10.0, 30.0)]
    _, stderr = conventional_mc(profiles, points, 2, spec.seed)
    logs = [mc_log_moments(profiles, points, spec.seed, t, 1)[0] for t in range(2)]
    for p_idx, pt in enumerate(points):
        for k in range(spec.k):
            x = [Fraction(float(log[p_idx, 0, k])) for log in logs]
            mean = sum(x) / 2
            var = sum((v - mean) ** 2 for v in x)  # 1/(trials - 1) = 1
            exact = pt.prelog * math.sqrt(var / 2)
            assert abs(stderr[p_idx, 0, k] - exact) <= 1e-12 * exact


def test_mc_reports_scale_by_config_prelog():
    # each point's SE and standard error are its config's prelog times the
    # kernel's moments, so configs of different tau share draws
    profiles = tiny_profiles(seed=6)
    trials = 4
    configs = [point(5, 1.0, 1.0), point(2, 1.0, 1.0)]
    mean, m2 = mc_log_moments(profiles, configs, 1, 0, trials)
    se, stderr = conventional_mc(profiles, configs, trials, seed=1)
    assert se.shape == stderr.shape == (len(configs), len(profiles), 2)
    for p_idx, cfg in enumerate(configs):
        assert np.array_equal(se[p_idx], cfg.prelog * mean[p_idx])
        assert np.array_equal(stderr[p_idx], cfg.prelog * np.sqrt(m2[p_idx] / (trials - 1) / trials))
    assert configs[0].prelog == 1.0 - 5 / 50


def test_mc_one_trial_has_no_stderr():
    # one draw gives no spread, so no standard error is reported
    profiles = tiny_profiles(seed=6)
    se, stderr = conventional_mc(profiles, [point(2, 1.0, 1.0)], 1, seed=1)
    assert stderr is None and np.all(se > 0)


def test_mc_rejects_zero_trials():
    profiles = tiny_profiles(seed=7)
    with pytest.raises(ValueError):
        conventional_mc(profiles, [point(2, 1.0, 1.0)], 0, seed=1)


def test_log_base_scaling():
    # the SE functions return nats; a base-2 scenario's statistical rows
    # are the single-cell SE of its served links over ln 2
    spec = ScenarioSpec(
        n=8, k=2, t=50, trials=2, seed=8, correlation="exponential",
        snr_grid_db=(0.0, 10.0), log_base="base2",
    )
    scenario = build_scenario(spec)
    configs = [spec.system_config(snr) for snr in spec.snr_grid_db]
    nats = se_stat_singlecell(scenario.local_profiles(0), configs)
    rows = run_sweep(spec, schemes=("stat",), mode="de")
    assert len(rows) == len(configs) * spec.k
    for row in rows:
        i = spec.snr_grid_db.index(row.snr_db)
        expected = nats[i, row.user_id] / math.log(2.0)
        assert np.isclose(row.se_value, expected, rtol=1e-12, atol=0.0)


def test_producers_reject_negative_or_nan_se(monkeypatch):
    # both producers check their whole array: a NaN or negative SE is a
    # numerical failure, never a value
    profiles = tiny_profiles(seed=7)
    for bad in (-0.1, np.nan):
        mean = np.full((1, len(profiles), 2), bad)
        monkeypatch.setattr(spectral_efficiency, "mc_log_moments", lambda *args: (mean, np.zeros_like(mean)))
        with pytest.raises(ValueError, match="non-negative"):
            conventional_mc(profiles, [point(2, 1.0, 1.0)], 2, seed=1)
        # c / m = expm1(bad), so the SE log1p(c / m) is `bad`
        m = np.full((1, 2), 1.0 / np.expm1(bad))
        resolvent = (m, np.ones_like(m), None, np.zeros_like(m))
        monkeypatch.setattr(spectral_efficiency, "statistical_resolvent", lambda bs, rho_ds: resolvent)
        with pytest.raises(ValueError, match="non-negative"):
            se_stat_multicell(profiles, [point(2, 1.0, 1.0)])


# ---------------------------------------------------------------------------
# statistical combining SE is an exact expectation


ORACLE_KAPPAS = (0.0, 1e-9, 1e-4, 0.5, 10.0)


def oracle_profiles(cells, n=16, seed=41):
    """Per-BS statistics, profiles[bs][cell][user]; local user u has Rician
    factor ORACLE_KAPPAS[u]."""
    rng = np.random.default_rng(seed)
    return [
        BSStatistics(
            [
                [
                    build_profile(
                        rng.uniform(0.5, 1.5) if ell == j else rng.uniform(0.05, 0.3),
                        kappa,
                        one_ring_correlation(rng.uniform(-math.pi, -1.0), rng.uniform(0.0, 1.0), n),
                        los_steering(rng.uniform(-1.0, 1.0), n),
                        is_local=(ell == j),
                    )
                    for kappa in ORACLE_KAPPAS
                ]
                for ell in range(cells)
            ],
            j,
        )
        for j in range(cells)
    ]


def leave_one_out_sinrs(bs, j, rho_d, scattered=True):
    """Direct per-user solves at BS j: g_k = C_k^{-1} h_bar_k with
    C_k = sum_local R + Hbar_k Hbar_k^H + (N/rho_d) I (Hbar_k drops column k).
    Returns the single-cell SINR h_bar_k^H g_k and the multi-cell SINR
    |g_k^H h_bar_k|^2 / g_k^H (C_k + R_out) g_k; NaN where h_bar_k = 0."""
    local = bs[j]
    n = local[0].n_antennas
    h_bar = np.column_stack([p.h_bar for p in local])
    r_local = sum(p.r_cov for p in local) if scattered else 0.0
    r_out = sum((p.r_cov for ell, cell in enumerate(bs) if ell != j for p in cell), 0.0)
    single, multi = np.full(len(local), np.nan), np.full(len(local), np.nan)
    for k in range(len(local)):
        if not np.any(h_bar[:, k]):
            continue
        others = np.delete(h_bar, k, axis=1)
        c_k = r_local + others @ others.conj().T + (n / rho_d) * np.eye(n)
        g = np.linalg.solve(c_k, h_bar[:, k])
        single[k] = np.real(h_bar[:, k].conj() @ g)
        multi[k] = abs(g.conj() @ h_bar[:, k]) ** 2 / np.real(g.conj() @ (c_k + r_out) @ g)
    return single, multi


def assert_matches_oracle(se, sinr):
    # kappa = 0 users are exactly +0.0; every other user within 1e-12
    zero = np.isnan(sinr)
    assert np.all(se[zero] == 0.0) and not np.any(np.signbit(se))
    assert np.allclose(se[~zero], np.log1p(sinr[~zero]), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("rho_d", [0.1, 1e4])
@pytest.mark.parametrize("cells", [1, 3])
def test_stat_core_matches_leave_one_out_oracle(cells, rho_d):
    n, k = 16, len(ORACLE_KAPPAS)
    profiles = oracle_profiles(cells, n)
    cfg = make_config(n_antennas=n, n_users=k, training_len=k, snr_data=rho_d)
    multi = se_stat_multicell(profiles, [cfg])[0]
    for j, bs in enumerate(profiles):
        single, multi_sinr = leave_one_out_sinrs(bs, j, rho_d)
        assert_matches_oracle(se_stat_singlecell(bs[j], [cfg])[0], single)
        assert_matches_oracle(multi[j], multi_sinr)
        full, los_only = se_stat_singlecell_de(bs[j], cfg)
        assert_matches_oracle(full, single)
        assert_matches_oracle(los_only, leave_one_out_sinrs(bs, j, rho_d, scattered=False)[0])


def test_stat_los_only_form_finite_at_160_db():
    # the LoS resolvent never divides by 1 - h_bar^H (...)^{-1} h_bar, which
    # rounds to 0 when the noise loading vanishes against the LoS gram
    n, k = 16, len(ORACLE_KAPPAS)
    local = oracle_profiles(1, n)[0][0]
    cfg = make_config(n_antennas=n, n_users=k, training_len=k, snr_data=1e16)
    _, los_only = se_stat_singlecell_de(local, cfg)
    assert np.all(np.isfinite(los_only))
    assert los_only[0] == 0.0 and not np.signbit(los_only[0])
    assert np.all(los_only[1:] > 0.0)


def test_stat_singlecell_matches_empirical_average():
    n, k = 8, 3
    rng = np.random.default_rng(31)
    profiles = [
        build_profile(
            rng.uniform(0.5, 1.5),
            rng.uniform(1.0, 4.0),
            exponential_correlation(0.4, n),
            los_steering(rng.uniform(-1, 1), n),
        )
        for _ in range(k)
    ]
    cfg = make_config(n_users=3, training_len=3)
    exact = se_stat_singlecell(profiles, [cfg])[0]

    g = statistical_combiner(profiles, cfg.snr_data)
    draws = 200_000
    h = np.stack(
        [
            p.h_bar[None, :]
            + ((rng.standard_normal((draws, n)) + 1j * rng.standard_normal((draws, n))) / math.sqrt(2))
            @ p.sqrt_r.T
            for p in profiles
        ]
    )  # (k, draws, n)
    for u in range(k):
        gu = g[:, u]
        num = np.abs(gu.conj() @ profiles[u].h_bar) ** 2
        inter = sum(np.abs(h[i] @ gu.conj()) ** 2 for i in range(k)).mean()
        # remove the coherent LoS part of the served user from the denominator
        den = inter - num + (n / cfg.snr_data) * np.linalg.norm(gu) ** 2
        se = math.log1p(num / den)
        assert exact[u] == pytest.approx(se, rel=0.02)


def test_stat_multicell_reduces_to_singlecell():
    # one statistical SE: with R_out = 0 the multi-cell SINR is c_k / m_k
    # exactly, the full form of the single-cell equivalent
    cfg = make_config()
    for seed in range(10):
        local = tiny_profiles(seed=seed)[0][0]
        single = se_stat_singlecell(local, [cfg])[0]
        multi = se_stat_multicell([BSStatistics([local], 0)], [cfg])[0][0]
        assert np.array_equal(single, multi), seed
        assert np.array_equal(se_stat_singlecell_de(local, cfg)[0], multi), seed


def test_stat_multicell_interference_hurts():
    profiles = tiny_profiles(seed=12)
    cfg = make_config()
    multi = se_stat_multicell(profiles, [cfg])[0][0]
    clean = se_stat_singlecell(profiles[0][0], [make_config()])[0]
    assert np.all(multi <= clean + 1e-12)


def distinct_eigenpairs(bs):
    """`bs` with every link holding its own tuple of the same eigenpair
    arrays: no theta is shared (`basis` is None), so the statistical
    receiver takes the `eigh` of the local sum of the same statistics."""
    links = []
    for cell in bs.links:
        copies = []
        for p in cell:
            link = copy.copy(p)
            link.theta_eig = tuple(list(p.theta_eig))
            copies.append(link)
        links.append(copies)
    return BSStatistics(links, bs.j)


@pytest.mark.parametrize("kappa_max", [0.0, 2.0])
@pytest.mark.parametrize("layout", ["single_cell", "three_cell_edge"])
@pytest.mark.parametrize("correlation", ["exponential", "identity"])
def test_stat_theta_basis_matches_eigh(correlation, layout, kappa_max):
    # the analytic eigenpair (sum_k lam_jk, V) of a shared theta and the
    # eigh of the local image give the same SE and combiner
    three = {"layout": "three_cell_edge", "l": 3, "placement": "cell_edge"}
    spec = ScenarioSpec(
        n=16, k=4, t=50, seed=11, correlation=correlation, kappa_max=kappa_max,
        snr_grid_db=(-10.0, 0.0, 20.0, 40.0), **(three if layout == "three_cell_edge" else {}),
    )
    scenario = build_scenario(spec)
    configs = [spec.system_config(snr) for snr in spec.snr_grid_db]
    solved = [distinct_eigenpairs(bs) for bs in scenario.profiles]
    assert all(bs.basis is not None for bs in scenario.profiles)
    assert all(bs.basis is None for bs in solved)
    grid, reference = se_stat_multicell(scenario.profiles, configs), se_stat_multicell(solved, configs)
    no_los = scenario.kappas == 0
    assert np.all(grid[:, no_los] == 0.0) and not np.any(np.signbit(grid))
    assert np.all(reference[:, no_los] == 0.0)
    assert np.allclose(grid, reference, rtol=1e-12, atol=0.0)
    for j, bs in enumerate(scenario.profiles):
        for cfg in configs:
            g = statistical_combiner(bs[j], cfg.snr_data)
            g_ref = statistical_combiner(solved[j][j], cfg.snr_data)
            gap = np.linalg.norm(g - g_ref, axis=0)
            assert np.all(gap <= 1e-12 * np.linalg.norm(g_ref, axis=0))


@pytest.mark.parametrize("layout", ["single_cell", "three_cell_edge"])
def test_stat_one_ring_grid_takes_one_eigh_per_bs_and_no_solve(layout, monkeypatch):
    # one-ring links share no theta, so each BS takes one eigh of its local
    # sum and reads the whole grid in that basis: no N x N solve, and the
    # grid equals its one-point calls
    three = {"layout": "three_cell_edge", "l": 3, "placement": "cell_edge"}
    spec = ScenarioSpec(
        n=16, k=4, t=50, seed=11, correlation="one_ring", kappa_max=2.0,
        snr_grid_db=(-10.0, 0.0, 20.0, 40.0), **(three if layout == "three_cell_edge" else {}),
    )
    scenario = build_scenario(spec)
    rho_ds = [spec.system_config(snr).snr_data for snr in spec.snr_grid_db]
    calls = {"eigh": [], "solve": []}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls[_name].append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    grids = [statistical_resolvent(bs, rho_ds) for bs in scenario.profiles]
    assert all(bs.basis is None for bs in scenario.profiles)
    assert calls["eigh"] == [(16, 16)] * scenario.n_cells
    assert calls["solve"] == []
    for bs, grid in zip(scenario.profiles, grids):
        for p, rho_d in enumerate(rho_ds):
            for stacked, single in zip(grid, statistical_resolvent(bs, [rho_d])):
                assert np.allclose(stacked[p], single[0], rtol=1e-14, atol=0.0)
    # the one-point calls reuse each BS's eigenpair
    assert len(calls["eigh"]) == scenario.n_cells and calls["solve"] == []


def test_stat_rayleigh_user_gets_zero_se():
    n = 8
    profiles = [
        build_profile(1.0, 0.0, np.eye(n, dtype=complex), los_steering(0.1, n)),
        build_profile(1.0, 2.0, np.eye(n, dtype=complex), los_steering(0.8, n)),
    ]
    se = se_stat_singlecell(profiles, [make_config()])[0]
    assert se[0] == 0.0
    assert se[1] > 0.0
