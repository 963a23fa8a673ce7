import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from lmmse_oracle import dense_lmmse

from rician_mimo import spectral_efficiency
from rician_mimo.asymptotics import se_stat_singlecell_de
from rician_mimo.channel import (
    build_profile,
    exponential_correlation,
    los_steering,
    one_ring_correlation,
    standard_complex_normal,
)
from rician_mimo.combining import conventional_combiner, statistical_combiner
from rician_mimo.config import SystemConfig
from rician_mimo.estimation import BSStatistics
from rician_mimo.presets import preset_specs
from rician_mimo.scenarios import ScenarioSpec, build_scenario
from rician_mimo.spectral_efficiency import (
    BLOCK_TRIALS,
    SEReport,
    conventional_mc,
    mc_log_moments,
    se_stat_multicell,
    se_stat_singlecell,
)


def tiny_profiles(n=8, k=2, l=2, seed=0):
    """Per-BS statistics of a small synthetic network, profiles[bs][cell][user]."""
    rng = np.random.default_rng(seed)
    profiles = []
    for j in range(l):
        per_bs = []
        for ell in range(l):
            cell = []
            for _ in range(k):
                beta = rng.uniform(0.5, 1.5) if ell == j else rng.uniform(0.05, 0.2)
                kappa = rng.uniform(0.5, 3.0)
                theta = one_ring_correlation(
                    rng.uniform(-math.pi, -1.0), rng.uniform(0.0, 1.0), n
                )
                cell.append(
                    build_profile(
                        beta,
                        kappa,
                        theta,
                        los_steering(rng.uniform(-1.0, 1.0), n),
                        is_local=(ell == j),
                    )
                )
            per_bs.append(cell)
        profiles.append(BSStatistics(per_bs, j))
    return profiles


def make_config(**overrides):
    base = dict(
        n_antennas=8,
        n_users=2,
        n_cells=2,
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
    g = conventional_combiner(h_hat, np.linalg.inv(a_mat + (n / rho_d) * np.eye(n))).vectors[:, 0]

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
    assert np.array_equal(both[1][0].per_user_se, solo[0][0].per_user_se)


@pytest.mark.parametrize("cells", [1, 3])
def test_mc_configs_with_one_training_snr_share_one_estimator_key(monkeypatch, cells):
    # a fixed training SNR puts two data SNRs on one (tau, rho_tr) key: the
    # estimators are built once per (BS, user), and each config's report is
    # the one a solo call gives
    layout = {"layout": "three_cell_edge", "l": 3} if cells == 3 else {}
    spec = ScenarioSpec(n=8, k=2, t=50, correlation="exponential", seed=5,
                        snr_training_db=5.0, **layout)
    profiles = build_scenario(spec).profiles
    configs = [spec.system_config(0.0), spec.system_config(10.0)]
    assert configs[0].snr_data != configs[1].snr_data
    keys = {(c.training_len, c.snr_training) for c in configs}
    assert len(keys) == 1
    builds = []
    original = spectral_efficiency.build_estimator_multicell

    def counted(*args, **kwargs):
        builds.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral_efficiency, "build_estimator_multicell", counted)
    both = conventional_mc(profiles, configs, 5, seed=3)
    assert len(builds) == cells * spec.k
    for cfg, per_bs in zip(configs, both):
        [solo] = conventional_mc(profiles, [cfg], 5, seed=3)
        for rep, alone in zip(per_bs, solo):
            assert np.array_equal(rep.per_user_se, alone.per_user_se)
            assert np.array_equal(rep.se_stderr, alone.se_stderr)


@pytest.mark.parametrize(
    "cells, n, trials",
    [
        pytest.param(1, 8, 3, id="1"),
        pytest.param(3, 8, 3, id="3"),
        # odd N: the real basis has a middle row of its own
        pytest.param(1, 7, 3, id="1-odd_n"),
        pytest.param(3, 7, 3, id="3-odd_n"),
        # one full block of trials and a partial one
        pytest.param(1, 8, BLOCK_TRIALS + 3, id="1-blocks"),
        pytest.param(3, 8, BLOCK_TRIALS + 3, id="3-blocks"),
    ],
)
def test_mc_log_moments_match_dense_replay(cells, n, trials):
    # replay the kernel's draws (per-trial SeedSequence, z then w) through
    # dense inverse-based estimators and an N x N solve for the combiner
    k, seed = 2, 7
    profiles = tiny_profiles(n=n, k=k, l=cells, seed=4)
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
    reports = conventional_mc(profiles, points, 2, spec.seed)
    logs = [mc_log_moments(profiles, points, spec.seed, t, 1)[0] for t in range(2)]
    for p_idx, (pt, per_bs) in enumerate(zip(points, reports)):
        rep = per_bs[0]
        for k in range(spec.k):
            x = [Fraction(float(log[p_idx, 0, k])) for log in logs]
            mean = sum(x) / 2
            var = sum((v - mean) ** 2 for v in x)  # 1/(trials - 1) = 1
            exact = pt.prelog * math.sqrt(var / 2)
            assert abs(rep.se_stderr[k] - exact) <= 1e-12 * exact


def test_mc_reports_scale_by_config_prelog_and_log_base():
    # each report is its config's prelog and log-base scale times the
    # kernel's moments, so configs of different tau and log base share draws
    profiles = tiny_profiles(seed=6)
    trials = 4
    configs = [point(5, 1.0, 1.0), point(2, 1.0, 1.0, log_base="base2")]
    mean, m2 = mc_log_moments(profiles, configs, 1, 0, trials)
    reports = conventional_mc(profiles, configs, trials, seed=1)
    for p_idx, (cfg, per_bs) in enumerate(zip(configs, reports)):
        for j, rep in enumerate(per_bs):
            stderr = np.sqrt(m2[p_idx, j] / (trials - 1) / trials)
            assert np.array_equal(rep.per_user_se, cfg.prelog * mean[p_idx, j] * cfg.log_scale)
            assert np.array_equal(rep.se_stderr, cfg.prelog * stderr * cfg.log_scale)
    assert configs[0].prelog == 1.0 - 5 / 50
    assert configs[1].log_scale == 1.0 / math.log(2.0)


def test_mc_rejects_zero_trials():
    profiles = tiny_profiles(seed=7)
    with pytest.raises(ValueError):
        conventional_mc(profiles, [point(2, 1.0, 1.0)], 0, seed=1)


def test_report_rejects_negative_se():
    with pytest.raises(ValueError):
        SEReport(per_user_se=np.array([-0.1]), se_stderr=np.zeros(1))


def test_log_base_scaling():
    profiles = tiny_profiles(seed=8)[0][0]
    nats = se_stat_singlecell(profiles, [make_config(n_cells=1, log_base="natural")])[0]
    bits = se_stat_singlecell(profiles, [make_config(n_cells=1, log_base="base2")])[0]
    assert np.allclose(bits.per_user_se, nats.per_user_se / math.log(2.0))


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
    cfg = make_config(
        n_antennas=n, n_users=k, n_cells=cells, training_len=k, snr_data=rho_d, log_base="natural"
    )
    multi = se_stat_multicell(profiles, [cfg])[0]
    for j, bs in enumerate(profiles):
        single, multi_sinr = leave_one_out_sinrs(bs, j, rho_d)
        assert_matches_oracle(se_stat_singlecell(bs[j], [cfg])[0].per_user_se, single)
        assert_matches_oracle(multi[j].per_user_se, multi_sinr)
        full, los_only = se_stat_singlecell_de(bs[j], cfg)
        assert_matches_oracle(full, single)
        assert_matches_oracle(los_only, leave_one_out_sinrs(bs, j, rho_d, scattered=False)[0])


def test_stat_los_only_form_finite_at_160_db():
    # the LoS resolvent never divides by 1 - h_bar^H (...)^{-1} h_bar, which
    # rounds to 0 when the noise loading vanishes against the LoS gram
    n, k = 16, len(ORACLE_KAPPAS)
    local = oracle_profiles(1, n)[0][0]
    cfg = make_config(n_antennas=n, n_users=k, n_cells=1, training_len=k, snr_data=1e16)
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
    cfg = make_config(n_cells=1, n_users=3, training_len=3, log_base="natural")
    rep = se_stat_singlecell(profiles, [cfg])[0]

    g = statistical_combiner(profiles, cfg.snr_data).vectors
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
        assert rep.per_user_se[u] == pytest.approx(se, rel=0.02)


def test_stat_multicell_reduces_to_singlecell():
    # one statistical SE: with R_out = 0 the multi-cell SINR is c_k / m_k
    # exactly, the full form of the single-cell equivalent
    cfg = make_config(n_cells=1)
    for seed in range(10):
        local = tiny_profiles(seed=seed)[0][0]
        single = se_stat_singlecell(local, [cfg])[0]
        multi = se_stat_multicell([BSStatistics([local], 0)], [cfg])[0][0]
        assert np.array_equal(single.per_user_se, multi.per_user_se), seed
        assert np.array_equal(se_stat_singlecell_de(local, cfg)[0], multi.per_user_se), seed


def test_stat_multicell_interference_hurts():
    profiles = tiny_profiles(seed=12)
    cfg = make_config()
    multi = se_stat_multicell(profiles, [cfg])[0][0]
    clean = se_stat_singlecell(profiles[0][0], [make_config(n_cells=1)])[0]
    assert np.all(multi.per_user_se <= clean.per_user_se + 1e-12)
    # the exact statistical SE has no Monte Carlo standard error
    assert multi.se_stderr is None


def test_stat_rayleigh_user_gets_zero_se():
    n = 8
    profiles = [
        build_profile(1.0, 0.0, np.eye(n, dtype=complex), los_steering(0.1, n)),
        build_profile(1.0, 2.0, np.eye(n, dtype=complex), los_steering(0.8, n)),
    ]
    rep = se_stat_singlecell(profiles, [make_config(n_cells=1)])[0]
    assert rep.per_user_se[0] == 0.0
    assert rep.per_user_se[1] > 0.0
