"""Empirical (Monte Carlo) and exact spectral-efficiency evaluation, in nats.

Conventional combining is evaluated by Monte Carlo over channel draws with
the interference, estimation-error and noise terms computed as closed-form
conditional expectations given the estimates (no nested Monte Carlo).  The
draws are taken and projected a block of trials at a time, so the
key-independent N x N stacks multiply matrices, not vectors.  In a single
cell those terms sum to the combiner's own regularizer, and the SINR is
read off the K x K gram by the MMSE identity (`combining.conventional_sinr`)
without forming a combiner.
Statistical combining needs no draws at all: its combiner and SINR
expectations come from one K x K LoS resolvent of each BS's whole SNR grid
(`combining.statistical_resolvent`).

Draws are seeded per trial from (master seed, trial index), so any subset of
SNR/tau points re-evaluated with the same seed sees identical channels
(common random numbers).
"""

from __future__ import annotations

import math

import numpy as np

from .channel import UserLinkProfile, real_basis, real_matmul, standard_complex_normal
from .combining import conventional_combiner, conventional_sinr, statistical_resolvent
from .config import SystemConfig
from .estimation import BSStatistics, regularizer_sums

Profiles = list[BSStatistics]  # [bs], each indexing [cell][user] like its links


def _checked(se: np.ndarray) -> np.ndarray:
    # NaN fails every comparison, so test for the valid values
    if not np.all(se >= 0):
        raise ValueError("spectral efficiencies must be non-negative")
    return se


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


# trials drawn, rotated and evaluated together: every key-independent
# N x N factor (a link's eigenvectors, the stacked V_k^T) multiplies a
# (..., N, BLOCK_TRIALS) operand, wide enough for a matrix-matrix product
# and small enough to stay in cache
BLOCK_TRIALS = 8


class _EstimatorArrays:
    """Per-BS shrinkage vectors f of one (tau, rho_tr) key, and for each
    data SNR rho_d of the key's points the SPD inverse
    M = (A + (N/rho_d) I)^{-1} of the regularizer image A, plus the image
    of B where it differs from A (more than one cell)."""

    def __init__(self, stats: list[BSStatistics], tau: int, rho_tr: float, rho_ds: list[float]):
        self.tau_rho = tau * rho_tr
        self.shrink = []  # per bs: (K, N)
        self.m_inv = []  # per bs: rho_d -> M
        self.b_mat = []  # per bs, multi-cell only: image of the error + interference covariance
        for bs in stats:
            shrink, a_mat, b_mat = regularizer_sums(bs, tau, rho_tr)
            n = len(a_mat)
            self.shrink.append(shrink)
            self.m_inv.append(
                {rho_d: np.linalg.inv(a_mat + (n / rho_d) * np.eye(n)) for rho_d in rho_ds}
            )
            if len(stats) > 1:
                self.b_mat.append(b_mat)

    def fits(self, j: int, bs: BSStatistics, rot: np.ndarray) -> np.ndarray:
        """P_jlk diag(f) V_jk^T (y - h_bar) of BS j for every cell l, user k
        and trial of a block, (L, K, N, trials): the served estimates minus
        their LoS (l = j) and the interferers' conditional means.  `rot` is
        the block's V^T-rotated channel part and pilot noise side by side,
        (K, N, 2 * trials) (`_rotated_draws`).  On a same-basis BS, where
        P_lk = V_k diag(lam_lk), this is V_k (lam_lk f_k * rot); otherwise
        the stored P_lk multiply f_k * rot."""
        trials = rot.shape[-1] // 2
        x = self.shrink[j][..., None] * (rot[..., :trials] + rot[..., trials:] / math.sqrt(self.tau_rho))
        if bs.same_basis:
            return real_matmul(bs.vecs.transpose(1, 0, 2), bs.eigvals[..., None] * x)
        return real_matmul(bs.proj.transpose(0, 2, 1, 3), x)


def _rotated_draws(
    stats: list[BSStatistics], sqrt_lam: list[np.ndarray], seed: int, first: int, count: int
) -> list[np.ndarray]:
    """Per BS, V_k^T of the channel part and of the pilot noise of y - h_bar
    for trials first .. first + count - 1, side by side: (K, N, 2 * count).

    Each trial keeps its own generator and draws z for every (BS, cell),
    then w for every BS.  The block is rotated into the real basis once,
    and each link's scattered part Q^H R^{1/2} Q z is read off its own
    eigenpair as V (sqrt(lam) * (V^T z)), with `sqrt_lam[j]` the (L, K, N)
    square roots of BS j's clamped eigenvalues; no N x N R^{1/2} image is
    formed.  The other cells' links carry no LoS (is_local=False sets
    h_bar = 0), so the channel part of y - h_bar is the sum of the
    scattered parts.  On a same-basis BS every link of group k holds V_k,
    so V_k^T V_k = I cancels: one product V_k^T [z_0k ... z_(L-1)k w_k]
    per group gives the rotated noise and the rotated channel part
    sum_l sqrt(lam_lk) * (V_k^T z_lk).  Otherwise each link's part takes two
    real products on the block's interleaved real and imaginary columns,
    into two reused buffers, and their sum is rotated by the group's V_k^T.
    """
    cells, users, n = sqrt_lam[0].shape
    z = np.empty((count, cells, cells, users, n), dtype=complex)
    w = np.empty((count, cells, users, n), dtype=complex)
    for t in range(count):
        rng = _trial_rng(seed, first + t)
        for j in range(cells):
            for ell in range(cells):
                z[t, j, ell] = standard_complex_normal(rng, users, n)
        for j in range(cells):
            w[t, j] = standard_complex_normal(rng, users, n)
    z = np.ascontiguousarray(np.moveaxis(real_basis(z), 0, -1))  # (L, L, K, N, count)
    w = np.moveaxis(real_basis(w), 0, -1)  # (L, K, N, count)
    # real and imaginary parts as interleaved real columns, (L, L, K, N, 2 * count)
    z_re = z.view(np.float64)
    scaled, term = np.empty((2, n, 2 * count))
    rot = []
    for j, bs in enumerate(stats):
        # (K, N, N), the k-th slice V_k^T
        vecs_t = bs.vecs.transpose(1, 2, 0)
        if bs.same_basis:
            # (K, N, (L + 1) * count): V_k^T z_lk for every cell l, then V_k^T w_k
            block = np.concatenate([*z[j], w[j]], axis=-1)
            parts = np.split(real_matmul(vecs_t, block), cells + 1, axis=-1)
            channel = sum(root[..., None] * part for root, part in zip(sqrt_lam[j], parts[:-1]))
            rot.append(np.concatenate([channel, parts[-1]], axis=-1))
            continue
        channel = np.zeros((users, n, count), dtype=complex)
        channel_re = channel.view(np.float64)
        for ell, cell in enumerate(bs):
            for k, link in enumerate(cell):
                v = link.eigvecs
                np.matmul(v.T, z_re[j, ell, k], out=scaled)
                scaled *= sqrt_lam[j][ell, k, :, None]
                channel_re[k] += np.matmul(v, scaled, out=term)
        rot.append(real_matmul(vecs_t, np.concatenate([channel, w[j]], axis=-1)))
    return rot


def mc_log_moments(
    profiles: Profiles,
    points: list[SystemConfig],
    seed: int,
    trial_start: int,
    trial_count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and centered sum of squares M2 of log(1+SINR) over a contiguous
    trial range, each (points, L, K).  A point's estimator key is its
    (training_len, snr_training) and its data SNR is `snr_data`.

    Each trial is seeded from (seed, trial index) alone, so the result
    depends only on the seed and the trial range.  Every trial's log is
    held, and M2 is summed about the mean in a second pass, so the variance
    is never a difference of large sums.

    Trials run in blocks of `BLOCK_TRIALS`, whose draws are rotated into the
    real basis once (`_rotated_draws`); the estimates, the combiner and the
    SINR terms, all invariant under the unitary Q, are evaluated there.
    Each key's fits of a block are formed when a point first needs them,
    and only one key's are kept.  In a single cell the SINR's covariance B
    is the regularizer A, and `conventional_sinr` reads the block's SINR
    off the K x K gram; with more cells every trial point forms the
    combiner and the closed-form conditional SINR terms.  Per BS the kernel
    reads its `BSStatistics`, `profiles[j]`, and draws every link's
    channel from the link's own eigenpair: its eigenvectors as they are,
    and the square roots of its clamped eigenvalues, taken once per call
    as an (L, K, N) array.  No R^{1/2} image is formed, and on a same-basis
    BS (every single cell) the draws and fits read (V_k, lam_lk) and no
    projection V_k diag(lam_lk).
    """
    L, K = len(profiles), len(profiles[0][0])
    sqrt_lam = [np.sqrt(bs.eigvals) for bs in profiles]
    key_of = [(pt.training_len, pt.snr_training) for pt in points]
    ests = {}
    for key in dict.fromkeys(key_of):
        rho_ds = [pt.snr_data for pt, k in zip(points, key_of) if k == key]
        ests[key] = _EstimatorArrays(profiles, *key, rho_ds)
    logs = np.zeros((len(points), L, trial_count, K))
    for start in range(0, trial_count, BLOCK_TRIALS):
        count = min(BLOCK_TRIALS, trial_count - start)
        rot = _rotated_draws(profiles, sqrt_lam, seed, trial_start + start, count)
        fits_key, fits = None, []
        for p_idx, pt in enumerate(points):
            est = ests[key_of[p_idx]]
            if fits_key is not est:
                fits_key, fits = est, [est.fits(j, bs, r) for j, (bs, r) in enumerate(zip(profiles, rot))]
            for j, bs in enumerate(profiles):
                # the served estimates, (N, trials, K)
                h_hat = bs.h_bar[:, None, :] + fits[j][j].transpose(1, 2, 0)
                if L == 1:
                    sinr = conventional_sinr(h_hat, est.m_inv[j][pt.snr_data])
                else:
                    sinr = [
                        _conditional_sinr(h_hat[:, t], fits[j][..., t], j, est, pt.snr_data)
                        for t in range(count)
                    ]
                logs[p_idx, j, start : start + count] = np.log1p(sinr)
        # free this block's draws and fits before the next block is drawn
        del rot, fits
    mean = logs.mean(axis=2)
    m2 = ((logs - mean[:, :, None]) ** 2).sum(axis=2)
    return mean, m2


def _conditional_sinr(
    h_hat: np.ndarray, fits: np.ndarray, j: int, est: _EstimatorArrays, rho_d: float
) -> np.ndarray:
    """SINR of BS j's conventional combiner in one trial, from the served
    estimates (N, K) and every cell's fits (L, K, N): signal over intra-cell
    interference, estimation error and conditional inter-cell interference
    (the quadratic form of B) and noise, each a closed-form conditional
    expectation given the estimates."""
    n = len(h_hat)
    g = conventional_combiner(h_hat, est.m_inv[j][rho_d])
    gh = g.conj().T
    p_mat = gh @ h_hat  # p[k, i] = g_k^H h_hat_i
    sig = np.abs(np.diag(p_mat)) ** 2
    intra = np.sum(np.abs(p_mat) ** 2, axis=1) - sig
    err = np.real(np.sum(g.conj() * real_matmul(est.b_mat[j], g), axis=0))
    inter = np.zeros(len(sig))
    for ell in range(len(fits)):
        if ell != j:
            inter += np.sum(np.abs(gh @ fits[ell].T) ** 2, axis=1)
    noise = (n / rho_d) * np.sum(np.abs(g) ** 2, axis=0)
    return sig / (intra + err + inter + noise)


def conventional_mc(
    profiles: Profiles, configs: list[SystemConfig], trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Monte Carlo SE of conventional combining and its standard error, each
    (configs, BS, users) in nats; the standard error is None for one trial,
    whose spread is unknown.

    Estimators are shared between configs with equal (training_len,
    snr_training); channel and pilot-noise draws are shared by all configs
    of a trial.  Each config scales its logs by its own prelog.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    mean, m2 = mc_log_moments(profiles, configs, seed, 0, trials)
    prelog = np.array([c.prelog for c in configs])[:, None, None]
    stderr = prelog * np.sqrt(m2 / (trials - 1) / trials) if trials > 1 else None
    return _checked(prelog * mean), stderr


def se_stat_singlecell(profiles: list[UserLinkProfile], configs: list[SystemConfig]) -> np.ndarray:
    """Exact SE of single-cell statistical combining, (configs, users):
    `se_stat_multicell` of the one cell, whose SINR is c_k / m_k."""
    return se_stat_multicell([BSStatistics([profiles], 0)], configs)[:, 0]


def se_stat_multicell(profiles: Profiles, configs: list[SystemConfig]) -> np.ndarray:
    """Exact SE of statistical combining (no Monte Carlo needed) under full
    inter-cell interference, (configs, BS, users) in nats.

    Uses E[h_i h_i^H] = R_i + h_bar_i h_bar_i^H for every user, with the
    served user's LoS outer product excluded from the interference.  The
    combiner u_k of `combining.statistical_resolvent` sees local statistics
    only; the other cells' links (no LoS) add R_out = sum_{l != j, i} R_jli:
    SINR_k = c_k / (m_k + u_k^H R_out u_k / c_k), which is c_k / m_k in a
    single cell, where R_out = 0.  Each BS takes one `statistical_resolvent`
    call for the whole list of configs, from its `BSStatistics`, in the
    eigenbasis of its local covariance sum.
    """
    per_bs = []
    for bs in profiles:
        m, c, _, form = statistical_resolvent(bs, [config.snr_data for config in configs])
        # a user without LoS has c_k = 0 and u_k = 0 exactly, hence 0/0;
        # select on that exact zero, not on the sign of a computed denominator
        los = c != 0
        sinr = np.zeros_like(c)
        sinr[los] = c[los] / (m[los] + form[los] / c[los])
        per_bs.append(np.log1p(sinr))
    return _checked(np.stack(per_bs, axis=1))
