"""Empirical (Monte Carlo) and exact spectral-efficiency evaluation.

Conventional combining is evaluated by Monte Carlo over channel draws with
the interference, estimation-error and noise terms computed as closed-form
conditional expectations given the estimates (no nested Monte Carlo).
Statistical combining needs no draws at all: its combiner and SINR
expectations come from one K x K LoS resolvent (`combining.los_resolvent`).

Draws are seeded per trial from (master seed, trial index), so any subset of
SNR/tau points re-evaluated with the same seed sees identical channels
(common random numbers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import UserLinkProfile, real_basis, real_matmul, standard_complex_normal
from .combining import conventional_combiner, statistical_resolvent
from .config import SystemConfig
from .estimation import (
    build_estimator_multicell,
    pilot_stacks,
    regularizer_sums,
    same_pilot_spectrum,
)

Profiles = list[list[list[UserLinkProfile]]]  # [bs][cell][user]


@dataclass(frozen=True)
class MCPoint:
    """One evaluation point of the conventional Monte Carlo sweep."""

    tau: int
    rho_d: float
    rho_tr: float


@dataclass
class SEReport:
    """Per-user SE for one scheme at one operating point."""

    per_user_se: np.ndarray
    se_stderr: np.ndarray
    scheme: str  # conv_single | stat_single | conv_multi | stat_multi
    trials: int
    seed: int
    prelog: float

    def __post_init__(self):
        if np.any(self.per_user_se < 0):
            raise ValueError("spectral efficiencies must be non-negative")


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


class _ScenarioArrays:
    """Key-independent real-basis stacks for the per-trial sampling and
    estimation.

    Per BS j: the images Q^H R^{1/2} Q of every link, stacked (L, K, N, N);
    the LoS means Q^H h_bar of the local links and the sum of the other
    cells', (K, N) each; and the `PilotStacks` of the K same-pilot spectra.
    """

    def __init__(self, profiles: Profiles):
        self.L = len(profiles)
        self.K = len(profiles[0][0])
        self.N = profiles[0][0][0].n_antennas
        self.sqrt_r, self.h_bar, self.los_rest, self.stacks = [], [], [], []
        for j, bs in enumerate(profiles):
            self.sqrt_r.append(np.array([[p.sqrt_r_image for p in cell] for cell in bs]))
            los = real_basis(np.array([[p.h_bar for p in cell] for cell in bs]))
            self.h_bar.append(los[j])
            self.los_rest.append(sum((los[ell] for ell in range(self.L) if ell != j), 0))
            spectra = [same_pilot_spectrum([cell[k] for cell in bs]) for k in range(self.K)]
            self.stacks.append(pilot_stacks(spectra, j))


class _EstimatorArrays:
    """Per-BS shrinkage vectors f, and the real regularizer eigenpair and
    image of B, of one (tau, rho_tr) key."""

    def __init__(self, profiles: Profiles, tau: int, rho_tr: float):
        L = len(profiles)
        K = len(profiles[0][0])
        self.tau_rho = tau * rho_tr
        self.shrink = []  # per bs: (K, N)
        self.a_eig = []  # per bs: eigh of the combiner regularizer's image
        self.b_mat = []  # per bs: image of the error + interference covariance
        for j in range(L):
            states = [
                build_estimator_multicell([profiles[j][ell][k] for ell in range(L)], j, tau, rho_tr)
                for k in range(K)
            ]
            a_mat, b_mat = regularizer_sums(states)
            self.shrink.append(np.stack([s.shrink for s in states]))
            self.a_eig.append(np.linalg.eigh(a_mat))
            self.b_mat.append(b_mat)


def mc_log_moments(
    profiles: Profiles,
    points: list[MCPoint],
    seed: int,
    trial_start: int,
    trial_count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and centered sum of squares M2 of log(1+SINR) over a contiguous
    trial range, each (points, L, K).

    Each trial is seeded from (seed, trial index) alone.  Every chunk of
    `_chunk_ranges` gives its own (count, mean, M2), and the chunks are
    merged pairwise in that order (Chan, Golub & LeVeque, 1983), so the
    result depends only on the seed and the trial range and the variance
    is never a difference of large sums.

    The draws z and w are rotated into the real basis once per trial; the
    estimates, the combiner and the SINR terms, all invariant under the
    unitary Q, are evaluated there.
    """
    arr = _ScenarioArrays(profiles)
    keys = list(dict.fromkeys((pt.tau, pt.rho_tr) for pt in points))
    ests = [_EstimatorArrays(profiles, *key) for key in keys]
    key_of = [keys.index((pt.tau, pt.rho_tr)) for pt in points]
    L, K, N = arr.L, arr.K, arr.N
    logs = np.zeros((len(points), L, trial_count, K))
    for idx in range(trial_count):
        rng = _trial_rng(seed, trial_start + idx)
        z = [[standard_complex_normal(rng, K, N) for _ in range(L)] for _ in range(L)]
        w = [standard_complex_normal(rng, K, N) for _ in range(L)]
        # per BS, the local estimate and the interferers' conditional means
        # P_jlk diag(f) V_jk^T (y - h_bar) for every key at once: y - h_bar
        # is the channel part plus w / sqrt(tau*rho_tr), so one rotation of
        # each part serves every key
        fits = []
        for j in range(L):
            stacks = arr.stacks[j]
            scattered = real_matmul(arr.sqrt_r[j], real_basis(np.array(z[j]))[..., None])
            channel = arr.los_rest[j] + np.sum(scattered[..., 0], axis=0)
            rot = real_matmul(stacks.vecs_t, np.stack([channel, real_basis(w[j])], axis=-1))
            x = np.stack(
                [e.shrink[j] * (rot[..., 0] + rot[..., 1] / math.sqrt(e.tau_rho)) for e in ests],
                axis=-1,
            )
            fits.append(real_matmul(stacks.proj_t.transpose(0, 1, 3, 2), x))  # (L, K, N, keys)
        for p_idx, pt in enumerate(points):
            q = key_of[p_idx]
            est = ests[q]
            for j in range(L):
                hh = (arr.h_bar[j] + fits[j][j, ..., q]).T  # (N, K)
                comb = conventional_combiner(hh, est.a_eig[j], pt.rho_d)
                g = comb.vectors
                gh = g.conj().T
                p_mat = gh @ hh  # p[k, i] = g_k^H h_hat_i
                sig = np.abs(np.diag(p_mat)) ** 2
                intra = np.sum(np.abs(p_mat) ** 2, axis=1) - sig
                err = np.real(np.sum(g.conj() * real_matmul(est.b_mat[j], g), axis=0))
                inter = np.zeros(K)
                for ell in range(L):
                    if ell != j:
                        inter += np.sum(np.abs(gh @ fits[j][ell, ..., q].T) ** 2, axis=1)
                noise = (N / pt.rho_d) * np.sum(np.abs(g) ** 2, axis=0)
                sinr = sig / (intra + err + inter + noise)
                logs[p_idx, j, idx] = np.log1p(sinr)
    parts = []
    for start, count in _chunk_ranges(trial_count):
        chunk = logs[:, :, start : start + count]
        mean = np.mean(chunk, axis=2)
        parts.append((count, mean, np.sum((chunk - mean[:, :, None]) ** 2, axis=2)))
    while len(parts) > 1:
        merged = [_merge_moments(a, b) for a, b in zip(parts[::2], parts[1::2])]
        parts = merged + parts[2 * len(merged) :]
    _, mean, m2 = parts[0]
    return mean, m2


def _merge_moments(a: tuple, b: tuple) -> tuple:
    """(count, mean, M2) of the union of two disjoint sets of samples."""
    (n_a, mean_a, m2_a), (n_b, mean_b, m2_b) = a, b
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * (n_b / n), m2_a + m2_b + delta**2 * (n_a * n_b / n)


def _chunk_ranges(trials: int) -> list[tuple[int, int]]:
    # fixed chunk layout, so the floating-point reduction order (and hence
    # the output bytes) depends on the trial count alone
    n_chunks = min(trials, 16)
    base, extra = divmod(trials, n_chunks)
    ranges = []
    start = 0
    for c in range(n_chunks):
        count = base + (1 if c < extra else 0)
        ranges.append((start, count))
        start += count
    return ranges


def conventional_mc(
    profiles: Profiles,
    points: list[MCPoint],
    coherence_len: int,
    trials: int,
    seed: int,
    log_scale: float = 1.0,
) -> list[list[SEReport]]:
    """Monte Carlo SE of conventional combining, all cells, all points.

    Returns reports[point][bs].  Estimators are shared between points with
    equal (tau, rho_tr); channel and pilot-noise draws are shared by all
    points of a trial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    L = len(profiles)
    K = len(profiles[0][0])
    mean, m2 = mc_log_moments(profiles, points, seed, 0, trials)
    out = []
    for p_idx, pt in enumerate(points):
        prelog = 1.0 - pt.tau / coherence_len
        per_bs = []
        for j in range(L):
            var = m2[p_idx, j] / (trials - 1) if trials > 1 else np.zeros(K)
            se = prelog * mean[p_idx, j] * log_scale
            stderr = prelog * np.sqrt(var / trials) * log_scale
            per_bs.append(
                SEReport(
                    per_user_se=se,
                    se_stderr=stderr,
                    scheme="conv_single" if L == 1 else "conv_multi",
                    trials=trials,
                    seed=seed,
                    prelog=prelog,
                )
            )
        out.append(per_bs)
    return out


def se_stat_singlecell(profiles: list[UserLinkProfile], config: SystemConfig) -> SEReport:
    """Exact SE of single-cell statistical combining (no Monte Carlo needed).

    Uses E[h_i h_i^H] = R_i + h_bar_i h_bar_i^H for every user, with the served
    user's LoS outer product excluded from the interference; the SINR is
    c_k / m_k of `combining.statistical_resolvent`.
    """
    m, c, _ = statistical_resolvent(profiles, config.snr_data)
    se = np.log1p(c / m) * config.log_scale
    return SEReport(se, np.zeros_like(se), "stat_single", trials=0, seed=0, prelog=1.0)


def se_stat_multicell(profiles: Profiles, config: SystemConfig) -> list[SEReport]:
    """Exact SE of statistical combining under full inter-cell interference.

    The combiner u_k of `combining.statistical_resolvent` sees local statistics
    only; the other cells' links (no LoS) add R_out = sum_{l != j, i} R_jli:
    SINR_k = c_k^2 / (c_k m_k + u_k^H R_out u_k).
    """
    reports = []
    for j, bs in enumerate(profiles):
        m, c, u = statistical_resolvent(bs[j], config.snr_data)
        out_links = (p.r_cov for ell, cell in enumerate(bs) if ell != j for p in cell)
        r_out = sum(out_links, np.zeros((len(u), len(u))))
        den = c * m + np.real(np.sum(u.conj() * (r_out @ u), axis=0))
        # a user without LoS has c_k = 0 and u_k = 0 exactly, hence 0/0;
        # select on that exact zero, not on the sign of a computed denominator
        sinr = np.divide(c * c, den, out=np.zeros_like(c), where=c != 0)
        se = np.log1p(sinr) * config.log_scale
        scheme = "stat_single" if len(profiles) == 1 else "stat_multi"
        reports.append(SEReport(se, np.zeros_like(se), scheme, trials=0, seed=0, prelog=1.0))
    return reports
