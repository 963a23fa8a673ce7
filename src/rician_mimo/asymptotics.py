"""Closed-form deterministic equivalents of the Monte Carlo SEs.

These are realization-free approximations in the long-term statistics, in
nats, that the Monte Carlo module cross-validates.  Every quantity comes from the exact
resolvent rewrite of the combiner: with A the combiner's regularizer and
Z = (I + (rho_d/N) A)^{-1}, all SINR terms are functions of the K x K matrix
Q = ((1/N) E[Hhat^H Z Hhat] + (1/rho_d) I)^{-1}.

Everything is evaluated in the estimator's real basis (`estimation`), where
Hbar is read already rotated by Q^H from the BS's `estimation.BSStatistics`;
every trace and LoS form is invariant under the unitary Q, so no operand is
mapped back to the antenna basis.

The conventional DE of one BS at one operating point is a function of that
BS's `BSStatistics` and one `SystemConfig` (tau, rho_tr and rho_d) only:
`build_q_multicell(bs, config)` builds its state and
`se_conv_multicell_de` its SE.  One cell is the L = 1 case, and the
single-cell names delegate to them.

The BS decides which of two evaluation modes runs, and both fill the same
state.  The refined mode keeps Z, which stays accurate at finite N even
when the regularizer dominates the noise loading.  It runs where every
link holds one correlation matrix's eigenpair (as `exponential` and
`identity` scenarios build; `BSStatistics.basis`), so every spectrum is a
multiple of theta's.  There A, B, Z and every R_tilde_i are diagonal, and
each contaminating conditional mean is exactly a multiple alpha of the
local estimate fluctuation, so the state is per-eigenvalue vectors, Hbar
rotated into V and K x K algebra: O(N K^2 + K^3) per SNR point, with no
N x N product or inverse.  It reads only the links' eigenvalues, so the BS
never builds its same-pilot stacks.  Every other BS takes the plain mode
(`_plain_state`), which replaces Z by I, the additional large-antenna
simplification used in the published closed forms: it reads the BS's
`estimation.key_shrinkage` f, and every trace is a weighted column sum of
the projections P_l and f; no R_tilde_i is formed.  Its contamination
gains are its cross traces.  Both modes coincide as N grows, and take Q
from `combining.resolvent`, the package's one K x K resolvent, which
`training`'s tau* curve reads too.

The statistical-combining equivalents read the same resolvent as the LoS
resolvent of the served links (`combining.statistical_resolvent`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import UserLinkProfile, real_matmul
from .combining import resolvent
from .config import SystemConfig
from .estimation import BSStatistics, build_estimator_multicell, key_shrinkage, regularizer_sums
from .spectral_efficiency import se_stat_singlecell


@dataclass
class AsymptoticState:
    """Q matrix and companions for the conventional-combining equivalents.

    Both modes fill every field.  The plain state's second-order fields are
    Q and zeros, its contamination gains are its cross traces and its
    contamination second moments |[Q]_ki|^2.
    """

    q_matrix: np.ndarray  # (K, K) Hermitian positive definite
    gram2: np.ndarray  # (1/N) E[Hhat^H Z^2 Hhat], drives the noise term
    t_matrix: np.ndarray  # quadratic-term matrix H^H ZXZ H + diag traces
    cross_traces: np.ndarray
    # cross_traces[m, i] = (1/N) tr(Z R_{j,l_m,i} Phi_{j,i} R_{j,j,i}) over
    # interfering cells l_m != j; (0, K) in a single cell
    contam_alpha: np.ndarray
    # contam_alpha[m, i]: the conditional mean of the contaminating link
    # (l_m, i) is contam_alpha[m, i] times the local estimate fluctuation e_i
    signal: np.ndarray  # per-user 1 - [q_mean]_kk / rho_d, formed without cancellation
    q_mean: np.ndarray  # E[Qtilde] including the resolvent bias Q E[Delta Q Delta] Q
    var_mat: np.ndarray  # var_mat[k, i] = Var([Qtilde]_ki), leading order
    noise_corr: np.ndarray  # per-user second-order shift of [Qtilde G2 Qtilde]_kk
    err_corr: np.ndarray  # per-user second-order shift of (1/N) [Qtilde T Qtilde]_kk
    contam_second: np.ndarray
    # contam_second[k, i] = E|(1/N)[Qtilde Hhat^H Z e_i]_k|^2, the second
    # moment of the resolvent-projected estimate fluctuation

    @property
    def n_users(self) -> int:
        return self.q_matrix.shape[0]


def _diag_gram(h: np.ndarray, r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(1/N)(H^H W H + diag(tr R_tilde_i W)) for the diagonal weight
    W = diag(w) on the common basis, where R_tilde_i is diag(r_i) and h the
    LoS columns: O(N K^2)."""
    g = h.conj().T @ (w[:, None] * h) + np.diag(r @ w)
    g = g / len(w)
    return 0.5 * (g + g.conj().T)


def _phi_traces(proj: np.ndarray, local: int, shrink: np.ndarray) -> np.ndarray:
    """tr(R_li Phi_i R_ji) = sum_c f_ic <P_li[:, c], P_ji[:, c]> for every
    same-pilot link l, with j = `local`: (L, K) from a BS's `proj` stack
    (L, N, K, N) and the stacked shrinkage (K, N), or (L,) from one
    estimator's (L, N, N) and (N,).  Row j is tr R_tilde_i.  An
    elementwise sum: no N x N product."""
    return np.einsum("lr...c,r...c,...c->l...", proj, proj[local], shrink)


def _second_order_moments(
    h: np.ndarray,
    r: np.ndarray,
    z: np.ndarray,
    zxz: np.ndarray,
    q: np.ndarray,
    gram: np.ndarray,
    gram2: np.ndarray,
    t_bar: np.ndarray,
    n: int,
    rho_d: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Leading fluctuation moments of Qtilde around Q = (gram + I/rho_d)^{-1}.

    The estimates hhat_i = hbar_i + e_i are independent Gaussians with
    covariance R_tilde_i, so every covariance of bilinear forms in the gram
    fluctuation Delta = (1/N) Hhat^H Z Hhat - E[.] reduces to the traces
    tr(Z R_tilde_i Z R_tilde_j) and the K x K matrices Hbar^H Z R_tilde_j Z
    Hbar.  Returns (signal 1 - [E Qtilde]_kk/rho_d, E[Qtilde],
    Var([Qtilde]_ki), noise shift, error shift, contamination second
    moment): the shifts are the second-order
    corrections of E[[Qtilde G_B Qtilde]_kk] for the noise gram (B = Z^2)
    and the error-term gram (B = Z A Z / N).
    Everything is on the common basis: `r`, `z` and `zxz` are the diagonals
    of R_tilde_i, Z and Z B Z, and `h` is Hbar rotated into the basis.  The
    grams W_m = Hbar^H Z Rt_m Z Hbar are never formed: they enter through
    tr(W_m X) = r_m . diag(Z Hbar X Hbar^H Z), the quadratic forms
    x^H W_m x = r_m . |Z Hbar x|^2 and sums sum_m c_m W_m, each O(N K^2).
    """
    zr = z * r
    t_t = zr @ zr.T
    t_t = 0.5 * (t_t + t_t.T)
    zh = z[:, None] * h

    def traces(right: np.ndarray, x: np.ndarray) -> np.ndarray:
        """[m] -> tr((Z Hbar)^H Rt_m right x), for W_m at right = Z Hbar."""
        return r @ np.sum((right @ x) * zh.conj(), axis=1)

    q_diag = np.real(np.diag(q))
    p_mat = np.abs(q) ** 2  # symmetric since q is Hermitian
    # E[Delta Q Delta] and the resolvent mean shift Q E[.] Q
    w_sum = zh.conj().T @ ((q_diag @ r)[:, None] * zh)  # sum_a q_aa W_a
    m_mat = w_sum + np.diag(t_t @ q_diag + np.real(traces(zh, q)))
    shift = q @ m_mat @ q / n**2
    shift = 0.5 * (shift + shift.conj().T)
    q_mean = q + shift  # Hermitian, as q is
    # Q (gram + I/rho_d) = I: I - E[Qtilde]/rho_d is Q gram - shift/rho_d,
    # with no cancellation at low SNR
    resid = q @ gram - shift / rho_d
    signal = np.real(np.diag(resid))
    # the exact identity Qtilde = Q - Qtilde Delta Q puts Qtilde (not Q) on
    # the left slot of every fluctuation, so evaluating that slot at E[Qtilde]
    # resums part of the higher orders
    qm = q_mean
    pm_mat = np.abs(qm) ** 2
    # w_left[k, m] = qm_k^H W_m qm_k
    w_left = (r @ np.abs(zh @ qm) ** 2).T
    w_right = (r @ np.abs(zh @ q) ** 2).T
    # Var([Qtilde]_ki) = E|[Qtilde Delta Q]_ki|^2 at leading order
    var_mat = (pm_mat @ t_t @ p_mat + w_left @ p_mat + (w_right @ pm_mat).T) / n**2
    var_mat = 0.5 * (var_mat + var_mat.T)

    def quad_shift(b_weight: np.ndarray, g_bar: np.ndarray) -> np.ndarray:
        """Second-order shift of E[[Qtilde G_B Qtilde]_kk] past qm G_B qm,
        for the random gram G_B = (1/N) Hhat^H B Hhat with mean g_bar."""
        # Qtilde fluctuations through the mean gram
        qgq = q @ g_bar @ q
        u_vec = np.real(np.diag(qgq))
        s_vec = np.real(traces(zh, qgq))  # tr(G Q W_m Q)
        b_vec = (pm_mat @ (t_t @ u_vec) + w_left @ u_vec + pm_mat @ s_vec) / n**2
        # anticorrelation between Qtilde and the fluctuation of G_B itself:
        # t1b[a, i] = tr(Z Rt_a B Rt_i), w1b[a] = Hbar^H Z Rt_a B Hbar
        t1b = zr @ (b_weight * r).T
        bh = b_weight[:, None] * h
        m1b = zh.conj().T @ ((q_diag @ r)[:, None] * bh) + np.diag(
            t1b.T @ q_diag + np.conj(traces(bh, q))
        )
        d_vec = -2.0 * np.real(np.einsum("ik,ij,jk->k", qm.conj(), m1b, qm)) / n**2
        return b_vec + d_vec

    noise_corr = quad_shift(z * z, gram2)
    err_corr = quad_shift(zxz, t_bar / n)

    # second moment of t_ki = (1/N)[Qtilde Hhat^H Z e_i]_k, the building
    # block of the pilot-contamination power.  The resolvent identity
    # Qtilde (1/N) Hhat^H Z Hhat = I - Qtilde / rho removes the product
    # of Qtilde with the large-mean gram exactly, leaving
    # t = (I - Qtilde/rho)_{:,i} - psi_{:,i} with the LoS projection
    # psi = (1/N) Qtilde Hhat^H Z Hbar.  The linear-in-error fluctuation
    # of psi collapses to (1/N) Q E^H Z v_i with
    # v_i = (hbar_i - Hbar y_i / N) / N, which performs the near-complete
    # cancellation between the direct and resolvent pieces analytically
    # before any second moment is taken.
    s0 = h.conj().T @ zh
    y_mat = q @ s0
    mu_psi = (qm @ s0) / n - (qm @ w_sum) / n**2
    zv = z[:, None] * (h - h @ (y_mat / n)) / n
    # vrv[m, i] = zv_i^H Rt_m zv_i, vrhq[m, i] = zv_i^H Rt_m (Z Hbar Q)_i
    # as q is Hermitian, (q W_m q)_kk is w_right[k, m]
    vrv = r @ np.abs(zv) ** 2
    ab = np.abs(y_mat) ** 2
    var_psi = p_mat @ vrv + (w_right @ ab + p_mat @ (t_t @ ab)) / n**4
    vrhq = r @ (zv.conj() * (zh @ q))
    qyc = q * y_mat.conj()
    cov_qpsi = -(p_mat @ vrhq) / n**2 + (w_right @ qyc + p_mat @ (t_t @ qyc)) / n**3
    mean_t = resid - mu_psi
    second = np.abs(mean_t) ** 2 + var_mat / rho_d**2 + var_psi + (2.0 / rho_d) * np.real(cov_qpsi)
    return signal, q_mean, var_mat, noise_corr, err_corr, second


def _refined_state(bs: BSStatistics, tau_rho: float, rho_d: float) -> AsymptoticState:
    """The refined state on the eigenbasis V of the one correlation matrix
    theta that every link holds (`bs.basis`).

    There A, B, Z, every R_tilde_i and every R_l Phi R_i are diagonal: with
    lam_l a link's eigenvalues, mu their same-pilot sum and
    f = 1/(mu + 1/(tau rho_tr)) the shrinkage, R_tilde_i is lam_i^2 f_i, the
    error (or conditional) covariance of link l is lam_l f (mu - lam_l + s),
    Z is 1/(1 + rho_d a/N) and each cross trace is sum_c z_c lam_l lam_i f_i.
    Only the links' eigenvalues are read: no same-pilot stack and no N x N
    matrix is formed.
    """
    h = bs.h_rot
    n = len(h)
    local, others = bs.j, bs.others
    # lam[l, i]: eigenvalues of link (l, i); mu[i] their sum, summed in the
    # order of the same-pilot spectra; f[i] the shrinkage
    lam = bs.eigvals
    mu = sum(lam[1:], lam[0])
    f = 1.0 / (mu + 1.0 / tau_rho)
    r = lam[local] ** 2 * f
    # R_l - R_l Phi R_l, written without cancellation
    cond = lam * f * (mu - lam + 1.0 / tau_rho)
    z = 1.0 / (1.0 + (rho_d / n) * (cond[local].sum(0) + lam[others].sum((0, 1))))
    zxz = z * z * cond.sum((0, 1))
    gram = _diag_gram(h, r, z)
    q = resolvent(gram, rho_d)[0]
    gram2 = _diag_gram(h, r, z * z)
    t_mat = n * _diag_gram(h, r, zxz)
    # cross[m, i] = (1/N) tr(Z R_{l_m} Phi_i R_i); a single cell has no l_m
    cross = (z * lam[others] * lam[local] * f).sum(-1) / n
    moments = _second_order_moments(h, r, z, zxz, q, gram, gram2, t_mat, n, rho_d)
    # every spectrum is a multiple of theta's, so the contaminating
    # conditional mean is exactly alpha e_i, alpha = tr(Z C_i R_i) / tr(Z Rtilde_i)
    alpha = n * cross / (r @ z)
    return AsymptoticState(q, gram2, t_mat, cross, alpha, *moments)


def _plain_state(bs: BSStatistics, config: SystemConfig) -> AsymptoticState:
    """The plain state (Z = I), the published closed forms.

    It reads the BS's same-pilot stacks and its `key_shrinkage` f: with P_l
    the projections `bs.proj[l]` (formed once per call from (V, lam) on a
    same-basis BS, which stores none), tr R_tilde_i and the cross traces
    come from `_phi_traces`, and tr(R_tilde_i B) from one
    (N, N) @ (N, K*N) product B P_j and a weighted column sum.  Q and the
    cancellation-free signal [QG]_kk are `resolvent`'s of the gram.
    """
    shrink, _, b_mat = regularizer_sums(bs, config.training_len, config.snr_training)
    h_bar = bs.h_bar
    n, k = h_bar.shape
    local = bs.j
    proj = bs.proj
    p_local = proj[local]
    # phi[l, i] = tr(R_l Phi_i R_i); row `local` is tr R_tilde_i
    phi = _phi_traces(proj, local, shrink)
    gram = (h_bar.conj().T @ h_bar + np.diag(phi[local])) / n
    gram = 0.5 * (gram + gram.conj().T)
    q, signal = resolvent(gram, config.snr_data)
    b_proj = (b_mat @ p_local.reshape(n, -1)).reshape(p_local.shape)
    tr_b = np.einsum("rkc,rkc,kc->k", b_proj, p_local, shrink)
    t_mat = h_bar.conj().T @ real_matmul(b_mat, h_bar) + np.diag(tr_b)
    # cross[m, i] = (1/N) tr(R_{l_m} Phi_i R_i); a single cell has no l_m
    cross = phi[bs.others] / n
    zeros = np.zeros(k)
    return AsymptoticState(
        q, gram, t_mat, cross, cross, signal, q, np.zeros((k, k)), zeros, zeros, np.abs(q) ** 2
    )


def build_q_singlecell(bs: BSStatistics, config: SystemConfig) -> AsymptoticState:
    """`build_q_multicell` of one cell."""
    return build_q_multicell(bs, config)


def build_q_multicell(bs: BSStatistics, config: SystemConfig) -> AsymptoticState:
    """State of BS j at one operating point, in one cell or several.

    `bs` is BS j's `BSStatistics` and `config` the operating point: tau,
    rho_tr and rho_d come from it.  Pilot i at BS j is shared by user i of
    every cell (none else in a single cell).  The regularizer adds the
    inter-cell covariances, and the quadratic term B of `regularizer_sums`
    keeps only the conditional covariances of the contaminating links
    (B = A in a single cell); their conditional-mean power is carried by
    the dedicated contamination model, matching the Monte Carlo split.

    The BS decides the mode: the refined state (`_refined_state`, which
    reads only the links' eigenvalues) where its links share one theta
    (`bs.basis`), and the plain state (`_plain_state`) otherwise.
    """
    if bs.basis is None:
        return _plain_state(bs, config)
    return _refined_state(bs, config.training_len * config.snr_training, config.snr_data)


def se_conv_singlecell_de(
    state: AsymptoticState,
    config: SystemConfig,
    include_estimation_error: bool = True,
) -> np.ndarray:
    """`se_conv_multicell_de` of one cell."""
    return se_conv_multicell_de(state, config, include_estimation_error)


def se_conv_favorable(bs: BSStatistics, config: SystemConfig) -> np.ndarray:
    """Favorable-propagation corollary of BS j: interference-free conventional SE."""
    shrink = key_shrinkage(bs, config.training_len, config.snr_training)
    # tr(R_tilde_i) = sum_c f_ic |P_ji[:, c]|^2
    traces = _phi_traces(bs.proj, bs.j, shrink)[bs.j]
    norms = np.array([np.real(p.h_bar.conj() @ p.h_bar) for p in bs.links[bs.j]])
    return config.prelog * np.log1p(config.snr_data / config.n_antennas * (traces + norms))


def se_conv_multicell_de(
    state: AsymptoticState,
    config: SystemConfig,
    include_estimation_error: bool = True,
) -> np.ndarray:
    """Conventional deterministic equivalent of one BS, in one cell or
    several: the theorem form.

    In refined mode the second moments E|[Qtilde]_ki|^2 = |E[.]|^2 + Var(.)
    replace the plain squared entries; in plain mode q_mean = Q and the
    variance terms are zero, giving the published expressions exactly.  The
    SINR denominator is (intra + noise) + err + inter.  The estimation-error
    quadratic err vanishes as N grows (with several cells it also carries
    the uncorrelated inter-cell interference); `include_estimation_error`
    False drops it, which on a plain state gives exactly the large-antenna
    limit expression, and in one cell under orthogonal LoS the
    favorable-propagation corollary.  The signal amplitude is the state's
    `signal`, which both modes form without cancellation, so the SE keeps
    its relative accuracy at very low SNR.  The inter-cell term of each
    contaminating link is contam_alpha^2 times contam_second, in both
    modes; a single cell has none.  A negative second moment is not
    clamped: it raises ValueError, a numerical failure.
    """
    q = state.q_mean
    rho = config.snr_data
    n = config.n_antennas
    num = state.signal**2 + np.diag(state.var_mat) / rho**2
    second = np.abs(q) ** 2 + state.var_mat
    den = (np.sum(second, axis=1) - np.diag(second)) / rho**2
    den = den + (np.real(np.diag(q @ state.gram2 @ q)) + state.noise_corr) / rho
    if include_estimation_error:
        quad = np.real(np.einsum("lk,lm,mk->k", q.conj(), state.t_matrix, q)) / n**2
        den = den + (quad + state.err_corr / n)
    # inter-cell contamination: the conditional mean of link (l, i) is
    # alpha_li e_i, so its power is sum_i alpha_li^2 E|(1/N)[Qtilde Hhat^H Z e_i]_k|^2
    if state.contam_alpha.size and np.any(state.contam_second < 0.0):
        raise ValueError("negative pilot-contamination second moment")
    inter = np.zeros(state.n_users)
    for alpha in state.contam_alpha:
        inter += np.sum(alpha**2 * state.contam_second, axis=1)
    return config.prelog * np.log1p(num / (den + inter))


def se_conv_expanded(
    state: AsymptoticState, config: SystemConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The published expanded form of the conventional equivalent:
    (SE, pilot-contamination term, uncorrelated term), per user.

    With g_k = rho_d/[Q]_kk - 1, evaluated as rho_d signal_k/[Q]_kk without
    cancellation, SINR_k = g_k^2 / (g_k + contam_k + uncorr_k): the i = k
    inter-cell term (rho_d c_lk)^2 and the i != k term
    |rho_d [Q]_ki c_li / [Q]_kk|^2, summed over the interfering cells l.  In
    one cell both vanish and the SE is the simplified
    prelog * log(rho_d/[Q]_kk) = prelog * log1p(g_k).  [Q] is the state's
    q_mean: Q on a plain state, E[Qtilde] on a refined one.  A tested
    reference of the published expressions; the rows read
    `se_conv_multicell_de`.
    """
    q = state.q_mean
    rho = config.snr_data
    q_diag = np.real(np.diag(q))
    contam = np.zeros(state.n_users)
    uncorr = np.zeros(state.n_users)
    for c in state.cross_traces:
        contam += (rho * c) ** 2
        off = np.abs(q / q_diag[:, None] * c[None, :] * rho) ** 2
        uncorr += np.sum(off, axis=1) - np.diag(off)
    gain = rho * state.signal / q_diag
    return config.prelog * np.log1p(gain**2 / (gain + contam + uncorr)), contam, uncorr


def se_stat_singlecell_de(
    profiles: list[UserLinkProfile],
    config: SystemConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Statistical-combining equivalents: (full form, LoS-only form).

    The full form is the exact SE of `se_stat_singlecell`, log(1 + c_k/m_k)
    of `combining.statistical_resolvent`; the LoS-only form is
    `se_stat_multicell_de`, which drops the vanishing scattered covariances.
    """
    return se_stat_singlecell(profiles, [config])[0], se_stat_multicell_de(profiles, config)


def se_stat_multicell_de(local_profiles: list[UserLinkProfile], config: SystemConfig) -> np.ndarray:
    """Large-N statistical corollary, from local statistics only; the rows
    report the exact `se_stat_multicell`.

    The LoS-only `resolvent` at rho = 1: C = (N/rho_d) I, so its gram is
    (rho_d/N) Hbar^H Hbar, with no N x N work.
    """
    h_bar = np.column_stack([p.h_bar for p in local_profiles])
    q, c = resolvent(h_bar.conj().T @ ((config.snr_data / config.n_antennas) * h_bar), 1.0)
    return np.log1p(c / np.real(np.diag(q)))


def pilot_contamination_term(
    profiles_same_pilot: list[UserLinkProfile],
    local_index: int,
    tau: float,
    rho_tr: float,
) -> float:
    """f(kappa) = (1/N) tr(sum_{l != j} R_{jlk} Phi_{jk} R_{jjk}); nonnegative,
    nonincreasing in the local Rician factor."""
    state = build_estimator_multicell(profiles_same_pilot, local_index, tau, rho_tr)
    phi = _phi_traces(state.spectrum.proj, local_index, state.shrink)
    return float(phi[state.others].sum() / state.n_antennas)
