"""Closed-form deterministic equivalents of the Monte Carlo SEs.

These are realization-free approximations in the long-term statistics that
the Monte Carlo module cross-validates.  Every quantity comes from the exact
resolvent rewrite of the combiner: with A the combiner's regularizer and
Z = (I + (rho_d/N) A)^{-1}, all SINR terms are functions of the K x K matrix
Q = ((1/N) E[Hhat^H Z Hhat] + (1/rho_d) I)^{-1}.

Everything is evaluated in the estimator's real basis (`estimation`), where
Hbar is read already rotated by Q^H from the BS's `estimation.BSStatistics`;
every trace and LoS form is invariant under the unitary Q, so no operand is
mapped back to the antenna basis.

Two evaluation modes are supported.  The refined mode (default) keeps Z,
which stays accurate at finite N even when the regularizer dominates the
noise loading.  It needs links whose covariances share one eigenbasis V
(one correlation matrix for every link, as `exponential` and `identity`
scenarios have; `BSStatistics.basis`): there A, B, Z and every R_tilde_i
are diagonal, so the state is per-eigenvalue vectors, Hbar rotated into V
and K x K algebra: O(N K^2 + K^3) per SNR point, with no N x N product or
inverse.  Links without a common basis raise ValueError.  The plain mode
replaces Z by I, the additional large-antenna simplification used in the
published closed forms, and reads the BS's same-pilot stacks (the
projections P_l and the shrinkage f) and B: every trace is a weighted
column sum of them, and no R_tilde_i is formed.  Both modes coincide as N
grows.

One cell is the L = 1 case: `build_q_multicell` and `se_conv_multicell_de`
serve every layout, and the single-cell names delegate to them.

The statistical-combining equivalents need no Q: they read the K x K LoS
resolvent `combining.los_resolvent`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import UserLinkProfile, real_matmul
from .combining import los_resolvent, statistical_resolvent
from .config import SystemConfig
from .estimation import BSStatistics, EstimatorState, build_estimator_multicell, regularizer_sums


@dataclass
class AsymptoticState:
    """Q matrix and companions for the conventional-combining equivalents."""

    q_matrix: np.ndarray  # (K, K) Hermitian positive definite
    rho_d: float
    gram2: np.ndarray  # (1/N) E[Hhat^H Z^2 Hhat], drives the noise term
    t_matrix: np.ndarray  # quadratic-term matrix H^H ZXZ H + diag traces
    cross_traces: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    # cross_traces[m, i] = (1/N) tr(Z R_{j,l_m,i} Phi_{j,i} R_{j,j,i}) over
    # interfering cells l_m != j (multi-cell only)
    # second-order fluctuation moments (refined mode; zero/Q otherwise):
    q_mean: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    # E[Qtilde] including the resolvent bias Q E[Delta Q Delta] Q
    var_mat: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    # var_mat[k, i] = Var([Qtilde]_ki), leading order
    noise_corr: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # per-user second-order shift of [Qtilde G2 Qtilde]_kk
    err_corr: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # per-user second-order shift of (1/N) [Qtilde T Qtilde]_kk
    contam_alpha: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    # contam_alpha[m, i]: projection of the conditional-mean gain of the
    # contaminating link (l_m, i) onto the local estimate fluctuation e_i
    contam_second: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    # contam_second[k, i] = E|(1/N)[Qtilde Hhat^H Z e_i]_k|^2, the second
    # moment of the resolvent-projected estimate fluctuation
    contam_extra: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 0)))
    # contam_extra[m, k, i]: quadratic remainder when the contaminating
    # conditional mean is not proportional to e_i (zero for matched
    # correlation families)

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
    gram2: np.ndarray,
    t_bar: np.ndarray,
    n: int,
    rho_d: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Leading fluctuation moments of Qtilde around Q.

    The estimates hhat_i = hbar_i + e_i are independent Gaussians with
    covariance R_tilde_i, so every covariance of bilinear forms in the gram
    fluctuation Delta = (1/N) Hhat^H Z Hhat - E[.] reduces to the traces
    tr(Z R_tilde_i Z R_tilde_j) and the K x K matrices Hbar^H Z R_tilde_j Z
    Hbar.  Returns (E[Qtilde], Var([Qtilde]_ki), noise shift, error shift):
    the shifts are the second-order corrections of E[[Qtilde G_B Qtilde]_kk]
    for the noise gram (B = Z^2) and the error-term gram (B = Z A Z / N).
    Everything is on the common basis: `r`, `z` and `zxz` are the diagonals
    of R_tilde_i, Z and Z B Z, and `h` is Hbar rotated into the basis.  The
    grams W_m = Hbar^H Z Rt_m Z Hbar are never formed: they enter through
    tr(W_m X) = r_m . diag(Z Hbar X Hbar^H Z), the quadratic forms
    x^H W_m x = r_m . |Z Hbar x|^2 and sums sum_m c_m W_m, each O(N K^2).
    """
    k = len(r)
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
    q_mean = q + q @ m_mat @ q / n**2
    q_mean = 0.5 * (q_mean + q_mean.conj().T)
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

    contam_second = None
    if rho_d is not None:
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
        cov_qpsi = -(p_mat @ vrhq) / n**2 + (
            w_right @ qyc + p_mat @ (t_t @ qyc)
        ) / n**3
        mean_t = np.eye(k) - qm / rho_d - mu_psi
        contam_second = (
            np.abs(mean_t) ** 2
            + var_mat / rho_d**2
            + var_psi
            + (2.0 / rho_d) * np.real(cov_qpsi)
        )
    return q_mean, var_mat, noise_corr, err_corr, contam_second


def _refined_state(
    bs: BSStatistics, estimators: list[EstimatorState], rho_d: float
) -> AsymptoticState:
    """The refined state on the links' common eigenbasis V (`bs.basis`).

    There A, B, Z, every R_tilde_i and every R_l Phi R_i are diagonal: with
    lam_l a link's eigenvalues, mu their same-pilot sum and f the shrinkage,
    R_tilde_i is lam_i^2 f_i, the error (or conditional) covariance of link
    l is lam_l f (mu - lam_l + s), Z is 1/(1 + rho_d a/N) and each cross
    trace is sum_c z_c lam_l lam_i f_i.  No N x N matrix is formed.
    """
    if bs.basis is None:
        raise ValueError(
            "the refined deterministic equivalent needs links on one common "
            "eigenbasis (one correlation matrix shared by every link)"
        )
    h = bs.h_rot
    n, k = h.shape
    local, others = estimators[0].local_index, estimators[0].others
    # lam[l, i]: eigenvalues of link (l, i); mu[i] their sum, f[i] the shrinkage
    lam = np.array([[p.r_eigvals for p in e.spectrum.links] for e in estimators]).swapaxes(0, 1)
    mu = np.stack([e.spectrum.eigvals for e in estimators])
    f = np.stack([e.shrink for e in estimators])
    r = lam[local] ** 2 * f
    # R_l - R_l Phi R_l, written without cancellation
    cond = lam * f * (mu - lam + 1.0 / estimators[0].tau_rho)
    z = 1.0 / (1.0 + (rho_d / n) * (cond[local].sum(0) + lam[others].sum((0, 1))))
    zxz = z * z * cond.sum((0, 1))
    q = np.linalg.inv(_diag_gram(h, r, z) + np.eye(k) / rho_d)
    q = 0.5 * (q + q.conj().T)
    gram2 = _diag_gram(h, r, z * z)
    t_mat = n * _diag_gram(h, r, zxz)
    # cross[m, i] = (1/N) tr(Z R_{l_m} Phi_i R_i); a single cell has no l_m
    cross = (z * lam[others] * lam[local] * f).sum(-1) / n
    *moments, second = _second_order_moments(
        h, r, z, zxz, q, gram2, t_mat, n, rho_d if others else None
    )
    contam = {}
    if others:
        # Split each contaminating conditional mean along the local estimate:
        # it is jointly Gaussian with the local estimate fluctuation e_i, so
        # m = alpha e_i + remainder, with alpha = tr(Z C_i R_i) / tr(Z Rtilde_i)
        # making the resolvent-projected remainder mean-free.  With
        # d = lam_x - alpha lam_i the remainder has covariance diag(d^2 f) and
        # cross covariance diag(lam_i f d) with e_i.  Proportional spectra
        # (one shared correlation matrix) make d vanish; otherwise the
        # remainder's power and twice alpha times its correlation with the
        # exact part are kept at quadratic order, as one diagonal weight.
        tr_zrt = r @ z
        live = tr_zrt > 1e-12 * n
        alpha = np.where(live, n * cross / np.where(live, tr_zrt, 1.0), 0.0)
        d = lam[others] - alpha[..., None] * lam[local]
        extra = np.zeros((len(others), k, k))
        for m, i in np.argwhere(np.abs(d).max(-1) > 1e-10 * lam[others].max(-1)):
            dm = d[m, i]
            g = _diag_gram(h, r, z * z * f[i] * dm * (dm + 2.0 * alpha[m, i] * lam[local, i]))
            extra[m, :, i] = np.real(np.einsum("ka,ab,kb->k", q, g, q.conj())) / n
        contam = dict(contam_second=second, contam_alpha=alpha, contam_extra=extra)
    return AsymptoticState(q, rho_d, gram2, t_mat, cross, *moments, **contam)


def build_q_singlecell(
    bs: BSStatistics,
    estimators: list[EstimatorState],
    rho_d: float,
    refined: bool = True,
) -> AsymptoticState:
    """`build_q_multicell` of one cell."""
    return build_q_multicell(bs, estimators, rho_d, refined)


def build_q_multicell(
    bs: BSStatistics,
    estimators: list[EstimatorState],
    rho_d: float,
    refined: bool = True,
) -> AsymptoticState:
    """State of BS j, in one cell or several.

    `bs` is BS j's `BSStatistics`; `estimators[i]` is the estimator of pilot
    i at this BS, whose same-pilot spectrum carries every contaminating link
    (none in a single cell).  The regularizer adds the inter-cell
    covariances, and the quadratic term B of `regularizer_sums` keeps only
    the conditional covariances of the contaminating links (B = A in a
    single cell); their conditional-mean power is carried by the dedicated
    contamination model, matching the Monte Carlo split.

    The plain state (Z = I) reads the BS's same-pilot stacks: with P_l the
    projections `bs.proj[l]` and f the stacked shrinkage, tr R_tilde_i and
    the cross traces come from `_phi_traces`, and tr(R_tilde_i B) from one
    (N, N) @ (N, K*N) product B P_j and a weighted column sum.
    """
    if refined:
        return _refined_state(bs, estimators, rho_d)
    h_bar = bs.h_bar
    n, k = h_bar.shape
    local = estimators[0].local_index
    shrink = np.stack([e.shrink for e in estimators])
    p_local = bs.proj[local]
    # phi[l, i] = tr(R_l Phi_i R_i); row `local` is tr R_tilde_i
    phi = _phi_traces(bs.proj, local, shrink)
    gram = (h_bar.conj().T @ h_bar + np.diag(phi[local])) / n
    gram = 0.5 * (gram + gram.conj().T)
    q = np.linalg.inv(gram + np.eye(k) / rho_d)
    q = 0.5 * (q + q.conj().T)
    b_mat = regularizer_sums(estimators, bs)[1]
    b_proj = (b_mat @ p_local.reshape(n, -1)).reshape(p_local.shape)
    tr_b = np.einsum("rkc,rkc,kc->k", b_proj, p_local, shrink)
    t_mat = h_bar.conj().T @ real_matmul(b_mat, h_bar) + np.diag(tr_b)
    # cross[m, i] = (1/N) tr(R_{l_m} Phi_i R_i); a single cell has no l_m
    cross = phi[estimators[0].others] / n
    zeros = np.zeros(k)
    return AsymptoticState(q, rho_d, gram, t_mat, cross, q, np.zeros((k, k)), zeros, zeros)


def se_conv_singlecell_de(
    state: AsymptoticState,
    config: SystemConfig,
    include_estimation_error: bool = True,
) -> np.ndarray:
    """`se_conv_multicell_de(...).se` of one cell."""
    return se_conv_multicell_de(state, config, include_estimation_error).se


def se_conv_singlecell_de_simplified(state: AsymptoticState, config: SystemConfig) -> np.ndarray:
    """O(1/N) simplification: SE_k = prelog * log(rho_d / [Q]_kk)."""
    q_diag = np.real(np.diag(state.q_matrix))
    return config.prelog * np.log(state.rho_d / q_diag) * config.log_scale


def se_conv_favorable(
    profiles: list[UserLinkProfile],
    estimators: list[EstimatorState],
    config: SystemConfig,
) -> np.ndarray:
    """Favorable-propagation corollary: interference-free conventional SE."""
    n = config.n_antennas
    rho = config.snr_data
    # tr(R_tilde_i) = sum_c f_c |P_i[:, c]|^2
    traces = np.array(
        [_phi_traces(e.spectrum.proj, e.local_index, e.shrink)[e.local_index] for e in estimators]
    )
    norms = np.array([np.real(p.h_bar.conj() @ p.h_bar) for p in profiles])
    return config.prelog * np.log1p(rho / n * (traces + norms)) * config.log_scale


@dataclass
class MulticellDEResult:
    """Theorem and expanded forms of the multi-cell conventional equivalent."""

    se: np.ndarray  # theorem form
    se_expanded: np.ndarray  # expanded form separating the interference kinds
    pilot_contamination: np.ndarray  # per-user i = k inter-cell term (expanded scale)
    uncorrelated: np.ndarray  # per-user i != k inter-cell term (expanded scale)


def se_conv_multicell_de(
    state: AsymptoticState,
    config: SystemConfig,
    include_estimation_error: bool = True,
) -> MulticellDEResult:
    """Conventional deterministic equivalent of one BS, in one cell or several.

    In refined mode the second moments E|[Qtilde]_ki|^2 = |E[.]|^2 + Var(.)
    replace the plain squared entries; in plain mode q_mean = Q and the
    variance terms are zero, giving the published expressions exactly.  The
    SINR denominator is (intra + noise) + err + inter.  The estimation-error
    quadratic err vanishes as N grows (with several cells it also carries
    the uncorrelated inter-cell interference); `include_estimation_error`
    False drops it, which on a plain state gives exactly the large-antenna
    limit expression, and in one cell under orthogonal LoS the
    favorable-propagation corollary.  A single cell has no inter-cell term.
    """
    q = state.q_mean
    rho = state.rho_d
    n = config.n_antennas
    k = state.n_users
    scale = config.log_scale
    q_diag = np.real(np.diag(q))
    num = np.abs(1.0 - q_diag / rho) ** 2 + np.diag(state.var_mat) / rho**2
    second = np.abs(q) ** 2 + state.var_mat
    den = (np.sum(second, axis=1) - np.diag(second)) / rho**2
    den = den + (np.real(np.diag(q @ state.gram2 @ q)) + state.noise_corr) / rho
    if include_estimation_error:
        quad = np.real(np.einsum("lk,lm,mk->k", q.conj(), state.t_matrix, q)) / n**2
        den = den + (quad + state.err_corr / n)
    # inter-cell contamination: sum over l != j and all i of |[Q]_ki c_{jli}|^2
    inter = np.zeros(k)
    contam = np.zeros(k)
    uncorr = np.zeros(k)
    for m in range(state.cross_traces.shape[0]):
        c = state.cross_traces[m]
        if state.contam_second.size:
            # refined: conditional-mean power through the exact split
            # m = alpha e_i + remainder
            contrib = state.contam_alpha[m][None, :] ** 2 * state.contam_second
            contrib = np.maximum(contrib + state.contam_extra[m], 0.0)
        else:
            contrib = second * (c[None, :] ** 2)
        inter += np.sum(contrib, axis=1)
        contam += (rho * c) ** 2
        off = np.abs(q / q_diag[:, None] * c[None, :] * rho) ** 2
        uncorr += np.sum(off, axis=1) - np.diag(off)
    se = config.prelog * np.log1p(num / (den + inter)) * scale
    num_exp = np.abs(rho / q_diag - 1.0) ** 2
    den_exp = (rho / q_diag - 1.0) + contam + uncorr
    se_exp = config.prelog * np.log1p(num_exp / den_exp) * scale
    return MulticellDEResult(
        se=se, se_expanded=se_exp, pilot_contamination=contam, uncorrelated=uncorr
    )


def se_stat_singlecell_de(
    profiles: list[UserLinkProfile],
    config: SystemConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Statistical-combining equivalents: (full form, LoS-only form).

    The full form is the exact SE of `se_stat_singlecell`, log(1 + c_k/m_k)
    of `combining.statistical_resolvent`; the LoS-only form is
    `se_stat_multicell_de`, which drops the vanishing scattered covariances.
    """
    m, c, _ = statistical_resolvent(BSStatistics([profiles], 0), config.snr_data)
    return np.log1p(c / m) * config.log_scale, se_stat_multicell_de(profiles, config)


def se_stat_multicell_de(local_profiles: list[UserLinkProfile], config: SystemConfig) -> np.ndarray:
    """Large-N statistical corollary, from local statistics only; the rows
    report the exact `se_stat_multicell`.

    The LoS-only resolvent: C = (N/rho_d) I, so X = (rho_d/N) Hbar and
    P = (rho_d/N) Hbar^H Hbar, with no N x N work.
    """
    h_bar = np.column_stack([p.h_bar for p in local_profiles])
    m, c, _ = los_resolvent(h_bar, (config.snr_data / config.n_antennas) * h_bar)
    return np.log1p(c / m) * config.log_scale


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
