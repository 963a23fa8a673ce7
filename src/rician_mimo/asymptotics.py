"""Closed-form deterministic equivalents of the Monte Carlo SEs.

These are realization-free approximations in the long-term statistics that
the Monte Carlo module cross-validates.  Every quantity comes from the exact
resolvent rewrite of the combiner: with A the combiner's regularizer and
Z = (I + (rho_d/N) A)^{-1}, all SINR terms are functions of the K x K matrix
Q = ((1/N) E[Hhat^H Z Hhat] + (1/rho_d) I)^{-1}.

Two evaluation modes are supported.  The refined mode (default) keeps Z,
which stays accurate at finite N even when the regularizer dominates the
noise loading.  The plain mode replaces Z by I, the additional large-antenna
simplification used in the published closed forms; both modes coincide as N
grows.

The statistical-combining equivalents need no Q: they read the K x K LoS
resolvent `combining.los_resolvent`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import UserLinkProfile, antenna_image
from .combining import los_resolvent, statistical_resolvent
from .config import SystemConfig
from .estimation import EstimatorState, regularizer_sums


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


def _traces(stack: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """tr(stack_i @ weight) for every i: one (K, N^2) matrix-vector product."""
    return stack.reshape(len(stack), -1) @ weight.T.ravel()


def _pair_traces(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """[a, b] -> tr(left_a @ right_b) for two (K, N, N) stacks, without
    forming any N x N product."""
    return left.reshape(len(left), -1) @ right.transpose(0, 2, 1).reshape(len(right), -1).T


def _gram(h_bar: np.ndarray, r_tildes: np.ndarray, weight: np.ndarray) -> np.ndarray:
    n = h_bar.shape[0]
    g = h_bar.conj().T @ weight @ h_bar
    g = g + np.diag(np.real(_traces(r_tildes, weight)))
    g = g / n
    return 0.5 * (g + g.conj().T)


def _second_order_moments(
    h_bar: np.ndarray,
    r_tildes: np.ndarray,
    z: np.ndarray,
    zr: np.ndarray,
    z2: np.ndarray,
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
    `zr` is the (K, N, N) stack Z R_tilde_i.
    """
    k = len(r_tildes)
    t_t = np.real(_pair_traces(zr, zr))
    t_t = 0.5 * (t_t + t_t.T)
    # Z is Hermitian, so Hbar^H Z is the K x N projection (Z Hbar)^H
    zh = z @ h_bar
    w_mats = zh.conj().T @ (r_tildes @ zh)  # (K, K, K): Hbar^H Z Rt_m Z Hbar
    q_diag = np.real(np.diag(q))
    p_mat = np.abs(q) ** 2  # symmetric since q is Hermitian
    # E[Delta Q Delta] and the resolvent mean shift Q E[.] Q
    w_sum = sum(q_diag[a] * w_mats[a] for a in range(k))
    m_mat = w_sum + np.diag(
        t_t @ q_diag + np.real(np.einsum("mab,ba->m", w_mats, q))
    )
    q_mean = q + q @ m_mat @ q / n**2
    q_mean = 0.5 * (q_mean + q_mean.conj().T)
    # the exact identity Qtilde = Q - Qtilde Delta Q puts Qtilde (not Q) on
    # the left slot of every fluctuation, so evaluating that slot at E[Qtilde]
    # resums part of the higher orders
    qm = q_mean
    pm_mat = np.abs(qm) ** 2
    # w_left[k, m] = qm_k^H W_m qm_k
    w_left = np.real(np.einsum("ik,mij,jk->km", qm.conj(), w_mats, qm))
    w_right = np.real(np.einsum("ik,mij,jk->km", q.conj(), w_mats, q))
    # Var([Qtilde]_ki) = E|[Qtilde Delta Q]_ki|^2 at leading order
    var_mat = (pm_mat @ t_t @ p_mat + w_left @ p_mat + (w_right @ pm_mat).T) / n**2
    var_mat = 0.5 * (var_mat + var_mat.T)

    def quad_shift(b_weight: np.ndarray, g_bar: np.ndarray) -> np.ndarray:
        """Second-order shift of E[[Qtilde G_B Qtilde]_kk] past qm G_B qm,
        for the random gram G_B = (1/N) Hhat^H B Hhat with mean g_bar."""
        # Qtilde fluctuations through the mean gram
        u_vec = np.real(np.diag(q @ g_bar @ q))
        s_vec = np.real(np.einsum("mcd,dc->m", w_mats, q @ g_bar @ q))  # tr(G Q W_m Q)
        b_vec = (pm_mat @ (t_t @ u_vec) + w_left @ u_vec + pm_mat @ s_vec) / n**2
        # anticorrelation between Qtilde and the fluctuation of G_B itself:
        # t1b[a, i] = tr(Z Rt_a B Rt_i), w1b[a] = Hbar^H Z Rt_a B Hbar
        t1b = np.real(_pair_traces(zr, b_weight @ r_tildes))
        w1b_mats = zh.conj().T @ (r_tildes @ (b_weight @ h_bar))
        m1b = sum(q_diag[a] * w1b_mats[a] for a in range(k)) + np.diag(
            t1b.T @ q_diag + np.conj(np.einsum("mab,ba->m", w1b_mats, q))
        )
        d_vec = -2.0 * np.real(np.einsum("ik,ij,jk->k", qm.conj(), m1b, qm)) / n**2
        return b_vec + d_vec

    noise_corr = quad_shift(z2, gram2)
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
        s0 = h_bar.conj().T @ zh
        y_mat = q @ s0
        mu_psi = (qm @ s0) / n - (qm @ w_sum) / n**2
        v_mat = (h_bar - h_bar @ (y_mat / n)) / n
        zv = z @ v_mat
        # vrv[m, i] = zv_i^H Rt_m zv_i, vrhq[m, i] = zv_i^H Rt_m (Z Hbar Q)_i
        vrv = np.real(np.sum(zv.conj() * (r_tildes @ zv), axis=1))
        qwq = np.real(np.einsum("kb,mbc,ck->mk", q, w_mats, q))
        ab = np.abs(y_mat) ** 2
        var_psi = p_mat @ vrv + (qwq.T @ ab + p_mat @ (t_t @ ab)) / n**4
        vrhq = np.sum(zv.conj() * (r_tildes @ (zh @ q)), axis=1)
        qyc = q * y_mat.conj()
        cov_qpsi = -(p_mat @ vrhq) / n**2 + (
            qwq.T @ qyc + p_mat @ (t_t @ qyc)
        ) / n**3
        mean_t = np.eye(k) - qm / rho_d - mu_psi
        contam_second = (
            np.abs(mean_t) ** 2
            + var_mat / rho_d**2
            + var_psi
            + (2.0 / rho_d) * np.real(cov_qpsi)
        )
    return q_mean, var_mat, noise_corr, err_corr, contam_second


def _contamination_split(
    h_bar: np.ndarray,
    local_covs: list[np.ndarray],
    r_tildes: np.ndarray,
    z: np.ndarray,
    zr: np.ndarray,
    q: np.ndarray,
    cross_covs: list[list[np.ndarray]],
    cross_gains: list[list[np.ndarray]],
    cross_traces: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Split each contaminating conditional mean along the local estimate.

    The conditional mean m_{mi} of the contaminating link is jointly Gaussian
    with the local estimate fluctuation e_i, so m = alpha e_i + r with
    E[r e_i^H] choosing alpha = tr(Z C_i R_i) / tr(Z Rtilde_i), which makes
    the resolvent-projected remainder mean-free.  When the cross covariance
    is proportional to the local one (matched correlation families) the
    remainder vanishes identically; otherwise its power and its correlation
    with the exact part are kept at quadratic order.
    """
    k = len(r_tildes)
    m_cells = len(cross_gains)
    alphas = np.zeros((m_cells, k))
    extra = np.zeros((m_cells, k, k))
    tr_zrt = np.real(_traces(r_tildes, z))
    zh = z @ h_bar
    for m in range(m_cells):
        for i in range(k):
            if tr_zrt[i] <= 1e-12 * n:
                alpha = 0.0
            else:
                alpha = n * cross_traces[m, i] / tr_zrt[i]
            alphas[m, i] = alpha
            c_mat = cross_gains[m][i]
            cr = c_mat @ local_covs[i]
            sigma_m = c_mat @ cross_covs[m][i]  # C Phi^{-1} C^H = R_x Phi R_x
            resid = sigma_m - alpha * (cr + cr.conj().T) + alpha**2 * r_tildes[i]
            x_c = cr - alpha * r_tildes[i]
            scale = np.abs(sigma_m).max() + np.abs(alpha**2 * r_tildes[i]).max()
            if scale <= 0 or (
                np.abs(resid).max() <= 1e-10 * scale
                and np.abs(x_c).max() <= 1e-10 * scale
            ):
                continue
            # quadratic remainder and its correlation with the exact part,
            # both at leading (deterministic-resolvent) order: the grams of
            # Z M Z for M = resid and x_c^H, with tr(Rt_j Z M Z) read as
            # tr((Z Rt_j)(Z M))
            x_ch = x_c.conj().T
            g_res = zh.conj().T @ resid @ zh + np.diag(np.real(_traces(zr, z @ resid)))
            g_xc = zh.conj().T @ x_ch @ zh + np.diag(_traces(zr, z @ x_ch))
            quad_res = np.real(np.einsum("ka,ab,kb->k", q, g_res, q.conj()))
            quad_xc = np.real(np.einsum("ka,ab,kb->k", q, g_xc, q.conj()))
            extra[m, :, i] = (quad_res + 2.0 * alpha * quad_xc) / n**2
    return alphas, extra


def _build_state(
    profiles: list[UserLinkProfile],
    estimators: list[EstimatorState],
    rho_d: float,
    a_matrix: np.ndarray,
    refined: bool,
    cross_covs: list[list[np.ndarray]] | None = None,
    cross_gains: list[list[np.ndarray]] | None = None,
    quad_matrix: np.ndarray | None = None,
) -> AsymptoticState:
    n = profiles[0].n_antennas
    k = len(profiles)
    h_bar = np.column_stack([p.h_bar for p in profiles])
    r_tildes = np.stack([e.r_tilde for e in estimators])
    if quad_matrix is None:
        quad_matrix = a_matrix
    if refined:
        z = np.linalg.inv(np.eye(n) + (rho_d / n) * a_matrix)
        z = 0.5 * (z + z.conj().T)
        z2 = z @ z
        zxz = z @ quad_matrix @ z
    else:
        # Z = I: every product with it is skipped
        z = z2 = np.eye(n)
        zxz = quad_matrix
    gram1 = _gram(h_bar, r_tildes, z)
    gram2 = _gram(h_bar, r_tildes, z2)
    q = np.linalg.inv(gram1 + np.eye(k) / rho_d)
    q = 0.5 * (q + q.conj().T)
    t_mat = h_bar.conj().T @ zxz @ h_bar + np.diag(np.real(_traces(r_tildes, zxz)))
    cross = np.zeros((0, k))
    if cross_covs and refined:
        # cross[m, i] = (1/N) tr(Z R_cross Phi_i R_local) with gain_i =
        # R_local Phi_i, read as <gain_i, Z R_cross>
        gains = np.stack([e.gain for e in estimators])
        covs = [z @ np.stack(per_cell) for per_cell in cross_covs]
        cross = np.stack([np.real(np.sum(gains.conj() * c, axis=(1, 2))) / n for c in covs])
    elif cross_covs:
        # Z = I: tr(R_x Phi_i R_i) = sum_c f_c <P_i[:, c], P_x[:, c]> on the
        # real spectrum of the same-pilot sum, an N^2 sum per pair
        local = estimators[0].local_index
        cross = np.array(
            [
                [np.sum(e.weighted(ell) * e.spectrum.proj[local]) / n for e in estimators]
                for ell in estimators[0].others
            ]
        )
    contam_second = np.zeros((0, 0))
    contam_alpha = np.zeros((0, 0))
    contam_extra = np.zeros((0, 0, 0))
    if refined:
        zr = z @ r_tildes
        q_mean, var_mat, noise_corr, err_corr, second = _second_order_moments(
            h_bar, r_tildes, z, zr, z2, zxz, q, gram2, t_mat, n,
            rho_d=rho_d if cross_gains else None,
        )
        if cross_gains:
            contam_second = second
            contam_alpha, contam_extra = _contamination_split(
                h_bar, [p.r_cov for p in profiles], r_tildes, z, zr, q,
                cross_covs, cross_gains, cross, n,
            )
    else:
        q_mean, var_mat = q, np.zeros((k, k))
        noise_corr, err_corr = np.zeros(k), np.zeros(k)
    return AsymptoticState(
        q_matrix=q,
        rho_d=rho_d,
        gram2=gram2,
        t_matrix=t_mat,
        cross_traces=cross,
        q_mean=q_mean,
        var_mat=var_mat,
        noise_corr=noise_corr,
        err_corr=err_corr,
        contam_alpha=contam_alpha,
        contam_second=contam_second,
        contam_extra=contam_extra,
    )


def build_q_singlecell(
    profiles: list[UserLinkProfile],
    estimators: list[EstimatorState],
    rho_d: float,
    refined: bool = True,
) -> AsymptoticState:
    """State for the single-cell conventional equivalent.

    The regularizer is the sum of estimation-error covariances, and the
    quadratic term covers exactly those errors.
    """
    a_image, _ = regularizer_sums(estimators)
    return _build_state(profiles, estimators, rho_d, antenna_image(a_image), refined)


def build_q_multicell(
    profiles_at_bs: list[list[UserLinkProfile]],
    estimators: list[EstimatorState],
    local_index: int,
    rho_d: float,
    refined: bool = True,
) -> AsymptoticState:
    """State for BS j of a multi-cell system, with contamination traces.

    `profiles_at_bs[ell][i]` is the link from user i of cell ell to this BS;
    `estimators[i]` is the multi-cell estimator of pilot i at this BS.  The
    regularizer adds the inter-cell covariances, which also account for the
    conditional covariance and conditional-mean fluctuations of the
    contaminating links in the quadratic term.
    """
    local = profiles_at_bs[local_index]
    k = len(local)
    others = [ell for ell in range(len(profiles_at_bs)) if ell != local_index]
    cross_covs = [[profiles_at_bs[ell][i].r_cov for i in range(k)] for ell in others]
    cross_gains = None  # only the refined contamination split reads them
    if refined:
        cross_gains = [[estimators[i].cross_gains[ell] for i in range(k)] for ell in others]
    # the quadratic keeps only the conditional covariances of the
    # contaminating links; their conditional-mean power is carried by the
    # dedicated contamination model, matching the Monte Carlo split
    a_matrix, quad_matrix = map(antenna_image, regularizer_sums(estimators))
    return _build_state(
        local, estimators, rho_d, a_matrix, refined,
        cross_covs, cross_gains, quad_matrix,
    )


def _common_terms(state: AsymptoticState):
    """Signal, intra-cell and noise terms from the (corrected) moments.

    In refined mode the second moments E|[Qtilde]_ki|^2 = |E[.]|^2 + Var(.)
    replace the plain squared entries; in plain mode q_mean = Q and the
    variance terms are zero, giving the published expressions exactly.
    """
    q = state.q_mean
    rho = state.rho_d
    q_diag = np.real(np.diag(q))
    num = np.abs(1.0 - q_diag / rho) ** 2 + np.diag(state.var_mat) / rho**2
    second = np.abs(q) ** 2 + state.var_mat
    intra = (np.sum(second, axis=1) - np.diag(second)) / rho**2
    noise = (np.real(np.diag(q @ state.gram2 @ q)) + state.noise_corr) / rho
    return q, q_diag, num, intra, noise


def _error_term(state: AsymptoticState, n: int) -> np.ndarray:
    q = state.q_mean
    quad = np.real(np.einsum("lk,lm,mk->k", q.conj(), state.t_matrix, q)) / n**2
    return quad + state.err_corr / n


def se_conv_singlecell_de(
    state: AsymptoticState,
    config: SystemConfig,
    include_estimation_error: bool = True,
) -> np.ndarray:
    """Per-user deterministic equivalent of conventional single-cell SE.

    The estimation-error quadratic vanishes as N grows; excluding it (with a
    plain, non-refined state) recovers the favorable-propagation corollary
    exactly under orthogonal LoS directions.
    """
    q, q_diag, num, intra, noise = _common_terms(state)
    den = intra + noise
    if include_estimation_error:
        den = den + _error_term(state, config.n_antennas)
    return config.prelog * np.log1p(num / den) * config.log_scale


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
    traces = np.array([np.real(np.trace(e.r_tilde)) for e in estimators])
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
    """Multi-cell conventional deterministic equivalent.

    `include_estimation_error` keeps the same vanishing-order quadratic as
    the single-cell form (here it also carries the uncorrelated inter-cell
    interference); dropping it on a non-refined state gives exactly the
    large-antenna limit expression.
    """
    q, q_diag, num, intra, noise = _common_terms(state)
    rho = state.rho_d
    k = state.n_users
    scale = config.log_scale
    if include_estimation_error:
        noise = noise + _error_term(state, config.n_antennas)
    # inter-cell contamination: sum over l != j and all i of |[Q]_ki c_{jli}|^2
    inter = np.zeros(k)
    contam = np.zeros(k)
    uncorr = np.zeros(k)
    second = np.abs(q) ** 2 + state.var_mat
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
    se = config.prelog * np.log1p(num / (intra + noise + inter)) * scale
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
    m, c, _ = statistical_resolvent(profiles, config.snr_data)
    return np.log1p(c / m) * config.log_scale, se_stat_multicell_de(profiles, config)


def se_stat_multicell_de(local_profiles: list[UserLinkProfile], config: SystemConfig) -> np.ndarray:
    """Multi-cell statistical equivalent; depends on local statistics only.

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
    from .estimation import build_estimator_multicell

    state = build_estimator_multicell(profiles_same_pilot, local_index, tau, rho_tr)
    n = state.n_antennas
    total = 0.0
    for ell, p in enumerate(profiles_same_pilot):
        if ell == local_index:
            continue
        # tr(R gain^H) is the elementwise inner product <gain, R>
        total += np.real(np.vdot(state.gain, p.r_cov)) / n
    return float(total)
