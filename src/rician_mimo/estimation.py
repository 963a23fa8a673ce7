"""LMMSE channel estimation from pilot observations.

Single-cell estimation inverts Phi = (R + I/(tau*rho_tr))^{-1}, which shares
R's eigenvectors, so every estimator matrix is U diag(f(lam)) U^H of the
link's cached eigenpair; the multi-cell variant sums the covariances of every
same-pilot link, which is what creates pilot contamination.  All matrices
that the Monte Carlo loop needs per draw (gains, error covariances) are
precomputed here, so the per-trial work is matrix-vector only
(`lmmse_estimate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import UserLinkProfile


@dataclass
class EstimatorState:
    """Precomputed matrices for one (BS, pilot) pair.

    For the single-cell case `cross_gains`/`cond_covs` are empty.  In the
    multi-cell case they hold, for every same-pilot interfering cell l, the
    matrices R_{jlk} Phi_{jk} and R_{jlk} - R_{jlk} Phi_{jk} R_{jlk} used for
    the conditional interference statistics given the pilot observation.
    """

    local_index: int
    h_bar: np.ndarray
    tau_rho: float
    gain: np.ndarray  # R_local @ Phi
    r_tilde: np.ndarray
    err_cov: np.ndarray
    cross_gains: dict[int, np.ndarray] = field(default_factory=dict)
    cond_covs: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def n_antennas(self) -> int:
        return self.gain.shape[0]


def _from_spectrum(u: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Hermitian U diag(values) U^H for real values."""
    mat = (u * values) @ u.conj().T
    return 0.5 * (mat + mat.conj().T)


def build_estimator_multicell(
    profiles: list[UserLinkProfile],
    local_index: int,
    tau: float,
    rho_tr: float,
) -> EstimatorState:
    """LMMSE estimator of the local link when all cells reuse the pilot.

    `profiles[l]` is the link from the same-pilot user of cell l to this BS;
    `profiles[local_index]` is the served user.  With a single link no N x N
    system is solved: with s = 1/(tau*rho_tr) the gain and R_tilde have
    eigenvalues lam/(lam+s) and lam^2/(lam+s), and the error covariance
    R - R_tilde equals s * gain.
    """
    tau_rho = tau * rho_tr
    if tau_rho <= 0:
        raise ValueError("tau * rho_tr must be strictly positive")
    n = profiles[0].n_antennas
    if any(p.n_antennas != n for p in profiles):
        raise ValueError("all same-pilot profiles must share the antenna dimension")
    local = profiles[local_index]
    if len(profiles) == 1:
        lam, u = local.r_eigvals, local.eigvecs
        shrink = lam / (lam + 1.0 / tau_rho)
        gain = _from_spectrum(u, shrink)
        return EstimatorState(
            local_index=local_index,
            h_bar=local.h_bar,
            tau_rho=tau_rho,
            gain=gain,
            r_tilde=_from_spectrum(u, lam * shrink),
            err_cov=gain / tau_rho,
        )
    obs_cov = sum(p.r_cov for p in profiles) + (1.0 / tau_rho) * np.eye(n)
    phi = np.linalg.inv(obs_cov)
    phi = 0.5 * (phi + phi.conj().T)
    gain = local.r_cov @ phi
    r_tilde = gain @ local.r_cov
    r_tilde = 0.5 * (r_tilde + r_tilde.conj().T)
    state = EstimatorState(
        local_index=local_index,
        h_bar=local.h_bar,
        tau_rho=tau_rho,
        gain=gain,
        r_tilde=r_tilde,
        err_cov=local.r_cov - r_tilde,
    )
    for ell, p in enumerate(profiles):
        if ell == local_index:
            continue
        cg = p.r_cov @ phi
        state.cross_gains[ell] = cg
        cc = p.r_cov - cg @ p.r_cov
        state.cond_covs[ell] = 0.5 * (cc + cc.conj().T)
    return state


def build_estimator_singlecell(profile: UserLinkProfile, tau: float, rho_tr: float) -> EstimatorState:
    return build_estimator_multicell([profile], 0, tau, rho_tr)


def lmmse_estimate(
    gain: np.ndarray,
    cross_gains: dict[int, np.ndarray],
    h_bar: np.ndarray,
    y: np.ndarray,
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """LMMSE estimate of the local link and the interferers' conditional means.

    `y` is the despread pilot observation: the sum of the same-pilot channels
    plus the pilot noise scaled by 1/sqrt(tau*rho_tr).  Operands may be
    stacked on leading axes, e.g. one (N, N) gain against (draws, N)
    observations, or (K, N, N) gains against (K, N) observations.
    """
    centered = y - h_bar
    h_hat = h_bar + np.matmul(gain, centered[..., None])[..., 0]
    means = {ell: np.matmul(cg, centered[..., None])[..., 0] for ell, cg in cross_gains.items()}
    return h_hat, means
