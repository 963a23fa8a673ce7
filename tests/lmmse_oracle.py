"""Dense antenna-basis LMMSE matrices from one N x N inverse: a test oracle
that shares no code with `rician_mimo.estimation`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class DenseLMMSE:
    """Estimator of link `local` of a same-pilot group, in the antenna basis.

    `gains[l]` = R_l Phi and `conds[l]` = R_l - R_l Phi R_l for every link l
    of the group (for l = local, the gain and the error covariance), with
    Phi = (S + sI)^{-1}, S = sum_l R_l and s = 1/(tau*rho_tr).
    """

    local: int
    gains: list[np.ndarray]
    conds: list[np.ndarray]
    r_local: np.ndarray

    @property
    def gain(self) -> np.ndarray:
        return self.gains[self.local]

    @property
    def err_cov(self) -> np.ndarray:
        return self.conds[self.local]

    @property
    def r_tilde(self) -> np.ndarray:
        return _hermitian(self.gain @ self.r_local)

    @property
    def others(self) -> list[int]:
        return [ell for ell in range(len(self.gains)) if ell != self.local]


def _hermitian(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().T)


def dense_lmmse(links, local: int, tau_rho: float) -> DenseLMMSE:
    """`DenseLMMSE` of the same-pilot `links` (profiles) at tau*rho_tr = `tau_rho`."""
    covs = [p.r_cov for p in links]
    noise = np.eye(covs[0].shape[0]) / tau_rho
    phi = np.linalg.inv(sum(covs) + noise)
    gains = [r @ phi for r in covs]
    # R_l - R_l Phi R_l = R_l Phi (S - R_l + sI), with S - R_l summed over
    # the other links, so nothing cancels
    conds = [
        _hermitian(g @ sum((r for m, r in enumerate(covs) if m != ell), noise))
        for ell, g in enumerate(gains)
    ]
    return DenseLMMSE(local, gains, conds, covs[local])
