"""LMMSE channel estimation from pilot observations.

At one BS the pilot of user k is reused by user k of every cell, so the
despread observation has covariance S + sI with the same-pilot sum
S = sum_l R_l and s = 1/(tau*rho_tr); pilot contamination enters only
through S.  One `eigh` of S (`same_pilot_spectrum`, kept on the group's
links, so once per scenario) gives Phi = (S + sI)^{-1} = U diag(f) U^H with
f = 1/(mu + s) for every training key, and with P_l = R_l U every estimator
matrix is a product P_l diag(f) (.)^H: no N x N inverse is taken.  A single
link reuses its profile's eigenpair (S = R, P = U diag(lam)), so the single-
and multi-cell estimators are one path.  The dense matrices are formed only
when a caller reads them; the Monte Carlo loop works on U, P and f directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import UserLinkProfile


@dataclass(frozen=True)
class PilotSpectrum:
    """Eigendecomposition S = U diag(mu) U^H of one same-pilot sum.

    `proj[l]` is R_l U for the l-th entry of `links`.  The eigenvalues are
    clamped at zero, like each link's own.
    """

    links: tuple[UserLinkProfile, ...]
    eigvals: np.ndarray
    eigvecs: np.ndarray
    proj: np.ndarray  # (L, N, N)


def same_pilot_spectrum(profiles: list[UserLinkProfile]) -> PilotSpectrum:
    """Spectrum of the same-pilot links `profiles`, computed on first use.

    It is memoized on the first link under the ids of the group; the memo
    holds the links themselves, so those ids cannot be reused while it lives.
    """
    key = tuple(map(id, profiles))
    memo = profiles[0].pilot_spectra
    if key not in memo:
        if len(profiles) == 1:
            mu, u = profiles[0].r_eigvals, profiles[0].eigvecs
            proj = (u * mu)[None]
        else:
            mu, u = np.linalg.eigh(sum(p.r_cov for p in profiles))
            mu = np.clip(mu, 0.0, None)
            proj = np.stack([p.r_cov @ u for p in profiles])
        memo[key] = PilotSpectrum(tuple(profiles), mu, u, proj)
    return memo[key]


def _hermitian(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.conj().T)


@dataclass
class EstimatorState:
    """LMMSE estimator of one (BS, pilot) pair at one training key.

    `shrink` is f = 1/(mu + 1/(tau*rho_tr)) on the group's spectrum.  The
    dense matrices are derived on first access: the local gain R_local Phi,
    the estimate covariance R_tilde, the error covariance, and for every
    same-pilot interfering cell l the cross gain R_l Phi and the conditional
    covariance R_l - R_l Phi R_l used for the conditional interference
    statistics given the pilot observation (both empty for a single link).
    """

    local_index: int
    spectrum: PilotSpectrum
    tau_rho: float
    shrink: np.ndarray

    @property
    def h_bar(self) -> np.ndarray:
        return self.spectrum.links[self.local_index].h_bar

    @property
    def n_antennas(self) -> int:
        return len(self.shrink)

    @property
    def others(self) -> list[int]:
        """Positions of the same-pilot interfering links."""
        return [ell for ell in range(len(self.spectrum.links)) if ell != self.local_index]

    def weighted(self, ell: int) -> np.ndarray:
        """P_l diag(f)."""
        return self.spectrum.proj[ell] * self.shrink

    def complement(self, ell: int) -> np.ndarray:
        """W_l = (S - R_l + sI) U, summed over the other links so that
        R_l - R_l Phi R_l = P_l diag(f) W_l^H involves no cancellation."""
        sp = self.spectrum
        rest = (sp.proj[m] for m in range(len(sp.links)) if m != ell)
        return sum(rest, sp.eigvecs / self.tau_rho)

    def _times_phi(self, ell: int) -> np.ndarray:
        return self.weighted(ell) @ self.spectrum.eigvecs.conj().T

    def _conditional_cov(self, ell: int) -> np.ndarray:
        return _hermitian(self.weighted(ell) @ self.complement(ell).conj().T)

    @cached_property
    def gain(self) -> np.ndarray:
        return self._times_phi(self.local_index)

    @cached_property
    def r_tilde(self) -> np.ndarray:
        p = self.spectrum.proj[self.local_index]
        return _hermitian(self.weighted(self.local_index) @ p.conj().T)

    @cached_property
    def err_cov(self) -> np.ndarray:
        return self._conditional_cov(self.local_index)

    @cached_property
    def cross_gains(self) -> dict[int, np.ndarray]:
        return {ell: self._times_phi(ell) for ell in self.others}

    @cached_property
    def cond_covs(self) -> dict[int, np.ndarray]:
        return {ell: self._conditional_cov(ell) for ell in self.others}


def build_estimator_multicell(
    profiles: list[UserLinkProfile],
    local_index: int,
    tau: float,
    rho_tr: float,
) -> EstimatorState:
    """LMMSE estimator of the local link when all cells reuse the pilot.

    `profiles[l]` is the link from the same-pilot user of cell l to this BS;
    `profiles[local_index]` is the served user.  A single link is the
    single-cell estimator.
    """
    tau_rho = tau * rho_tr
    if tau_rho <= 0:
        raise ValueError("tau * rho_tr must be strictly positive")
    n = profiles[0].n_antennas
    if any(p.n_antennas != n for p in profiles):
        raise ValueError("all same-pilot profiles must share the antenna dimension")
    spectrum = same_pilot_spectrum(profiles)
    return EstimatorState(
        local_index=local_index,
        spectrum=spectrum,
        tau_rho=tau_rho,
        shrink=1.0 / (spectrum.eigvals + 1.0 / tau_rho),
    )


def regularizer_sums(states: list[EstimatorState]) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of the K estimators of one BS at one training key.

    A = sum_k err_k + sum_{l != j, k} R_lk is the conventional combiner's
    regularizer; B = sum_k err_k + sum_{l != j, k} cond_lk is the error and
    conditional interference covariance of the Monte Carlo SINR and the
    DE's quadratic term.  Each cell's sum over k of P_lk diag(f_k) W_lk^H
    (see `EstimatorState.complement`) is one (N, K*N) @ (K*N, N) product.
    """
    first = states[0]
    n = first.n_antennas

    def cell_sum(ell: int) -> np.ndarray:
        left = np.stack([s.weighted(ell) for s in states], axis=1).reshape(n, -1)
        right = np.stack([s.complement(ell) for s in states], axis=1).reshape(n, -1)
        return left @ right.conj().T

    err = cell_sum(first.local_index)
    a_mat = err + sum(s.spectrum.links[ell].r_cov for s in states for ell in first.others)
    b_mat = err + sum(cell_sum(ell) for ell in first.others)
    return _hermitian(a_mat), _hermitian(b_mat)


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
