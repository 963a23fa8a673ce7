"""LMMSE channel estimation from pilot observations.

At one BS the pilot of user k is reused by user k of every cell, so the
despread observation has covariance S + sI with the same-pilot sum
S = sum_l R_l and s = 1/(tau*rho_tr); pilot contamination enters only
through S.  Every covariance is centro-Hermitian, so the estimator works on
the real images Q^H R Q of `channel.real_image`.  One real `eigh` of the
image of S (`same_pilot_spectrum`, kept on the group's links, so once per
scenario) gives Phi = Q V diag(f) V^T Q^H with f = 1/(mu + s) for every
training key, and with the real projections P_l = (Q^H R_l Q) V every
estimator matrix is the image of a real product P_l diag(f) (.)^T: no
N x N inverse and no complex N x N product is taken.  A single link reuses
its profile's eigenpair (S = R, P = V diag(lam)), so the single- and
multi-cell estimators are one path.  The dense antenna-basis matrices are
formed only when a caller reads them; the Monte Carlo loop and
`regularizer_sums` stay in the real basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import UserLinkProfile, antenna_image, real_image


@dataclass(frozen=True)
class PilotSpectrum:
    """Real eigendecomposition Q^H S Q = V diag(mu) V^T of one same-pilot sum.

    `proj[l]` is (Q^H R_l Q) V for the l-th entry of `links`.  The
    eigenvalues are clamped at zero, like each link's own.
    """

    links: tuple[UserLinkProfile, ...]
    eigvals: np.ndarray
    eigvecs: np.ndarray
    proj: np.ndarray  # (L, N, N)
    # memo of `pilot_stacks` for the BSs whose first user this spectrum serves
    stacks: dict = field(default_factory=dict, repr=False, compare=False)


def same_pilot_spectrum(profiles: list[UserLinkProfile]) -> PilotSpectrum:
    """Spectrum of the same-pilot links `profiles`, computed on first use.

    It is memoized on the first link under the ids of the group; the memo
    holds the links themselves, so those ids cannot be reused while it lives.
    """
    key = tuple(map(id, profiles))
    memo = profiles[0].pilot_spectra
    if key not in memo:
        if len(profiles) == 1:
            mu, v = profiles[0].r_eigvals, profiles[0].eigvecs
            proj = (v * mu)[None]
        else:
            images = [real_image(p.r_cov) for p in profiles]
            mu, v = np.linalg.eigh(sum(images))
            mu = np.clip(mu, 0.0, None)
            proj = np.stack([r @ v for r in images])
        memo[key] = PilotSpectrum(tuple(profiles), mu, v, proj)
    return memo[key]


class PilotStacks:
    """The K same-pilot spectra of one BS stacked for every training key.

    `proj_t[l, k]` is P_lk^T, `rest_t[l, k]` is (sum_{m != l} P_mk)^T (the
    scalar 0 for a single cell), `vecs_t[k]` is V_k^T and `inter` is the
    image of sum_{l != j, k} R_lk.  None of them depends on the key.
    """

    def __init__(self, spectra: list[PilotSpectrum], local_index: int):
        # held so that the ids keying `pilot_stacks` stay unique
        self.spectra = tuple(spectra)
        cells, n = spectra[0].proj.shape[:2]
        # C order, so that every (K, N, N) slice reshapes to (K*N, N) in place
        self.proj_t = np.empty((cells, len(spectra), n, n))
        self.vecs_t = np.empty((len(spectra), n, n))
        for k, sp in enumerate(spectra):
            self.proj_t[:, k] = sp.proj.transpose(0, 2, 1)
            self.vecs_t[k] = sp.eigvecs.T
        self.rest_t = [
            sum((self.proj_t[m] for m in range(cells) if m != ell), 0) for ell in range(cells)
        ]
        inter = [p.r_cov for sp in spectra for ell, p in enumerate(sp.links) if ell != local_index]
        self.inter = real_image(sum(inter)) if inter else 0.0


def pilot_stacks(spectra: list[PilotSpectrum], local_index: int) -> PilotStacks:
    """`PilotStacks` of the spectra of one BS, memoized on the first one."""
    key = (tuple(map(id, spectra)), local_index)
    memo = spectra[0].stacks
    if key not in memo:
        memo[key] = PilotStacks(spectra, local_index)
    return memo[key]


def _symmetric(mat: np.ndarray) -> np.ndarray:
    # the antenna image of an exactly symmetric matrix is exactly Hermitian
    return 0.5 * (mat + mat.T)


@dataclass
class EstimatorState:
    """LMMSE estimator of one (BS, pilot) pair at one training key.

    `shrink` is f = 1/(mu + 1/(tau*rho_tr)) on the group's spectrum.  The
    dense antenna-basis matrices are derived on first access: the local gain
    R_local Phi, the estimate covariance R_tilde, the error covariance, and
    for every same-pilot interfering cell l the cross gain R_l Phi and the
    conditional covariance R_l - R_l Phi R_l used for the conditional
    interference statistics given the pilot observation (both empty for a
    single link).
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

    def _complement(self, ell: int) -> np.ndarray:
        """W_l = (S - R_l + sI) V in the real basis, summed over the other
        links so that R_l - R_l Phi R_l = P_l diag(f) W_l^T involves no
        cancellation."""
        sp = self.spectrum
        rest = (sp.proj[m] for m in range(len(sp.links)) if m != ell)
        return sum(rest, sp.eigvecs / self.tau_rho)

    def _times_phi(self, ell: int) -> np.ndarray:
        return antenna_image(self.weighted(ell) @ self.spectrum.eigvecs.T)

    def _conditional_cov(self, ell: int) -> np.ndarray:
        return antenna_image(_symmetric(self.weighted(ell) @ self._complement(ell).T))

    @cached_property
    def gain(self) -> np.ndarray:
        return self._times_phi(self.local_index)

    @cached_property
    def r_tilde(self) -> np.ndarray:
        p = self.spectrum.proj[self.local_index]
        return antenna_image(_symmetric(self.weighted(self.local_index) @ p.T))

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
    """Real images of (A, B) for the K estimators of one BS at one key.

    A = sum_k err_k + sum_{l != j, k} R_lk is the conventional combiner's
    regularizer; B = sum_k err_k + sum_{l != j, k} cond_lk is the error and
    conditional interference covariance of the Monte Carlo SINR and the
    DE's quadratic term.  Each cell's sum over k of P_lk diag(f_k) W_lk^T
    (see `EstimatorState._complement`) is one real (N, K*N) @ (K*N, N)
    product of the key-independent `pilot_stacks`, scaled by f and shifted
    by s V_k; `channel.antenna_image` maps the results back.
    """
    first = states[0]
    stacks = pilot_stacks([s.spectrum for s in states], first.local_index)
    n = first.n_antennas
    shrink = np.stack([s.shrink for s in states])[..., None]
    shift = stacks.vecs_t / first.tau_rho

    def cell_sum(ell: int) -> np.ndarray:
        left = (stacks.proj_t[ell] * shrink).reshape(-1, n)
        right = (stacks.rest_t[ell] + shift).reshape(-1, n)
        return left.T @ right

    err = cell_sum(first.local_index)
    b_mat = err + sum(cell_sum(ell) for ell in first.others)
    return _symmetric(err + stacks.inter), _symmetric(b_mat)


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
