"""LMMSE channel estimation from pilot observations.

At one BS the pilot of user k is reused by user k of every cell, so the
despread observation has covariance S + sI with the same-pilot sum
S = sum_l R_l and s = 1/(tau*rho_tr); pilot contamination enters only
through S.  Every covariance is centro-Hermitian, and the estimator lives
in one basis, that of the real images Q^H R Q (`channel.real_image`).  One
real `eigh` of the image of S (`same_pilot_spectrum`) gives
Phi = Q V diag(f) V^T Q^H with f = 1/(mu + s) for every training key, so
the call that evaluates a whole SNR grid (the Monte Carlo kernel, or one
BS's deterministic equivalents) takes each spectrum once, stacks the K
spectra of a BS once (`PilotStacks`) and drops both when it returns.  With
the real projections P_l = (Q^H R_l Q) V, the estimator is the pair
(P_l, f): the gain of link l has the image P_l diag(f) V^T and the
estimate covariance the image P_i diag(f) P_i^T.  No N x N inverse, no
complex N x N product and no dense antenna-basis estimator matrix is
formed; the Monte Carlo,
`regularizer_sums` and the deterministic equivalents all read these real
factors.  A single link reuses its profile's eigenpair (S = R,
P = V diag(lam)), so the single- and multi-cell estimators are one path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import UserLinkProfile


@dataclass(frozen=True)
class PilotSpectrum:
    """Real eigendecomposition Q^H S Q = V diag(mu) V^T of one same-pilot sum.

    `proj[l]` is (Q^H R_l Q) V for the l-th entry of `links`.  The
    eigenvalues are clamped at zero, like each link's own.  The spectrum
    indexes like its links, so it stands in for them wherever a same-pilot
    group is asked for.
    """

    links: tuple[UserLinkProfile, ...]
    eigvals: np.ndarray
    eigvecs: np.ndarray
    proj: np.ndarray  # (L, N, N)

    def __len__(self) -> int:
        return len(self.links)

    def __getitem__(self, ell: int) -> UserLinkProfile:
        return self.links[ell]


def same_pilot_spectrum(profiles: list[UserLinkProfile]) -> PilotSpectrum:
    """Spectrum of the same-pilot links `profiles`."""
    if len(profiles) == 1:
        mu, v = profiles[0].r_eigvals, profiles[0].eigvecs
        proj = (v * mu)[None]
    else:
        images = [p.r_image for p in profiles]
        mu, v = np.linalg.eigh(sum(images))
        mu = np.clip(mu, 0.0, None)
        proj = np.stack([r @ v for r in images])
    return PilotSpectrum(tuple(profiles), mu, v, proj)


class PilotStacks:
    """The K same-pilot spectra of one BS stacked for every training key.

    `proj_t[l, k]` is P_lk^T, `rest_t[l, k]` is (sum_{m != l} P_mk)^T (the
    scalar 0 for a single cell), `vecs_t[k]` is V_k^T and `inter` is the
    image of sum_{l != j, k} R_lk.  None of them depends on the key.
    """

    def __init__(self, spectra: list[PilotSpectrum], local_index: int):
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
        links = (p for sp in spectra for ell, p in enumerate(sp.links) if ell != local_index)
        self.inter = sum((p.r_image for p in links), 0.0)


def _symmetric(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


@dataclass
class EstimatorState:
    """LMMSE estimator of one (BS, pilot) pair at one training key.

    `shrink` is f = 1/(mu + 1/(tau*rho_tr)) on the group's spectrum.  The
    gain R_l Phi of same-pilot link l has the image `weighted(l)` V^T, and
    `r_tilde` is the real image of the local estimate covariance
    R_tilde = R_local Phi R_local.
    """

    local_index: int
    spectrum: PilotSpectrum
    tau_rho: float
    shrink: np.ndarray

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

    @cached_property
    def r_tilde(self) -> np.ndarray:
        """P_i diag(f) P_i^T, the real image of R_tilde."""
        p = self.spectrum.proj[self.local_index]
        return _symmetric(self.weighted(self.local_index) @ p.T)


def build_estimator_multicell(
    profiles: PilotSpectrum | list[UserLinkProfile],
    local_index: int,
    tau: float,
    rho_tr: float,
) -> EstimatorState:
    """LMMSE estimator of the local link when all cells reuse the pilot.

    `profiles[l]` is the link from the same-pilot user of cell l to this BS;
    `profiles[local_index]` is the served user.  A single link is the
    single-cell estimator.  A caller that builds the estimator at several
    keys passes the group's `PilotSpectrum`; a list of links is decomposed
    on the spot.
    """
    tau_rho = tau * rho_tr
    if tau_rho <= 0:
        raise ValueError("tau * rho_tr must be strictly positive")
    n = profiles[0].n_antennas
    if any(p.n_antennas != n for p in profiles):
        raise ValueError("all same-pilot profiles must share the antenna dimension")
    spectrum = profiles if isinstance(profiles, PilotSpectrum) else same_pilot_spectrum(profiles)
    return EstimatorState(
        local_index=local_index,
        spectrum=spectrum,
        tau_rho=tau_rho,
        shrink=1.0 / (spectrum.eigvals + 1.0 / tau_rho),
    )


def regularizer_sums(
    states: list[EstimatorState], stacks: PilotStacks
) -> tuple[np.ndarray, np.ndarray]:
    """Real images of (A, B) for the K estimators of one BS at one key.

    A = sum_k err_k + sum_{l != j, k} R_lk is the conventional combiner's
    regularizer; B = sum_k err_k + sum_{l != j, k} cond_lk is the error and
    conditional interference covariance of the Monte Carlo SINR and the
    DE's quadratic term.  The error (or conditional) covariance of link l,
    R_l - R_l Phi R_l, is P_l diag(f) W_l^T with W_l = (S - R_l + sI) V, which
    involves no cancellation.  Each cell's sum over k of these is one real
    (N, K*N) @ (K*N, N) product: the key-independent stack P^T of the
    BS's `stacks`, used as it is, against diag(f) W^T = f * rest + s f V^T.
    The term s f V^T is formed once per call, and every cell writes its
    right operand into one buffer (a single cell's rest is 0, so s f V^T
    alone is its right operand).
    """
    first = states[0]
    n = first.n_antennas
    shrink = np.stack([s.shrink for s in states])[..., None]
    scaled_vecs = stacks.vecs_t * (shrink / first.tau_rho)
    buffer = np.empty_like(scaled_vecs) if len(stacks.rest_t) > 1 else None

    def cell_sum(ell: int) -> np.ndarray:
        right = scaled_vecs
        if buffer is not None:
            right = np.multiply(stacks.rest_t[ell], shrink, out=buffer)
            right += scaled_vecs
        return stacks.proj_t[ell].reshape(-1, n).T @ right.reshape(-1, n)

    err = cell_sum(first.local_index)
    b_mat = err + sum(cell_sum(ell) for ell in first.others)
    return _symmetric(err + stacks.inter), _symmetric(b_mat)
