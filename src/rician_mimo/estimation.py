"""LMMSE channel estimation from pilot observations, and the per-BS statistics.

At one BS the pilot of user k is reused by user k of every cell, so the
despread observation has covariance S + sI with the same-pilot sum
S = sum_l R_l and s = 1/(tau*rho_tr); pilot contamination enters only
through S.  Every covariance is centro-Hermitian, and the estimator lives
in one basis, that of the real images Q^H R Q (`channel.real_image`).  One
real `eigh` of the image of S (`same_pilot_spectrum`) gives
Phi = Q V diag(f) V^T Q^H with f = 1/(mu + s) for every training key.
With the real projections P_l = (Q^H R_l Q) V, the estimator is the pair
(P_l, f): the gain of link l has the image P_l diag(f) V^T and the
estimate covariance the image P_i diag(f) P_i^T.  No N x N inverse, no
complex N x N product and no dense antenna-basis estimator matrix is
formed.  A single link reuses its profile's eigenpair (S = R,
P = V diag(lam)), so the single- and multi-cell estimators are one path.

`BSStatistics` is the one holder of what a BS's receivers read from its
links: the served LoS columns in the real basis, the images of the local
and inter-cell covariance sums, and (on first read) the K same-pilot
spectra and their stacks.  The call that evaluates a whole SNR grid (the
Monte Carlo kernel, one BS's deterministic equivalents, the statistical
SE) builds one per BS and drops it when it returns; the Monte Carlo,
`regularizer_sums`, the deterministic equivalents and the statistical
receiver all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import UserLinkProfile, real_basis


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


class BSStatistics:
    """The long-term statistics of BS j that every receiver reads.

    `links[cell][user]` are BS j's links.  `h_bar` is real_basis(Hbar) of
    the served links, (N, K) and C-contiguous, so it views as 2K interleaved
    real and imaginary columns; `local` is the image of sum_i R_jji and
    `inter` the image of R_out = sum_{l != j, k} R_jlk (zero in a single
    cell).  The K same-pilot `spectra` and their key-independent stacks are
    built on first read, since the statistical receiver never needs them:
    `proj_t[l, k]` is P_lk^T, `rest_t[l]` is (sum_{m != l} P_mk)^T over k
    (the scalar 0 for a single cell) and `vecs_t[k]` is V_k^T.  A call that
    evaluates an SNR grid builds one per BS and drops it on return.
    """

    def __init__(self, links: list[list[UserLinkProfile]], j: int):
        self.links, self.j = links, j
        served = links[j]
        n = served[0].n_antennas
        h_bar = real_basis(np.array([p.h_bar for p in served])).T
        self.h_bar = np.ascontiguousarray(h_bar)
        self.local = sum(p.r_image for p in served)
        # user-major, like the same-pilot groups
        others = (cell[k] for k in range(len(served)) for ell, cell in enumerate(links) if ell != j)
        self.inter = sum((p.r_image for p in others), np.zeros((n, n)))

    @cached_property
    def spectra(self) -> list[PilotSpectrum]:
        n_users = len(self.links[self.j])
        return [same_pilot_spectrum([cell[k] for cell in self.links]) for k in range(n_users)]

    @cached_property
    def proj_t(self) -> np.ndarray:
        # C order, so that every (K, N, N) slice reshapes to (K*N, N) in place
        cells, n = self.spectra[0].proj.shape[:2]
        out = np.empty((cells, len(self.spectra), n, n))
        for k, sp in enumerate(self.spectra):
            out[:, k] = sp.proj.transpose(0, 2, 1)
        return out

    @cached_property
    def vecs_t(self) -> np.ndarray:
        n = len(self.local)
        out = np.empty((len(self.spectra), n, n))
        for k, sp in enumerate(self.spectra):
            out[k] = sp.eigvecs.T
        return out

    @cached_property
    def rest_t(self) -> list:
        cells = len(self.proj_t)
        return [sum((self.proj_t[m] for m in range(cells) if m != ell), 0) for ell in range(cells)]


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
    states: list[EstimatorState], bs: BSStatistics
) -> tuple[np.ndarray, np.ndarray]:
    """Real images of (A, B) for the K estimators of one BS at one key.

    A = sum_k err_k + sum_{l != j, k} R_lk is the conventional combiner's
    regularizer; B = sum_k err_k + sum_{l != j, k} cond_lk is the error and
    conditional interference covariance of the Monte Carlo SINR and the
    DE's quadratic term.  The error (or conditional) covariance of link l,
    R_l - R_l Phi R_l, is P_l diag(f) W_l^T with W_l = (S - R_l + sI) V, which
    involves no cancellation.  Each cell's sum over k of these is one real
    (N, K*N) @ (K*N, N) product: the key-independent stack P^T of the
    BS's `BSStatistics`, used as it is, against diag(f) W^T = f * rest + s f V^T.
    The term s f V^T is formed once per call, and every cell writes its
    right operand into one buffer (a single cell's rest is 0, so s f V^T
    alone is its right operand).
    """
    first = states[0]
    n = first.n_antennas
    shrink = np.stack([s.shrink for s in states])[..., None]
    scaled_vecs = bs.vecs_t * (shrink / first.tau_rho)
    buffer = np.empty_like(scaled_vecs) if len(bs.rest_t) > 1 else None

    def cell_sum(ell: int) -> np.ndarray:
        right = scaled_vecs
        if buffer is not None:
            right = np.multiply(bs.rest_t[ell], shrink, out=buffer)
            right += scaled_vecs
        return bs.proj_t[ell].reshape(-1, n).T @ right.reshape(-1, n)

    err = cell_sum(first.local_index)
    b_mat = err + sum(cell_sum(ell) for ell in first.others)
    return _symmetric(err + bs.inter), _symmetric(b_mat)
