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
formed.  A group whose links hold one eigenvector array V (a single link,
or links of one shared correlation matrix) takes no `eigh`: it reuses V,
with mu = sum_l lam_l of the links' clamped eigenvalues and
P_l = V diag(lam_l), so the single- and multi-cell estimators are one path.

`BSStatistics` is the one holder of what a BS's receivers read from its
links: the served LoS columns in the real basis, the images of the local
and inter-cell covariance sums, and (on first read) the K same-pilot
spectra and their stacks, and the links' common eigenbasis, if any.  A
scenario builds one per BS (`scenarios.build_scenario`), and the Monte
Carlo, `regularizer_sums`, the deterministic equivalents and the
statistical receiver all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import UserLinkProfile, real_basis, real_matmul


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


def same_pilot_spectrum(
    profiles: list[UserLinkProfile], out: tuple[np.ndarray, np.ndarray] | None = None
) -> PilotSpectrum:
    """Spectrum of the same-pilot links `profiles`.

    `out` = (V, P) are the (N, N) and (L, N, N) arrays to write V and the
    stack P into (views of a `BSStatistics`' stacks); without it a group on
    one basis keeps its profiles' own eigenvectors and P gets a fresh array.
    """
    v = profiles[0].eigvecs
    shared = all(p.eigvecs is v for p in profiles)
    if shared:
        lams = [p.r_eigvals for p in profiles]
        mu = sum(lams[1:], lams[0])
    else:
        images = [p.r_image for p in profiles]
        mu, v = np.linalg.eigh(sum(images))
        mu = np.clip(mu, 0.0, None)
    if out is None:
        vecs, proj = v, np.empty((len(profiles),) + v.shape)
    else:
        vecs, proj = out
        vecs[...] = v
    for ell, p in enumerate(proj):
        if shared:
            np.multiply(v, lams[ell], out=p)
        else:
            np.matmul(images[ell], v, out=p)
    return PilotSpectrum(tuple(profiles), mu, vecs, proj)


class BSStatistics:
    """The long-term statistics of BS j that every receiver reads.

    `links[cell][user]` are BS j's links.  `h_bar` is real_basis(Hbar) of
    the served links, (N, K) and C-contiguous, so it views as 2K interleaved
    real and imaginary columns; `local` is the image of sum_i R_jji and
    `inter` the image of R_out = sum_{l != j, k} R_jlk (zero in a single
    cell).  The K same-pilot `spectra` are built on first read, since the
    statistical receiver never needs them, and their eigenvectors and
    projections are held once, in two BS-level stacks: `vecs[:, k]` is V_k
    and `proj[l, :, k]` is P_lk, so `vecs` reshapes in place to the
    (N, K*N) row [V_1 ... V_K] and each `proj[l]` to [P_l1 ... P_lK], and
    every spectrum's `eigvecs` and `proj` are views of them.  `basis` is
    the eigenvector array every link holds, or None, and `h_rot` the LoS
    columns in it, V^T h_bar.  It indexes like its links, so it stands in
    for them: `stats[cell][user]` is `links[cell][user]`.
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

    def __len__(self) -> int:
        return len(self.links)

    def __getitem__(self, cell: int) -> list[UserLinkProfile]:
        return self.links[cell]

    @cached_property
    def _pilot(self) -> tuple[list[PilotSpectrum], np.ndarray, np.ndarray]:
        n, users = len(self.local), len(self.links[self.j])
        vecs = np.empty((n, users, n))
        proj = np.empty((len(self.links), n, users, n))
        spectra = [
            same_pilot_spectrum([cell[k] for cell in self.links], (vecs[:, k], proj[:, :, k]))
            for k in range(users)
        ]
        return spectra, vecs, proj

    @cached_property
    def basis(self) -> np.ndarray | None:
        v = self.links[0][0].eigvecs
        return v if all(p.eigvecs is v for cell in self.links for p in cell) else None

    @cached_property
    def h_rot(self) -> np.ndarray:
        return real_matmul(self.basis.T, self.h_bar)

    @property
    def spectra(self) -> list[PilotSpectrum]:
        return self._pilot[0]

    @property
    def vecs(self) -> np.ndarray:
        """(N, K, N): vecs[:, k] is V_k."""
        return self._pilot[1]

    @property
    def proj(self) -> np.ndarray:
        """(L, N, K, N): proj[l, :, k] is P_lk."""
        return self._pilot[2]


def _symmetric(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


@dataclass
class EstimatorState:
    """LMMSE estimator of one (BS, pilot) pair at one training key.

    `shrink` is f = 1/(mu + 1/(tau*rho_tr)) on the group's spectrum.  The
    gain R_l Phi of same-pilot link l has the image `weighted(l)` V^T, and
    `r_tilde` is the real image of the local estimate covariance
    R_tilde = R_local Phi R_local.  No production path reads these two:
    they are the estimator's tested accessors, and the deterministic
    equivalents take their traces off the spectrum's projections.
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
    (N, K*N) @ (K*N, N) product: the row [P_l1 ... P_lK] of the BS's `proj`
    stack, used as it is, against the transpose of the row of
    W_lk diag(f_k) = rest_lk diag(f_k) + s V_k diag(f_k), with
    rest_lk = sum_{m != l} P_mk.  The term s f V is formed once per call,
    and every cell forms its rest and right operand in one reused buffer.
    In a single cell S = R, so the error covariance is V diag(s lam f) V^T
    and A = B is one Gram product W^T W, with W the stacked
    sqrt(s lam f) V^T: exactly symmetric.
    """
    first = states[0]
    n = first.n_antennas
    # f of every user, in the column order of the (N, K*N) rows
    shrink = np.stack([s.shrink for s in states]).reshape(-1)
    vecs = bs.vecs.reshape(n, -1)
    if len(bs.links) == 1:
        lam = np.concatenate([s.spectrum.eigvals for s in states])
        w_t = vecs * np.sqrt(lam * shrink / first.tau_rho)
        a_mat = w_t @ w_t.T
        return a_mat, a_mat
    proj = bs.proj.reshape(len(bs.links), n, -1)
    scaled_vecs = vecs * (shrink / first.tau_rho)
    buffer = np.empty_like(scaled_vecs)

    def cell_sum(ell: int) -> np.ndarray:
        rest = [m for m in range(len(proj)) if m != ell]
        right = buffer
        right[...] = proj[rest[0]]
        for m in rest[1:]:
            right += proj[m]
        right *= shrink
        right += scaled_vecs
        return proj[ell] @ right.T

    err = cell_sum(first.local_index)
    b_mat = err + sum(cell_sum(ell) for ell in first.others)
    return _symmetric(err + bs.inter), _symmetric(b_mat)
