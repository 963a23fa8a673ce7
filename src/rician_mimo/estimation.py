"""LMMSE channel estimation from pilot observations, and the per-BS statistics.

At one BS the pilot of user k is reused by user k of every cell, so the
despread observation has covariance S + sI with the same-pilot sum
S = sum_l R_l and s = 1/(tau*rho_tr); pilot contamination enters only
through S.  Every covariance is centro-Hermitian, and the estimator lives
in one basis, that of the real images Q^H R Q (`channel.real_image`).  One
real `eigh` of the image of S, taken only by `BSStatistics`, gives
Phi = Q V diag(f) V^T Q^H with f = 1/(mu + s) for every training key.
With the real projections P_l = (Q^H R_l Q) V, the estimator is the pair
(P_l, f): the gain of link l has the image P_l diag(f) V^T and the
estimate covariance the image P_i diag(f) P_i^T.  No N x N inverse, no
complex N x N product and no dense antenna-basis estimator matrix is
formed.  A same-basis group, whose links hold one eigenvector array V (a
single link, or links of one shared correlation matrix), takes no `eigh`
and stores no projection: its estimator is (V, lam_l), with
mu = sum_l lam_l of the links' clamped eigenvalues and P_l = V diag(lam_l),
which only the cold readers form, on access (`basis_projections`).

`BSStatistics` is the one holder of what a BS's receivers read from its
links: the served LoS columns in the real basis, the links' eigenvalues,
(on first read) the images of the local and inter-cell covariance sums and
the K same-pilot spectra and their eigenvectors, and the eigenbasis of the
links' one shared correlation matrix, if any.  A scenario builds one per
BS (`scenarios.build_scenario`), and the Monte Carlo, `regularizer_sums`,
the deterministic equivalents and the statistical receiver all read it.
`key_shrinkage` is the one builder of a BS's K estimators at a training key,
and `regularizer_sums` returns it with the regularizer images it weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import UserLinkProfile, real_basis, real_matmul


def basis_projections(vecs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """P_l = V diag(lam_l) of same-basis links, stacked on a new first axis:
    (L, N, N) from one group's V (N, N) and eigenvalues (L, N), or
    (L, N, K, N) from a BS's `vecs` (N, K, N) and `eigvals` (L, K, N).  Only
    cold readers call it; no hot path or cache holds its result."""
    return vecs * lam[:, None]


@dataclass(frozen=True)
class PilotSpectrum:
    """Real eigendecomposition Q^H S Q = V diag(mu) V^T of one same-pilot sum.

    `proj[l]` is (Q^H R_l Q) V for the l-th entry of `links`: the stored
    `stack`, or, for a same-basis group (every link holds V, and `stack` is
    None), V diag(lam_l), formed on each read.  The eigenvalues are clamped
    at zero, like each link's own.  The spectrum indexes like its links, so
    it stands in for them wherever a same-pilot group is asked for.
    """

    links: tuple[UserLinkProfile, ...]
    eigvals: np.ndarray
    eigvecs: np.ndarray
    stack: np.ndarray | None  # (L, N, N)

    def __len__(self) -> int:
        return len(self.links)

    def __getitem__(self, ell: int) -> UserLinkProfile:
        return self.links[ell]

    @property
    def proj(self) -> np.ndarray:
        if self.stack is not None:
            return self.stack
        return basis_projections(self.eigvecs, np.array([p.r_eigvals for p in self.links]))


def same_pilot_spectrum(profiles: list[UserLinkProfile]) -> PilotSpectrum:
    """Spectrum of the same-pilot links `profiles`: the one spectrum of a BS
    whose cells each hold one of them (`BSStatistics._pilot`).  A same-basis
    group keeps its profiles' own eigenvectors and stores no projection; any
    other group takes one `eigh` of its image sum."""
    return BSStatistics([[p] for p in profiles], 0).spectra[0]


def _columns(vs: list[np.ndarray]) -> np.ndarray:
    """The (N, K, N) array whose [:, k] is vs[k], without a copy where the
    vs allow it: the one V broadcast if every vs[k] is it, the array they are
    the columns of if they are (as `scenarios.build_scenario` writes one
    cell's eigenvectors), and a stacked copy otherwise."""
    n, first = len(vs[0]), vs[0]
    if all(v is first for v in vs):
        return np.broadcast_to(first[:, None], (n, len(vs), n))
    base = first.base
    if (
        base is not None
        and base.shape == (n, len(vs), n)
        and all(v.__array_interface__ == base[:, k].__array_interface__ for k, v in enumerate(vs))
    ):
        return base
    return np.stack(vs, axis=1)


class BSStatistics:
    """The long-term statistics of BS j that every receiver reads.

    `links[cell][user]` are BS j's links.  `h_bar` is real_basis(Hbar) of
    the served links, (N, K) and C-contiguous, so it views as 2K interleaved
    real and imaginary columns; `eigvals[l, k]` are the clamped eigenvalues
    of link (l, k).  The images `local` of sum_i R_jji and `inter` of
    R_out = sum_{l != j, k} R_jlk (zero in a single cell) are built on first
    read: only the statistical receiver of a BS without one shared theta,
    and the regularizer A of a BS that is not same-basis, read them.  So
    is `local_eig` (d, W), the statistical receiver's eigenpair of the local
    sum, with `h_rot` = W^T h_bar.  So are the K same-pilot `spectra`, since
    the statistical receiver and the refined DE never need them, and
    their eigenvectors are held once: `vecs[:, k]` is V_k, so `vecs`
    reshapes to the (N, K*N) row [V_1 ... V_K].  The BS is `same_basis` when every
    same-pilot group's links hold one eigenvector array, as in every single
    cell and with one shared correlation matrix: `vecs` is then the links'
    own eigenvectors (in a single cell the scenario's array of them, with no
    copy), and `proj`, P_lk = V_k diag(lam_lk), is formed on each read for
    the cold readers.  Otherwise each group takes one `eigh`, and `vecs` and
    the stored `proj` (`proj[l, :, k]` is P_lk, so each `proj[l]` reshapes
    to [P_l1 ... P_lK]) are BS-level stacks whose views every spectrum's
    `eigvecs` and `proj` are.  `basis` is the eigenvector array V of the
    one correlation eigenpair `theta_eig` every link holds (so every link's
    spectrum is a multiple of theta's), or None.  It indexes like its links,
    so it stands in for them: `stats[cell][user]` is `links[cell][user]`.
    """

    def __init__(self, links: list[list[UserLinkProfile]], j: int):
        self.links, self.j = links, j
        h_bar = real_basis(np.array([p.h_bar for p in links[j]])).T
        self.h_bar = np.ascontiguousarray(h_bar)
        self.eigvals = np.array([[p.r_eigvals for p in cell] for cell in links])

    def __len__(self) -> int:
        return len(self.links)

    def __getitem__(self, cell: int) -> list[UserLinkProfile]:
        return self.links[cell]

    @property
    def others(self) -> list[int]:
        """The contaminating cells: every cell but j."""
        return [ell for ell in range(len(self.links)) if ell != self.j]

    @cached_property
    def local(self) -> np.ndarray:
        """The image of sum_i R_jji."""
        return sum(p.r_image for p in self.links[self.j])

    @cached_property
    def inter(self) -> np.ndarray:
        """The image of R_out = sum_{l != j, k} R_jlk, user-major like the
        same-pilot groups; zero in a single cell."""
        n = len(self.h_bar)
        others = (self.links[ell][k] for k in range(len(self.links[self.j])) for ell in self.others)
        return sum((p.r_image for p in others), np.zeros((n, n)))

    @cached_property
    def same_basis(self) -> bool:
        return all(all(p.eigvecs is group[0].eigvecs for p in group) for group in zip(*self.links))

    @cached_property
    def _pilot(self) -> tuple[list[PilotSpectrum], np.ndarray, np.ndarray | None]:
        groups = [tuple(group) for group in zip(*self.links)]
        spectra = []
        if self.same_basis:
            for group in groups:
                lams = [p.r_eigvals for p in group]
                spectra.append(PilotSpectrum(group, sum(lams[1:], lams[0]), group[0].eigvecs, None))
            return spectra, _columns([sp.eigvecs for sp in spectra]), None
        n = len(self.h_bar)
        vecs = np.empty((n, len(groups), n))
        proj = np.empty((len(self.links), n, len(groups), n))
        for k, group in enumerate(groups):
            images = [p.r_image for p in group]
            mu, v = np.linalg.eigh(sum(images))
            vecs[:, k] = v
            for image, p in zip(images, proj[:, :, k]):
                np.matmul(image, v, out=p)
            spectra.append(PilotSpectrum(group, np.clip(mu, 0.0, None), vecs[:, k], proj[:, :, k]))
        return spectra, vecs, proj

    @cached_property
    def basis(self) -> np.ndarray | None:
        eig = self.links[0][0].theta_eig
        return eig[1] if all(p.theta_eig is eig for cell in self.links for p in cell) else None

    @cached_property
    def local_eig(self) -> tuple[np.ndarray, np.ndarray]:
        """(d, W) of the image of sum_i R_jji, d clamped at zero: (sum_i lam_jji,
        V) on a shared theta, with no `eigh`, and one `eigh` of `local` otherwise."""
        if self.basis is not None:
            return self.eigvals[self.j].sum(0), self.basis
        d, w = np.linalg.eigh(self.local)
        return np.clip(d, 0.0, None), w

    @cached_property
    def h_rot(self) -> np.ndarray:
        return real_matmul(self.local_eig[1].T, self.h_bar)

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
        stack = self._pilot[2]
        return basis_projections(self.vecs, self.eigvals) if stack is None else stack


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


def key_shrinkage(bs: BSStatistics, tau: float, rho_tr: float) -> np.ndarray:
    """Shrinkage f of BS j's K estimators at one training key, (K, N): one
    `build_estimator_multicell` per same-pilot spectrum of the BS."""
    return np.stack([build_estimator_multicell(sp, bs.j, tau, rho_tr).shrink for sp in bs.spectra])


def regularizer_sums(
    bs: BSStatistics, tau: float, rho_tr: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BS j's `key_shrinkage` f at one training key (tau, rho_tr), and the
    real images of its (A, B) there: (f, A, B).

    A = sum_k err_k + sum_{l != j, k} R_lk is the conventional combiner's
    regularizer; B = sum_k err_k + sum_{l != j, k} cond_lk is the error and
    conditional interference covariance of the Monte Carlo SINR and the
    DE's quadratic term.  The error (or conditional) covariance of link l,
    R_l - R_l Phi R_l, is P_l diag(f) W_l^T with W_l = (S - R_l + sI) V, which
    involves no cancellation.

    On a same-basis BS (one V_k per group) every term is diagonal in V_k:
    with s = 1/(tau*rho_tr), err_k and cond_lk are V_k diag(d_lk) V_k^T,
    d_lk = lam_lk f_k (sum_{m != l} lam_mk + s), and R_lk is
    V_k diag(lam_lk) V_k^T.  So A and B are each one Gram product X X^T of
    the (N, K*N) row X of sqrt(w_k)-weighted V_k, with weights
    w = d_j + sum_{l != j} lam_l for A and w = d_j + sum_{l != j} d_l for B:
    exactly symmetric.  Where the two weights are equal, as with no
    contaminating cell, B is A.

    On any other BS each cell's sum over k is one real
    (N, K*N) @ (K*N, N) product: the row [P_l1 ... P_lK] of the BS's `proj`
    stack, used as it is, against the transpose of the row of
    W_lk diag(f_k) = rest_lk diag(f_k) + s V_k diag(f_k), with
    rest_lk = sum_{m != l} P_mk.  The term s f V is formed once per call,
    and every cell forms its rest and right operand in one reused buffer.
    """
    shrink = key_shrinkage(bs, tau, rho_tr)
    tau_rho = tau * rho_tr
    n = shrink.shape[-1]
    if bs.same_basis:
        lam, cells = bs.eigvals, range(len(bs.links))
        s = 1.0 / tau_rho
        d = np.stack([lam[ell] * shrink * sum((lam[m] for m in cells if m != ell), s) for ell in cells])
        a_weights = d[bs.j] + sum(lam[ell] for ell in bs.others)
        b_weights = d[bs.j] + sum(d[ell] for ell in bs.others)

        def gram(weights: np.ndarray) -> np.ndarray:
            x = (bs.vecs * np.sqrt(weights)).reshape(n, -1)
            return x @ x.T

        a_mat = gram(a_weights)
        return shrink, a_mat, a_mat if np.array_equal(a_weights, b_weights) else gram(b_weights)
    # f of every user, in the column order of the (N, K*N) rows
    flat = shrink.reshape(-1)
    proj = bs.proj.reshape(len(bs.links), n, -1)
    scaled_vecs = bs.vecs.reshape(n, -1) * (flat / tau_rho)
    buffer = np.empty_like(scaled_vecs)

    def cell_sum(ell: int) -> np.ndarray:
        rest = [proj[m] for m in range(len(proj)) if m != ell]
        right = buffer
        right[...] = rest[0]
        for term in rest[1:]:
            right += term
        right *= flat
        right += scaled_vecs
        return proj[ell] @ right.T

    err = cell_sum(bs.j)
    b_mat = err + sum(cell_sum(ell) for ell in bs.others)
    return shrink, _symmetric(err + bs.inter), _symmetric(b_mat)
