"""Receive combining vectors.

Two families: conventional combiners built from instantaneous channel
estimates plus an error/interference covariance regularizer, and statistical
combiners built only from long-term statistics (no training required).
Combiners are not normalized; every SINR downstream is scale-invariant in g.
Where the SINR is scored against the combiner's own regularizer (a single
cell), `conventional_sinr` reads it off the K x K gram of a whole block of
trials by the MMSE identity, and no combiner is formed.

Every statistical quantity (the combiner, its exact SE and its deterministic
equivalents) reads one K x K LoS resolvent, `los_resolvent`, of the served
links' statistics in one `estimation.BSStatistics`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import UserLinkProfile, antenna_basis, real_matmul
from .estimation import BSStatistics


@dataclass
class CombinerSet:
    """K combining vectors (columns)."""

    vectors: np.ndarray  # (N, K)

    def __post_init__(self):
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("combining vectors must be finite")


def conventional_combiner(estimates: np.ndarray, m_inv: np.ndarray) -> CombinerSet:
    """g_k = (H_hat H_hat^H + A + (N/rho_d) I)^{-1} h_hat_k.

    A is the Hermitian PSD regularizer: the sum of estimation error
    covariances in the single-cell case, plus the inter-cell covariances in
    the multi-cell case.  It is passed as M = (A + (N/rho_d) I)^{-1}, taken
    once per SNR point and serving every channel draw.  With X = M H_hat,
    the matrix-inversion lemma gives

        G = X (I_K + H_hat^H X)^{-1},

    one N x N product and one K x K solve.  Any orthonormal basis works as
    long as M and the estimates share it: the Monte Carlo passes the
    inverse of A's real image (`channel.real_image`) with the estimates in
    the real basis, and gets G in that basis.  A real M is applied without
    a complex copy.
    """
    k = estimates.shape[1]
    x = real_matmul(m_inv, estimates)
    gram = np.eye(k) + estimates.conj().T @ x
    # X gram^{-1}, transposed into a left solve
    return CombinerSet(vectors=np.linalg.solve(gram.T, x.T).T)


def conventional_sinr(estimates: np.ndarray, m_inv: np.ndarray) -> np.ndarray:
    """SINR_k of `conventional_combiner` scored against its own regularizer,
    (trials, K), for a block of trials.

    When the SINR's error and interference covariance B is the combiner's
    regularizer A (a single cell), the combiner is the MMSE filter of that
    SINR, so with M as in `conventional_combiner` the MMSE identity of
    `los_resolvent` gives 1/(1 + SINR_k) = [(I + H_hat^H M H_hat)^{-1}]_kk:
    no combining vector and no quadratic form is needed.  `estimates` is
    (N, trials, K), each trial's N x K estimates side by side, so M H_hat
    of the whole block is one real GEMM and the SINR one batched K x K
    inverse.  A non-finite or non-positive [(I + H_hat^H M H_hat)^{-1}]_kk
    raises ValueError, as a non-finite `CombinerSet` does.
    """
    n, trials, k = estimates.shape
    x = real_matmul(m_inv, estimates.reshape(n, trials * k)).reshape(n, trials, k)
    # (trials, N, K): every trial's N x K slice BLAS-ready
    h, x = estimates.transpose(1, 0, 2), x.transpose(1, 0, 2)
    m, c, _ = _resolvent_diagonals(np.swapaxes(h.conj(), -1, -2) @ x)
    if not np.all(np.isfinite(m) & (m > 0)):
        raise ValueError("conventional SINR is not finite: [(I + H^H M H)^{-1}]_kk <= 0 or NaN")
    return c / m


def _resolvent_diagonals(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, c, M^{-1}) of M = I + P for every K x K P on the last two axes:
    m_k = [M^{-1}]_kk and c_k = [P M^{-1}]_kk, a product rather than
    1 - m_k, which cancels when c_k is small."""
    m_inv = np.linalg.inv(np.eye(p.shape[-1]) + p)
    # + 0.0 turns the -0.0 a zero row of P can leave into +0.0
    c = np.real(np.sum(p * np.swapaxes(m_inv, -1, -2), axis=-1)) + 0.0
    return np.real(np.diagonal(m_inv, axis1=-2, axis2=-1)), c, m_inv


def los_resolvent(h_bar: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The K x K LoS resolvent behind every statistical combiner, SE and DE.

    With X = C^{-1} Hbar (`x`) for a Hermitian positive definite C, P = Hbar^H X
    and M = I + P, returns m_k = [M^{-1}]_kk, c_k = [P M^{-1}]_kk and
    U = X M^{-1} = (C + Hbar Hbar^H)^{-1} Hbar.  By the MMSE identity
    m_k = 1/(1 + SINR_k), SINR_k = h_bar_k^H (C + Hbar_k Hbar_k^H)^{-1} h_bar_k
    with Hbar_k = Hbar without column k; as m_k + c_k = 1, SINR_k = c_k/m_k
    and u_k/m_k is that leave-one-out solve.  c_k is a product, not 1 - m_k,
    which cancels under weak LoS; h_bar_k = 0 gives c_k = 0 and u_k = 0 exactly.
    """
    m, c, m_inv = _resolvent_diagonals(h_bar.conj().T @ x)
    return m, c, x @ m_inv


def statistical_resolvent(
    bs: BSStatistics, rho_ds: list[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The `los_resolvent` m, c and U of the served links over a grid of data SNRs,
    C = sum_i R_i + (N/rho_d) I, with the inter-cell form u_k^H R_out u_k of
    R_out = sum_{l != j, k} R_jlk: (m, c, U, form), each stacked over the
    points of `rho_ds` on a first axis (U is (P, N, K), the rest (P, K)).

    On a BS of one shared theta (`bs.basis` V) every covariance is diagonal
    in V, and so is C: V^T C V = diag(d + N/rho_d) with d = sum_k lam_jk.
    With H = `bs.h_rot`, the grams P = H^H diag(d + N/rho_d)^{-1} H of every
    point are one array operation, one stacked K x K resolvent gives m and
    c, U = V^T u = diag(d + N/rho_d)^{-1} H M^{-1} is in V's basis, and the
    form is sum_c w_c |[V^T u_k]_c|^2 with w = sum_{l != j, k} lam_lk: no
    N x N solve, product or image.

    Otherwise each point takes one real N x N solve of the image
    `bs.local` + (N/rho_d) I against the interleaved columns of `bs.h_bar`;
    U comes back in the real basis, and the form is its real product with
    `bs.inter`, or zero in a single cell, where R_out = 0.  m and c are
    invariant under Q and V.
    """
    if bs.basis is not None:
        h, lam = bs.h_rot, bs.eigvals
        # (P, N): the diagonal of V^T C^{-1} V at every point
        c_inv = 1.0 / (lam[bs.j].sum(0) + len(h) / np.array(rho_ds)[:, None])
        m, c, m_inv = _resolvent_diagonals((h.conj().T * c_inv[:, None]) @ h)
        # U = C^{-1} Hbar M^{-1}, scaled in place: one (P, N, K) array is alive
        u = h @ m_inv
        u *= c_inv[..., None]
        # w-weighted squares summed over the interleaved real and imaginary parts
        parts = u.view(np.float64)
        squares = np.einsum("n,pnk,pnk->pk", lam[bs.others].sum((0, 1)), parts, parts)
        return m, c, u, squares[:, ::2] + squares[:, 1::2]
    n, k = bs.h_bar.shape
    m, c, form = np.zeros((3, len(rho_ds), k))
    u = np.empty((len(rho_ds), n, k), dtype=complex)
    for p, rho_d in enumerate(rho_ds):
        c_image = bs.local + (n / rho_d) * np.eye(n)
        x = np.linalg.solve(c_image, bs.h_bar.view(np.float64)).view(np.complex128)
        m[p], c[p], u[p] = los_resolvent(bs.h_bar, x)
        if len(bs.links) > 1:
            form[p] = np.real(np.sum(u[p].conj() * real_matmul(bs.inter, u[p]), axis=0))
    return m, c, u, form


def statistical_combiner(profiles: list[UserLinkProfile], rho_d: float) -> CombinerSet:
    """g_bar_k = (sum_i R_i + Hbar_k Hbar_k^H + (N/rho_d) I)^{-1} h_bar_k.

    Hbar_k drops column k, so only the *other* users' LoS directions are
    whitened.  Uses local statistics only, so the multi-cell receiver is the
    same; a user with kappa = 0 gets the zero vector (its LoS numerator
    vanishes).  The columns are u_k / m_k of `statistical_resolvent`, taken
    from theta's eigenbasis to the real basis where the links share one
    theta, and mapped back to the antenna basis.
    """
    bs = BSStatistics([profiles], 0)
    m, _, u, _ = statistical_resolvent(bs, [rho_d])
    g = u[0] / m[0]
    if bs.basis is not None:
        g = real_matmul(bs.basis, g)
    return CombinerSet(vectors=antenna_basis(g.T).T)
