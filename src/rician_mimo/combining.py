"""Receive combining vectors.

Two families: conventional combiners built from instantaneous channel
estimates plus an error/interference covariance regularizer, and statistical
combiners built only from long-term statistics (no training required).
Combiners are not normalized; every SINR downstream is scale-invariant in g.
Where the SINR is scored against the combiner's own regularizer (a single
cell), `conventional_sinr` reads it off the K x K gram of a whole block of
trials by the MMSE identity, and no combiner is formed.

`resolvent` is the package's one K x K resolvent.  Every statistical
quantity (the combiner, its exact SE and its LoS-only equivalent) reads it
as the LoS resolvent of the served links; the combiner and the exact SE
take it over a whole SNR grid from one `estimation.BSStatistics`, by one
algebra path (`statistical_resolvent`).
"""

from __future__ import annotations

import numpy as np

from .channel import UserLinkProfile, antenna_basis, real_matmul
from .estimation import BSStatistics


def _finite(vectors: np.ndarray) -> np.ndarray:
    """The K combining vectors (N, K), or ValueError if any is not finite."""
    if not np.all(np.isfinite(vectors)):
        raise ValueError("combining vectors must be finite")
    return vectors


def conventional_combiner(estimates: np.ndarray, m_inv: np.ndarray) -> np.ndarray:
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
    return _finite(np.linalg.solve(gram.T, x.T).T)


def resolvent(gram: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """The package's one K x K resolvent: (Q, signal) of every K x K gram G
    on the last two axes, Q = (G + I/rho)^{-1}, exactly Hermitian, and
    signal = Re diag(QG).  As Q (G + I/rho) = I, the signal is
    1 - [Q]_kk/rho with no cancellation at low SNR; a zero row of G gives
    signal +0.0.

    The conventional DE and the tau* curve read it at rho = rho_d.  Every
    other caller reads it at rho = 1 as the MMSE identity (Bjornson, Hoydis
    and Sanguinetti, Massive MIMO Networks, 2017, Sec. 4): with
    G = Hbar^H C^{-1} Hbar for a Hermitian positive definite C, Q = (I + G)^{-1},
    m_k = [Q]_kk and c_k = [QG]_kk satisfy m_k = 1/(1 + SINR_k),
    SINR_k = h_bar_k^H (C + Hbar_k Hbar_k^H)^{-1} h_bar_k with Hbar_k = Hbar
    without column k, and C^{-1} Hbar Q = (C + Hbar Hbar^H)^{-1} Hbar, whose
    column k over m_k is that leave-one-out solve.  As m_k + c_k = 1,
    SINR_k = c_k/m_k, with c_k a product, not 1 - m_k, which cancels under
    weak LoS; h_bar_k = 0 gives c_k = 0 and a zero column exactly.
    """
    q = np.linalg.inv(gram + np.eye(gram.shape[-1]) / rho)
    q = 0.5 * (q + np.swapaxes(q.conj(), -1, -2))
    # + 0.0 turns the -0.0 a zero row of G can leave into +0.0
    return q, np.real(np.einsum("...ki,...ik->...k", q, gram)) + 0.0


def conventional_sinr(estimates: np.ndarray, m_inv: np.ndarray) -> np.ndarray:
    """SINR_k of `conventional_combiner` scored against its own regularizer,
    (trials, K), for a block of trials.

    When the SINR's error and interference covariance B is the combiner's
    regularizer A (a single cell), the combiner is the MMSE filter of that
    SINR, so with M as in `conventional_combiner` the MMSE identity of
    `resolvent` gives 1/(1 + SINR_k) = [(I + H_hat^H M H_hat)^{-1}]_kk:
    no combining vector and no quadratic form is needed.  `estimates` is
    (N, trials, K), each trial's N x K estimates side by side, so M H_hat
    of the whole block is one real GEMM and the SINR one batched K x K
    inverse.  A non-finite or non-positive [(I + H_hat^H M H_hat)^{-1}]_kk
    raises ValueError, as a non-finite combiner does.
    """
    n, trials, k = estimates.shape
    x = real_matmul(m_inv, estimates.reshape(n, trials * k)).reshape(n, trials, k)
    # (trials, N, K): every trial's N x K slice BLAS-ready
    h, x = estimates.transpose(1, 0, 2), x.transpose(1, 0, 2)
    q, c = resolvent(np.swapaxes(h.conj(), -1, -2) @ x, 1.0)
    m = np.real(np.diagonal(q, axis1=-2, axis2=-1))
    if not np.all(np.isfinite(m) & (m > 0)):
        raise ValueError("conventional SINR is not finite: [(I + H^H M H)^{-1}]_kk <= 0 or NaN")
    return c / m


def statistical_resolvent(
    bs: BSStatistics, rho_ds: list[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The `resolvent` m, c and U of the served links over a grid of data SNRs,
    C = sum_i R_i + (N/rho_d) I, with the inter-cell form u_k^H R_out u_k of
    R_out = sum_{l != j, k} R_jlk: (m, c, U, form), each stacked over the
    points of `rho_ds` on a first axis (U is (P, N, K), the rest (P, K)).

    Every point reads the one eigenpair (d, W) of the local sum
    (`bs.local_eig`), in which C is diagonal: W^T C W = diag(d + N/rho_d).
    With H = `bs.h_rot` (Hbar in W), the grams G = H^H diag(d + N/rho_d)^{-1} H
    of every point are one array operation, one stacked `resolvent` at
    rho = 1 gives m and c, and U = W^T C^{-1} Hbar Q = diag(d + N/rho_d)^{-1} H Q
    is in W's basis: no N x N solve.  The form reads R_out in W once per
    call: on a shared theta, or in a single cell (R_out = 0), it is diagonal,
    sum_c w_c |[W^T u_k]_c|^2 with w = sum_{l != j, k} lam_lk, and otherwise
    the real product with W^T `inter` W.  m and c are invariant under Q
    and W.
    """
    d, w = bs.local_eig
    h = bs.h_rot
    # (P, N): the diagonal of W^T C^{-1} W at every point
    c_inv = 1.0 / (d + len(h) / np.array(rho_ds)[:, None])
    q, c = resolvent((h.conj().T * c_inv[:, None]) @ h, 1.0)
    # U = C^{-1} Hbar Q, scaled in place: one (P, N, K) array is alive
    u = h @ q
    u *= c_inv[..., None]
    # the form summed over the interleaved real and imaginary parts
    parts = u.view(np.float64)
    if bs.basis is None and len(bs.links) > 1:
        squares = np.einsum("pnk,pnk->pk", parts, (w.T @ bs.inter @ w) @ parts)
    else:
        # diagonal in W, with no weight at all in a single cell
        squares = np.einsum("n,pnk,pnk->pk", bs.eigvals[bs.others].sum((0, 1)), parts, parts)
    return np.real(np.diagonal(q, axis1=-2, axis2=-1)), c, u, squares[:, ::2] + squares[:, 1::2]


def statistical_combiner(profiles: list[UserLinkProfile], rho_d: float) -> np.ndarray:
    """g_bar_k = (sum_i R_i + Hbar_k Hbar_k^H + (N/rho_d) I)^{-1} h_bar_k.

    Hbar_k drops column k, so only the *other* users' LoS directions are
    whitened.  Uses local statistics only, so the multi-cell receiver is the
    same; a user with kappa = 0 gets the zero vector (its LoS numerator
    vanishes).  The columns are u_k / m_k of `statistical_resolvent`, taken
    from the eigenbasis W of the local sum to the real basis and mapped back
    to the antenna basis.
    """
    bs = BSStatistics([profiles], 0)
    m, _, u, _ = statistical_resolvent(bs, [rho_d])
    g = real_matmul(bs.local_eig[1], u[0] / m[0])
    return _finite(antenna_basis(g.T).T)
