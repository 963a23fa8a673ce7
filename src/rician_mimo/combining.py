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
    bs: BSStatistics, rho_d: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`los_resolvent` of the served links, C = sum_i R_i + (N/rho_d) I.

    It runs in the real basis: the image of C is real, so X = C^{-1} Hbar is
    one real N x N solve against the interleaved columns of `bs.h_bar`.
    m and c are invariant under Q; U comes back in the real basis.
    """
    n = len(bs.local)
    c_image = bs.local + (n / rho_d) * np.eye(n)
    x = np.linalg.solve(c_image, bs.h_bar.view(np.float64)).view(np.complex128)
    return los_resolvent(bs.h_bar, x)


def statistical_combiner(profiles: list[UserLinkProfile], rho_d: float) -> CombinerSet:
    """g_bar_k = (sum_i R_i + Hbar_k Hbar_k^H + (N/rho_d) I)^{-1} h_bar_k.

    Hbar_k drops column k, so only the *other* users' LoS directions are
    whitened.  Uses local statistics only, so the multi-cell receiver is the
    same; a user with kappa = 0 gets the zero vector (its LoS numerator
    vanishes).  The columns are u_k / m_k of `statistical_resolvent`, mapped
    back to the antenna basis.
    """
    m, _, u = statistical_resolvent(BSStatistics([profiles], 0), rho_d)
    return CombinerSet(vectors=antenna_basis((u / m).T).T)
