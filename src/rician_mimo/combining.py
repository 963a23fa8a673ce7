"""Receive combining vectors.

Two families: conventional combiners built from instantaneous channel
estimates plus an error/interference covariance regularizer, and statistical
combiners built only from long-term statistics (no training required).
Combiners are not normalized; every SINR downstream is scale-invariant in g.

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


def conventional_combiner(
    estimates: np.ndarray,
    regularizer_eig: tuple[np.ndarray, np.ndarray],
    rho_d: float,
) -> CombinerSet:
    """g_k = (H_hat H_hat^H + A + (N/rho_d) I)^{-1} h_hat_k.

    A is the Hermitian PSD regularizer: the sum of estimation error
    covariances in the single-cell case, plus the inter-cell covariances in
    the multi-cell case.  It is passed as its eigenpair (lam, U) =
    `np.linalg.eigh(A)`, so one decomposition serves every SNR and every
    channel draw: the SNR only shifts lam.  With X = U^H H_hat and
    D = diag(1/(lam + N/rho_d)), the matrix-inversion lemma gives

        G = U (D X) (I_K + X^H D X)^{-1},

    an N x K rotation plus one K x K solve; no N x N system is formed.
    Any orthonormal basis works as long as A and the estimates share it:
    the Monte Carlo passes the real eigenpair of A's real image
    (`channel.real_image`) with the estimates in the real basis, and gets
    G in that basis.  A real U is applied without a complex copy.
    """
    lam, u = regularizer_eig
    n, k = estimates.shape
    x = real_matmul(u.conj().T, estimates)
    dx = x / (lam + n / rho_d)[:, None]
    gram = np.eye(k) + x.conj().T @ dx
    # (D X) gram^{-1}, transposed into a left solve
    vectors = real_matmul(u, np.linalg.solve(gram.T, dx.T).T)
    return CombinerSet(vectors=vectors)


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
    p = h_bar.conj().T @ x
    m_inv = np.linalg.inv(np.eye(p.shape[0]) + p)
    # + 0.0 turns the -0.0 a zero row of P can leave into +0.0
    c = np.real(np.sum(p * m_inv.T, axis=1)) + 0.0
    return np.real(np.diag(m_inv)), c, x @ m_inv


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
