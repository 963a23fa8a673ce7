"""Receive combining vectors.

Two families: conventional combiners built from instantaneous channel
estimates plus an error/interference covariance regularizer, and statistical
combiners built only from long-term statistics (no training required).
Combiners are not normalized; every SINR downstream is scale-invariant in g.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import UserLinkProfile, real_matmul


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


def statistical_combiner(profiles: list[UserLinkProfile], rho_d: float) -> CombinerSet:
    """g_bar_k = (sum_i R_i + Hbar_k Hbar_k^H + (N/rho_d) I)^{-1} h_bar_k.

    Hbar_k drops column k, so only the *other* users' LoS directions are
    whitened.  Uses local statistics only, so the multi-cell receiver is the
    same; a user with kappa = 0 gets the zero vector (its LoS numerator
    vanishes).
    """
    n = profiles[0].n_antennas
    h_bar = np.column_stack([p.h_bar for p in profiles])
    r_sum = sum(p.r_cov for p in profiles)
    base = r_sum + h_bar @ h_bar.conj().T + (n / rho_d) * np.eye(n)
    # one factorization of the full matrix; dropping column k from Hbar is a
    # rank-1 downdate, handled per user by Sherman-Morrison
    solved = np.linalg.solve(base, h_bar)
    quad = np.real(np.sum(h_bar.conj() * solved, axis=0))
    vectors = solved / (1.0 - quad)
    return CombinerSet(vectors=vectors)
