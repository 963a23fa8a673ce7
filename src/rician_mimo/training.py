"""Optimal training length for conventional combining.

Works on the simplified deterministic equivalent: the average SE over users
in nats, (1 - tau/T) * mean_k log(1 + gamma_k(tau)) with gamma_k =
rho_d/[Q(tau)]_kk - 1, is maximized over tau in [K, T).  gamma_k is
evaluated as rho_d [Q G]_kk / [Q]_kk, G = Q^{-1} - I/rho_d, which is the
same number without the cancellation at low SNR.  All tau dependence
enters through the per-user eigenvalues of the correlation matrices, so
re-evaluating at a new tau costs one K x K inverse, `combining.resolvent`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import UserLinkProfile
from .combining import resolvent
from .config import SystemConfig


@dataclass
class TrainingSolution:
    """Solver output: integer optimum plus the continuous root it came from."""

    tau_star: int
    tau_continuous: float
    boundary_hit: bool
    avg_se_at_star: float


def _shift(tau: float, config: SystemConfig) -> float:
    """1/(tau rho_tr), read by every tau-dependent method: each refuses tau <= 0."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return 1.0 / (tau * config.snr_training)


class TrainingCurve:
    """gamma_k(tau), its derivatives and the average SE of one set of links.

    `profiles` are the served users' local links, and one curve serves every
    SNR point: each tau method reads rho_d, rho_tr and T from its `config`
    (whose training_len is ignored).  Q(tau) and [Q G]_kk are the
    conventional DE's `combining.resolvent` of G = gram + diag(tr R_tilde)/N.
    """

    def __init__(self, profiles: list[UserLinkProfile]):
        self.n = profiles[0].n_antennas
        self.k = len(profiles)
        h_bar = np.column_stack([p.h_bar for p in profiles])
        self.gram = h_bar.conj().T @ h_bar / self.n
        # eigenvalues of each user's covariance, cached on the profile; every
        # tau-dependent trace is a scalar function of these
        self.eigs = np.stack([p.r_eigvals for p in profiles])

    def _resolvent(self, tau: float, config: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
        """Q(tau) and gamma(tau), from one `combining.resolvent`."""
        s = _shift(tau, config)
        traces = np.sum(self.eigs**2 / (self.eigs + s), axis=1)  # tr(R_tilde)
        q, signal = resolvent(self.gram + np.diag(traces) / self.n, config.snr_data)
        # rho_d/[Q]_kk - 1 is rho_d [QG]_kk/[Q]_kk, with no cancellation
        return q, config.snr_data * signal / np.real(np.diag(q))

    def d_alpha_diag(self, tau: float, alpha: int, config: SystemConfig) -> np.ndarray:
        """Per-user (-1)^alpha/(rho_tr tau^alpha) * (1/N) tr(R^alpha Phi^alpha)."""
        s = _shift(tau, config)
        tr = np.sum((self.eigs / (self.eigs + s)) ** alpha, axis=1) / self.n
        return ((-1.0) ** alpha) / (config.snr_training * tau**alpha) * tr

    def gamma(self, tau: float, config: SystemConfig) -> np.ndarray:
        return self._resolvent(tau, config)[1]

    def gamma_prime(self, tau: float, config: SystemConfig) -> np.ndarray:
        return self._gamma_prime(tau, config, self._resolvent(tau, config)[0])

    def _gamma_prime(self, tau: float, config: SystemConfig, q: np.ndarray) -> np.ndarray:
        q_diag = np.real(np.diag(q))
        d2 = self.d_alpha_diag(tau, 2, config)  # d/dtau of (1/N) tr(R_tilde_l)
        quad = np.real(np.einsum("lk,l,lk->k", q.conj(), d2, q))
        return config.snr_data * quad / q_diag**2

    def gamma_second(self, tau: float, config: SystemConfig) -> np.ndarray:
        """Analytic second derivative (used by concavity checks only)."""
        s = _shift(tau, config)
        rho_tr = config.snr_training
        q = self._resolvent(tau, config)[0]
        q_diag = np.real(np.diag(q))
        d2 = self.d_alpha_diag(tau, 2, config)
        # derivative of d2 itself
        tr2 = np.sum(self.eigs**2 / (self.eigs + s) ** 2, axis=1) / self.n
        tr3 = np.sum(self.eigs**2 / (self.eigs + s) ** 3, axis=1) / self.n
        d2p = -2.0 * tr2 / (rho_tr * tau**3) + 2.0 * tr3 / (rho_tr**2 * tau**4)
        d2q = q * d2[:, None]  # D2 @ Q scaled rows
        q_prime = -(q @ d2q)
        inner = q_prime.conj().T @ d2q + q.conj().T @ (d2p[:, None] * q) + d2q.conj().T @ q_prime
        num = np.real(np.diag(inner))
        cross = np.real(np.diag(q.conj().T @ d2q))
        qp_diag = np.real(np.diag(q_prime))
        return config.snr_data * (num / q_diag**2 - 2.0 * cross * qp_diag / q_diag**3)

    def avg_se(self, tau: float, config: SystemConfig) -> float:
        """Average simplified SE per user at training length tau, in nats."""
        gam = self.gamma(tau, config)
        return (1.0 - tau / config.coherence_len) * float(np.mean(np.log1p(gam)))

    def se_derivative(self, tau: float, config: SystemConfig) -> float:
        """d/dtau of the average simplified SE: gamma and its derivative
        read one resolvent Q(tau)."""
        q, gam = self._resolvent(tau, config)
        gp = self._gamma_prime(tau, config, q)
        t = config.coherence_len
        return -np.mean(np.log1p(gam)) / t + (1.0 - tau / t) * float(np.mean(gp / (1.0 + gam)))


def _bisect_root(curve: TrainingCurve, config: SystemConfig, lo: float, hi: float) -> float:
    """Root of the (monotone decreasing) SE derivative on [lo, hi], where
    the derivative at lo is positive."""
    if curve.se_derivative(hi, config) > 0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if curve.se_derivative(mid, config) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9 * config.coherence_len:
            break
    return 0.5 * (lo + hi)


def solve_tau_star(
    profiles: list[UserLinkProfile], configs: list[SystemConfig]
) -> list[TrainingSolution]:
    """Optimal training length of the average simplified SE, one solution
    per config, all read off one `TrainingCurve` of the links.

    A non-positive SE derivative at tau = K puts the optimum there;
    otherwise the (monotone) derivative is bisected on [K, T).  tau_star is
    the better of the two integers around the continuous root.
    """
    curve = TrainingCurve(profiles)
    k = curve.k
    solutions = []
    for config in configs:
        t = config.coherence_len
        if k >= t:
            raise ValueError("need K < T to optimize the training length")
        boundary_hit = curve.se_derivative(float(k), config) <= 0
        tau_cont = float(k) if boundary_hit else _bisect_root(curve, config, float(k), t - 1e-9 * t)
        lo = int(min(max(math.floor(tau_cont), k), t - 1))
        hi = int(min(max(math.ceil(tau_cont), k), t - 1))
        se = {c: curve.avg_se(float(c), config) for c in sorted({lo, hi})}
        tau_star = max(se, key=lambda c: (se[c], -c))
        solutions.append(TrainingSolution(tau_star, tau_cont, boundary_hit, se[tau_star]))
    return solutions


def kappa_threshold(profile: UserLinkProfile, config: SystemConfig) -> float:
    """Rician factor above which statistical combining is provably no worse.

    Returns (tr Theta / N) * (T - K) / K where Theta is the unit-diagonal
    correlation part of the user's covariance.  tr Theta is read from its
    real image (`theta_image`), as Q leaves the trace unchanged.
    """
    theta_trace = np.trace(profile.theta_image)
    t, k = config.coherence_len, config.n_users
    return float(theta_trace / profile.n_antennas * (t - k) / k)
