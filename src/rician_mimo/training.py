"""Optimal training length for conventional combining.

Works on the simplified deterministic equivalent: the average SE over users
in nats, (1 - tau/T) * mean_k log(1 + gamma_k(tau)) with gamma_k =
rho_d/[Q(tau)]_kk - 1, is maximized over tau in [K, T).  gamma_k is
evaluated as rho_d [Q G]_kk / [Q]_kk, G = Q^{-1} - I/rho_d, which is the
same number without the cancellation at low SNR.  All tau dependence
enters through the per-user eigenvalues of the correlation matrices, so
re-evaluating at a new tau costs one K x K inverse, `asymptotics.resolvent`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import resolvent
from .channel import UserLinkProfile
from .config import SystemConfig


@dataclass
class TrainingSolution:
    """Solver output: integer optimum plus the continuous root it came from."""

    tau_star: int
    tau_continuous: float
    boundary_hit: bool
    avg_se_at_star: float


class TrainingCurve:
    """gamma_k(tau), its derivatives and the average SE, for fixed SNRs.

    `profiles` are the served users' local links; `config` supplies rho_d,
    rho_tr and T (its training_len is ignored).  Q(tau) and [Q G]_kk are
    the conventional DE's `asymptotics.resolvent` of G = gram + diag(tr R_tilde)/N.
    """

    def __init__(self, profiles: list[UserLinkProfile], config: SystemConfig):
        self.n = profiles[0].n_antennas
        self.k = len(profiles)
        self.t = config.coherence_len
        self.rho_d = config.snr_data
        self.rho_tr = config.snr_training
        h_bar = np.column_stack([p.h_bar for p in profiles])
        self.gram = h_bar.conj().T @ h_bar / self.n
        # eigenvalues of each user's covariance, cached on the profile; every
        # tau-dependent trace is a scalar function of these
        self.eigs = np.stack([p.r_eigvals for p in profiles])

    def _shift(self, tau: float) -> float:
        """1/(tau rho_tr), read by every tau-dependent method: each refuses tau <= 0."""
        if tau <= 0:
            raise ValueError("tau must be positive")
        return 1.0 / (tau * self.rho_tr)

    def _resolvent(self, tau: float) -> tuple[np.ndarray, np.ndarray]:
        """`asymptotics.resolvent` (Q, signal) of G = gram + diag(tr R_tilde)/N."""
        s = self._shift(tau)
        traces = np.sum(self.eigs**2 / (self.eigs + s), axis=1)  # tr(R_tilde)
        return resolvent(self.gram + np.diag(traces) / self.n, self.rho_d)

    def d_alpha_diag(self, tau: float, alpha: int) -> np.ndarray:
        """Per-user (-1)^alpha/(rho_tr tau^alpha) * (1/N) tr(R^alpha Phi^alpha)."""
        s = self._shift(tau)
        tr = np.sum((self.eigs / (self.eigs + s)) ** alpha, axis=1) / self.n
        return ((-1.0) ** alpha) / (self.rho_tr * tau**alpha) * tr

    def gamma(self, tau: float) -> np.ndarray:
        return self._gamma(*self._resolvent(tau))

    def _gamma(self, q: np.ndarray, signal: np.ndarray) -> np.ndarray:
        # rho_d/[Q]_kk - 1 is rho_d [QG]_kk/[Q]_kk, with no cancellation
        return self.rho_d * signal / np.real(np.diag(q))

    def gamma_prime(self, tau: float) -> np.ndarray:
        return self._gamma_prime(tau, self._resolvent(tau)[0])

    def _gamma_prime(self, tau: float, q: np.ndarray) -> np.ndarray:
        q_diag = np.real(np.diag(q))
        d2 = self.d_alpha_diag(tau, 2)  # d/dtau of (1/N) tr(R_tilde_l)
        quad = np.real(np.einsum("lk,l,lk->k", q.conj(), d2, q))
        return self.rho_d * quad / q_diag**2

    def gamma_second(self, tau: float) -> np.ndarray:
        """Analytic second derivative (used by concavity checks only)."""
        s = self._shift(tau)
        q = self._resolvent(tau)[0]
        q_diag = np.real(np.diag(q))
        d2 = self.d_alpha_diag(tau, 2)
        # derivative of d2 itself
        tr2 = np.sum(self.eigs**2 / (self.eigs + s) ** 2, axis=1) / self.n
        tr3 = np.sum(self.eigs**2 / (self.eigs + s) ** 3, axis=1) / self.n
        d2p = -2.0 * tr2 / (self.rho_tr * tau**3) + 2.0 * tr3 / (self.rho_tr**2 * tau**4)
        d2q = q * d2[:, None]  # D2 @ Q scaled rows
        q_prime = -(q @ d2q)
        inner = q_prime.conj().T @ d2q + q.conj().T @ (d2p[:, None] * q) + d2q.conj().T @ q_prime
        num = np.real(np.diag(inner))
        cross = np.real(np.diag(q.conj().T @ d2q))
        qp_diag = np.real(np.diag(q_prime))
        return self.rho_d * (num / q_diag**2 - 2.0 * cross * qp_diag / q_diag**3)

    def avg_se(self, tau: float) -> float:
        """Average simplified SE per user at training length tau, in nats."""
        gam = self.gamma(tau)
        return (1.0 - tau / self.t) * float(np.mean(np.log1p(gam)))

    def se_derivative(self, tau: float) -> float:
        """d/dtau of the average simplified SE: gamma and its derivative
        read one resolvent Q(tau)."""
        q, signal = self._resolvent(tau)
        gam = self._gamma(q, signal)
        gp = self._gamma_prime(tau, q)
        return -np.mean(np.log1p(gam)) / self.t + (1.0 - tau / self.t) * float(
            np.mean(gp / (1.0 + gam))
        )


def _bisect_root(curve: TrainingCurve, lo: float, hi: float) -> float:
    """Root of the (monotone decreasing) SE derivative on [lo, hi], where
    the derivative at lo is positive."""
    if curve.se_derivative(hi) > 0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if curve.se_derivative(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9 * curve.t:
            break
    return 0.5 * (lo + hi)


def solve_tau_star(profiles: list[UserLinkProfile], config: SystemConfig) -> TrainingSolution:
    """Optimal training length of the average simplified SE.

    A non-positive SE derivative at tau = K puts the optimum there;
    otherwise the (monotone) derivative is bisected on [K, T).  tau_star is
    the better of the two integers around the continuous root.
    """
    curve = TrainingCurve(profiles, config)
    k, t = curve.k, curve.t
    if k >= t:
        raise ValueError("need K < T to optimize the training length")
    boundary_hit = curve.se_derivative(float(k)) <= 0
    tau_cont = float(k) if boundary_hit else _bisect_root(curve, float(k), t - 1e-9 * t)
    lo = int(min(max(math.floor(tau_cont), k), t - 1))
    hi = int(min(max(math.ceil(tau_cont), k), t - 1))
    candidates = sorted({lo, hi})
    tau_star = max(candidates, key=lambda c: (curve.avg_se(float(c)), -c))
    return TrainingSolution(
        tau_star=tau_star,
        tau_continuous=tau_cont,
        boundary_hit=boundary_hit,
        avg_se_at_star=curve.avg_se(float(tau_star)),
    )


def kappa_threshold(profile: UserLinkProfile, config: SystemConfig) -> float:
    """Rician factor above which statistical combining is provably no worse.

    Returns (tr Theta / N) * (T - K) / K where Theta is the unit-diagonal
    correlation part of the user's covariance.  tr Theta is read from its
    real image (`theta_image`), as Q leaves the trace unchanged.
    """
    theta_trace = np.trace(profile.theta_image)
    t, k = config.coherence_len, config.n_users
    return float(theta_trace / profile.n_antennas * (t - k) / k)
