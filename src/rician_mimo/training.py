"""Optimal training length for conventional combining.

Works on the simplified deterministic equivalent: the average SE over users,
(1 - tau/T) * mean_k log(1 + gamma_k(tau)) with gamma_k = rho_d/[Q(tau)]_kk - 1,
is maximized over tau in [K, T).  All tau dependence enters through the
per-user eigenvalues of the correlation matrices, so re-evaluating at a new
tau costs one K x K inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import UserLinkProfile
from .config import SystemConfig

FIXED_POINT_DAMPING = 0.5
MAX_FIXED_POINT_ITERS = 200


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
    rho_tr, T and the log base (its training_len is ignored).
    """

    def __init__(self, profiles: list[UserLinkProfile], config: SystemConfig):
        self.config = config
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

    def _q_matrix(self, tau: float) -> np.ndarray:
        s = 1.0 / (tau * self.rho_tr)
        traces = np.sum(self.eigs**2 / (self.eigs + s), axis=1)  # tr(R_tilde)
        q_inv = self.gram + np.diag(traces) / self.n + np.eye(self.k) / self.rho_d
        q = np.linalg.inv(q_inv)
        return 0.5 * (q + q.conj().T)

    def d_alpha_diag(self, tau: float, alpha: int) -> np.ndarray:
        """Per-user (-1)^alpha/(rho_tr tau^alpha) * (1/N) tr(R^alpha Phi^alpha)."""
        s = 1.0 / (tau * self.rho_tr)
        tr = np.sum((self.eigs / (self.eigs + s)) ** alpha, axis=1) / self.n
        return ((-1.0) ** alpha) / (self.rho_tr * tau**alpha) * tr

    def gamma(self, tau: float) -> np.ndarray:
        q_diag = np.real(np.diag(self._q_matrix(tau)))
        return self.rho_d / q_diag - 1.0

    def _d2(self, tau: float) -> np.ndarray:
        # d/dtau of (1/N) tr(R_tilde_l); equals |D_2| of the closed form
        s = 1.0 / (tau * self.rho_tr)
        tr = np.sum(self.eigs**2 / (self.eigs + s) ** 2, axis=1) / self.n
        return tr / (self.rho_tr * tau**2)

    def gamma_prime(self, tau: float) -> np.ndarray:
        q = self._q_matrix(tau)
        q_diag = np.real(np.diag(q))
        d2 = self._d2(tau)
        quad = np.real(np.einsum("lk,l,lk->k", q.conj(), d2, q))
        return self.rho_d * quad / q_diag**2

    def gamma_second(self, tau: float) -> np.ndarray:
        """Analytic second derivative (used by concavity checks only)."""
        s = 1.0 / (tau * self.rho_tr)
        q = self._q_matrix(tau)
        q_diag = np.real(np.diag(q))
        d2 = self._d2(tau)
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
        """Average simplified SE per user at training length tau."""
        gam = self.gamma(tau)
        return (1.0 - tau / self.t) * float(np.mean(np.log1p(gam))) * self.config.log_scale

    def se_derivative(self, tau: float) -> float:
        """d/dtau of the average simplified SE (without the log-base scale)."""
        gam = self.gamma(tau)
        gp = self.gamma_prime(tau)
        return -np.mean(np.log1p(gam)) / self.t + (1.0 - tau / self.t) * float(
            np.mean(gp / (1.0 + gam))
        )


def gamma_of_tau(profiles: list[UserLinkProfile], config: SystemConfig, tau: float) -> np.ndarray:
    if tau <= 0:
        raise ValueError("tau must be positive")
    return TrainingCurve(profiles, config).gamma(tau)


def gamma_prime(profiles: list[UserLinkProfile], config: SystemConfig, tau: float) -> np.ndarray:
    if tau <= 0:
        raise ValueError("tau must be positive")
    return TrainingCurve(profiles, config).gamma_prime(tau)


def _bisect_root(curve: TrainingCurve, lo: float, hi: float) -> float:
    """Root of the (monotone decreasing) SE derivative on [lo, hi]."""
    f_lo = curve.se_derivative(lo)
    if f_lo <= 0:
        return lo
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

    Checks the stationarity condition at tau = K first; otherwise runs a
    damped fixed-point iteration on tau = T - avg(log(1+gamma))/avg(gamma'/(1+gamma)),
    with bisection on the (monotone) SE derivative as a fallback.  The
    returned tau_star is the better of the two integers around the
    continuous root.
    """
    curve = TrainingCurve(profiles, config)
    k, t = curve.k, curve.t
    if k >= t:
        raise ValueError("need K < T to optimize the training length")
    gam = curve.gamma(float(k))
    gp = curve.gamma_prime(float(k))
    boundary = float(np.mean((t - k) * gp / (1.0 + gam) - np.log1p(gam)))
    if boundary <= 0:
        tau_cont = float(k)
        boundary_hit = True
    else:
        boundary_hit = False
        tau = float(k)
        converged = False
        for _ in range(MAX_FIXED_POINT_ITERS):
            gam = curve.gamma(tau)
            gp = curve.gamma_prime(tau)
            denom = float(np.mean(gp / (1.0 + gam)))
            if denom <= 0:
                break
            target = t - float(np.mean(np.log1p(gam))) / denom
            target = min(max(target, float(k)), t - 1e-9 * t)
            step = target - tau
            tau = tau + FIXED_POINT_DAMPING * step
            if abs(step) <= 1e-6 * t:
                converged = True
                break
        tau_cont = tau if converged else _bisect_root(curve, float(k), t - 1e-9 * t)
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
    correlation part of the user's covariance.
    """
    theta_trace = np.real(np.trace(profile.theta))
    t, k = config.coherence_len, config.n_users
    return float(theta_trace / profile.n_antennas * (t - k) / k)
