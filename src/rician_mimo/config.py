"""System-level configuration shared by all modules.

A `SystemConfig` is one operating point; every SE function that reads one
returns nats, and the log base is applied where result rows are built.
"""

from __future__ import annotations

from dataclasses import dataclass


class ConfigError(ValueError):
    """A configuration value violates one of the system constraints."""


@dataclass(frozen=True)
class SystemConfig:
    """Global scalar parameters of one uplink scenario.

    SNRs are linear (not dB). `training_len` must satisfy K <= tau < T so
    that the K pilot sequences stay orthogonal within the training window.
    """

    n_antennas: int
    n_users: int
    coherence_len: int
    training_len: int
    snr_data: float
    snr_training: float

    def __post_init__(self):
        for name in ("n_antennas", "n_users", "coherence_len", "training_len"):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        if not (self.n_users <= self.training_len < self.coherence_len):
            raise ConfigError(
                "pilot orthogonality requires K <= tau < T, got "
                f"K={self.n_users}, tau={self.training_len}, T={self.coherence_len}"
            )
        if not (self.snr_data > 0 and self.snr_training > 0):
            raise ConfigError("SNRs must be strictly positive")

    @property
    def prelog(self) -> float:
        """Fraction of the coherence block left for data after training."""
        return 1.0 - self.training_len / self.coherence_len
