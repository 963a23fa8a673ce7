"""System-level configuration shared by all modules."""

from __future__ import annotations

import math
from dataclasses import dataclass

LOG_BASES = ("natural", "base2")


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
    n_cells: int
    coherence_len: int
    training_len: int
    snr_data: float
    snr_training: float
    log_base: str = "natural"

    def __post_init__(self):
        for name in ("n_antennas", "n_users", "n_cells", "coherence_len", "training_len"):
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
        if self.log_base not in LOG_BASES:
            raise ConfigError(f"log_base must be one of {LOG_BASES}, got {self.log_base!r}")

    @property
    def prelog(self) -> float:
        """Fraction of the coherence block left for data after training."""
        return 1.0 - self.training_len / self.coherence_len

    @property
    def log_scale(self) -> float:
        """Factor that converts an SE in nats to the configured log base."""
        return 1.0 / math.log(2.0) if self.log_base == "base2" else 1.0
