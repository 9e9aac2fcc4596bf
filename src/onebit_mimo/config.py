"""System-level parameter records and dB/linear conversions."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


def db_to_linear(x_db: float) -> float:
    """Convert a power quantity from dB to linear scale."""
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    """Convert a linear power quantity to dB."""
    return 10.0 * math.log10(x)


@dataclass(frozen=True)
class SystemConfig:
    """Dimensions and powers of one uplink scenario.

    M antennas, K single-antenna users, tau training symbols out of a
    T-symbol coherence interval, and the pilot/data SNRs in linear scale.
    """

    M: int
    K: int
    tau: int
    T: int = 200
    rho_p: float = 1.0
    rho_d: float = 1.0

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if not (1 <= self.K <= self.tau <= self.T):
            raise ValueError(
                f"need 1 <= K <= tau <= T, got K={self.K}, tau={self.tau}, T={self.T}"
            )
        if not (0 <= self.rho_p < math.inf and 0 <= self.rho_d < math.inf):
            raise ValueError(f"SNRs must be finite and >= 0, got {self.rho_p}, {self.rho_d}")

    def with_snr(self, rho: float) -> "SystemConfig":
        """Copy with rho_p = rho_d = rho (the common simulation sweep)."""
        return replace(self, rho_p=rho, rho_d=rho)


@dataclass(frozen=True)
class PowerBudget:
    """Total transmit-energy budget over one coherence interval.

    rho is the average per-symbol power; P = rho * T is what the
    allocation optimizer splits between training and data.
    """

    rho: float
    T: int = 200

    def __post_init__(self):
        if not 0 < self.rho < math.inf or self.T < 1:
            raise ValueError(f"need finite rho > 0 and T >= 1, got rho={self.rho}, T={self.T}")

    @property
    def P(self) -> float:
        return self.rho * self.T
