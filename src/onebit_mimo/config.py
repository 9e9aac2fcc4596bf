"""System-level parameter records and dB/linear conversions."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


def db_to_linear(x_db: float) -> float:
    """Convert a power quantity from dB to linear scale."""
    return 10.0 ** (x_db / 10.0)


def _integer(v) -> bool:
    """Whether v is an integer, Python or numpy; a bool is not one."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _real(v) -> bool:
    """Whether v is a real number, Python or numpy; a bool is not one."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


@dataclass(frozen=True)
class SystemConfig:
    """Dimensions and powers of one uplink scenario.

    M antennas, K single-antenna users, tau training symbols out of a
    T-symbol coherence interval, and the pilot/data SNRs in linear scale.
    M is real (the closed forms take any M >= 1); K, tau and T are integers.
    """

    M: int
    K: int
    tau: int
    T: int = 200
    rho_p: float = 1.0
    rho_d: float = 1.0

    def __post_init__(self):
        for name in ("M", "rho_p", "rho_d"):
            if not _real(v := getattr(self, name)):
                raise ValueError(f"{name} must be a real number, got {v!r}")
        if not 1 <= self.M < math.inf:  # NaN fails
            raise ValueError(f"M must be finite and >= 1, got {self.M}")
        for name in ("K", "tau", "T"):
            if not _integer(v := getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if not (1 <= self.K <= self.tau <= self.T):
            raise ValueError(
                f"need 1 <= K <= tau <= T, got K={self.K}, tau={self.tau}, T={self.T}"
            )
        if not (0 <= self.rho_p < math.inf and 0 <= self.rho_d < math.inf):
            raise ValueError(f"SNRs must be finite and >= 0, got {self.rho_p}, {self.rho_d}")
