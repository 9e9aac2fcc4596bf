"""Frequency-selective (OFDM) extension of the Bussgang LMMSE estimator.

One-bit quantization destroys subcarrier orthogonality, so the wideband
channel cannot be split into parallel narrowband problems; estimation is
carried out directly on the quantized time-domain signal using circulant
pilot matrices built from the IFFT of the frequency-domain pilots.
The default tap prior I_M kron I/L is solved per antenna, at M = 1, as flat
training's i.i.d. prior is; a general tap covariance is solved dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import crandn, training_signal, unvec
from .config import SystemConfig, _integer
from .estimators import _bussgang_lmmse

__all__ = [
    "OfdmConfig",
    "td_pilot_matrix",
    "qpsk_pilots",
    "gen_tap_channel",
    "ofdm_training_signal",
    "ofdm_blmmse_filter",
    "blmmse_ofdm",
]


@dataclass(frozen=True)
class OfdmConfig:
    """OFDM numerology: N_c subcarriers, cyclic prefix N_cp, L channel taps."""

    N_c: int
    N_cp: int
    L: int

    def __post_init__(self):
        for name in ("N_c", "N_cp", "L"):
            if not _integer(v := getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if not (self.L - 1 <= self.N_cp <= self.N_c):
            raise ValueError(
                f"need L-1 <= N_cp <= N_c, got L={self.L}, N_cp={self.N_cp}, N_c={self.N_c}"
            )
        if self.L < 1:
            raise ValueError("L must be >= 1")


def td_pilot_matrix(x_fd: np.ndarray, L: int) -> np.ndarray:
    """Circulant time-domain pilot matrix of one user, truncated to L columns.

    Its first column is the unitary IFFT of the frequency-domain symbol
    vector x_fd. L must lie in [1, len(x_fd)].
    """
    x_fd = np.asarray(x_fd).reshape(-1)
    if not 1 <= L <= x_fd.size:
        raise ValueError(f"need 1 <= L <= {x_fd.size}, got L={L}")
    phi_td = np.fft.ifft(x_fd) * np.sqrt(x_fd.size)
    i = np.arange(phi_td.size)
    return phi_td[(i[:, None] - i[:L]) % phi_td.size]  # [i, j] is phi_td[(i - j) mod N]


def qpsk_pilots(N_c: int, K: int, seed) -> np.ndarray:
    """Unit-modulus QPSK frequency-domain pilots, one column per user."""
    rng = np.random.default_rng(seed)
    sym = np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * rng.integers(0, 4, (N_c, K))))
    return sym


def gen_tap_channel(M: int, K: int, L: int, seed) -> np.ndarray:
    """Draw time-domain taps h[m, k, l] ~ CN(0, 1/L); returns an (M, K, L) array."""
    rng = np.random.default_rng(seed)
    return crandn(rng, M, K, L) * np.sqrt(1.0 / L)


def _pilot_matrix(pilots_fd: np.ndarray, ofdm: OfdmConfig, K: int) -> np.ndarray:
    """N_c x L*K time-domain pilot matrix Phi_L: each user's circulant, L columns."""
    N_c, K_p = pilots_fd.shape
    if N_c != ofdm.N_c:
        raise ValueError(f"pilots have {N_c} rows but ofdm.N_c = {ofdm.N_c}")
    if K_p != K:
        raise ValueError(f"pilots have {K_p} columns but K = {K}")
    if N_c < ofdm.L * K:
        raise ValueError(
            f"N_c = {N_c} < L*K = {ofdm.L * K}: tap vector not identifiable"
        )
    return np.hstack([td_pilot_matrix(pilots_fd[:, k], ofdm.L) for k in range(K)])


def _antenna_filter(pilots_fd, ofdm: OfdmConfig, cfg: SystemConfig, uncorrelated=False):
    """One antenna's filter G_1 (K*L x N_c) under the tap prior I/L, with its mse."""
    Phib = np.sqrt(cfg.rho_p) * _pilot_matrix(pilots_fd, ofdm, cfg.K)
    G1, _, mse = _bussgang_lmmse(Phib, np.eye(Phib.shape[1]) / ofdm.L, uncorrelated)
    return G1, mse


def ofdm_training_signal(
    taps: np.ndarray, pilots_fd: np.ndarray, ofdm: OfdmConfig, rho_p: float, noise_seed
) -> np.ndarray:
    """Unquantized stacked time-domain receive vector of length M*N_c.

    taps has shape (M, K, L). The flat :func:`training_signal` with the K*L
    taps as users and Phi_L as pilots, stacked antenna-major.
    """
    M, K, L = taps.shape
    if L != ofdm.L:
        raise ValueError(f"taps have {L} taps but ofdm.L = {ofdm.L}")
    Phi_L = _pilot_matrix(pilots_fd, ofdm, K)
    y = training_signal(taps.reshape(M, K * L), Phi_L, rho_p, noise_seed)
    return unvec(y, M, ofdm.N_c).reshape(-1)


def ofdm_blmmse_filter(
    pilots_fd: np.ndarray,
    ofdm: OfdmConfig,
    cfg: SystemConfig,
    C_h_td: np.ndarray | None = None,
    diagonal_quantizer_noise: bool = False,
) -> tuple[np.ndarray, float]:
    """LMMSE filter for the quantized time-domain signal, with its MSE.

    Returns (G, mse): the tap estimate is G @ r_td, and mse the normalized
    MSE it attains (arcsine law). Without C_h_td, under the I/L prior of
    :func:`gen_tap_channel`, G = kron(I_M, G_1) with G_1 solved at M = 1; a
    C_h_td is solved on the dense kron(I_M, sqrt(rho_p) Phi_L).
    `diagonal_quantizer_noise` solves with the uncorrelated surrogate
    A C_y A^H + (1 - 2/pi) I in place of the arcsine output covariance.
    """
    if C_h_td is None:
        G1, mse = _antenna_filter(pilots_fd, ofdm, cfg, diagonal_quantizer_noise)
        return np.kron(np.eye(cfg.M), G1), mse
    Phib = np.kron(np.eye(cfg.M), np.sqrt(cfg.rho_p) * _pilot_matrix(pilots_fd, ofdm, cfg.K))
    G, _, mse = _bussgang_lmmse(Phib, C_h_td, diagonal_quantizer_noise)
    return G, mse


def blmmse_ofdm(
    r_td: np.ndarray, pilots_fd: np.ndarray, ofdm: OfdmConfig, cfg: SystemConfig
) -> np.ndarray:
    """Tap-domain Bussgang LMMSE estimate from the quantized time-domain signal.

    Returns the stacked M*K*L tap vector (reshape to (M, K, L) to index per
    antenna/user/tap), under the taps CN(0, 1/L) of :func:`gen_tap_channel`,
    as R G_1^T on the M x N_c training matrix R. Other priors and the diagonal
    quantizer-noise surrogate are applied as ``ofdm_blmmse_filter(...)[0] @ r_td``.
    """
    G1, _ = _antenna_filter(pilots_fd, ofdm, cfg)
    return (np.asarray(r_td).reshape(cfg.M, ofdm.N_c) @ G1.T).reshape(-1)
