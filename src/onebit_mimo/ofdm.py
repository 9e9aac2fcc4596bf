"""Frequency-selective (OFDM) extension of the Bussgang LMMSE estimator.

One-bit quantization destroys subcarrier orthogonality, so the wideband
channel cannot be split into parallel narrowband problems; estimation is
carried out directly on the quantized time-domain signal using circulant
pilot matrices built from the IFFT of the frequency-domain pilots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import crandn
from .config import SystemConfig
from .estimators import _bussgang_lmmse
from .quantize import arcsine_covariance

__all__ = [
    "OfdmConfig",
    "td_pilot_matrix",
    "qpsk_pilots",
    "uniform_tap_covariance",
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
        if not (self.L - 1 <= self.N_cp <= self.N_c):
            raise ValueError(
                f"need L-1 <= N_cp <= N_c, got L={self.L}, N_cp={self.N_cp}, N_c={self.N_c}"
            )
        if self.L < 1:
            raise ValueError("L must be >= 1")


def td_pilot_matrix(x_fd: np.ndarray, L: int | None = None) -> np.ndarray:
    """Circulant time-domain pilot matrix of one user, truncated to L columns.

    Its first column is the unitary IFFT of the frequency-domain symbol
    vector x_fd.
    """
    x_fd = np.asarray(x_fd).reshape(-1)
    phi_td = np.fft.ifft(x_fd) * np.sqrt(x_fd.size)
    i = np.arange(phi_td.size)
    C = phi_td[(i[:, None] - i) % phi_td.size]  # C[i, j] = phi_td[(i - j) mod N]
    return C if L is None else C[:, :L]


def qpsk_pilots(N_c: int, K: int, seed) -> np.ndarray:
    """Unit-modulus QPSK frequency-domain pilots, one column per user."""
    rng = np.random.default_rng(seed)
    sym = np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * rng.integers(0, 4, (N_c, K))))
    return sym


def uniform_tap_covariance(M: int, K: int, L: int) -> np.ndarray:
    """Diagonal tap covariance with a uniform power-delay profile summing to 1."""
    return np.eye(M * K * L) / L


def gen_tap_channel(M: int, K: int, L: int, seed, profile=None) -> np.ndarray:
    """Draw time-domain taps h[m, k, l] ~ CN(0, profile[l]); returns an (M, K, L) array."""
    rng = np.random.default_rng(seed)
    if profile is None:
        profile = np.full(L, 1.0 / L)
    return crandn(rng, M, K, L) * np.sqrt(np.asarray(profile))


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


def _stacked_pilots(pilots_fd: np.ndarray, ofdm: OfdmConfig, cfg: SystemConfig):
    Phi_L = _pilot_matrix(pilots_fd, ofdm, cfg.K)
    return np.kron(np.eye(cfg.M), np.sqrt(cfg.rho_p) * Phi_L)  # M*N_c x M*K*L


def ofdm_training_signal(
    taps: np.ndarray, pilots_fd: np.ndarray, ofdm: OfdmConfig, rho_p: float, noise_seed
) -> np.ndarray:
    """Unquantized stacked time-domain receive vector of length M*N_c.

    taps has shape (M, K, L); the stacking is antenna-major with the K
    users' tap vectors concatenated inside each antenna block.
    """
    M, K, L = taps.shape
    if L != ofdm.L:
        raise ValueError(f"taps have {L} taps but ofdm.L = {ofdm.L}")
    Phi_L = _pilot_matrix(pilots_fd, ofdm, K)
    h = taps.reshape(M, K * L)
    Y = np.sqrt(rho_p) * h @ Phi_L.T  # M x N_c
    rng = np.random.default_rng(noise_seed)
    return (Y + crandn(rng, M, ofdm.N_c)).reshape(-1)


def ofdm_blmmse_filter(
    pilots_fd: np.ndarray,
    ofdm: OfdmConfig,
    cfg: SystemConfig,
    C_h_td: np.ndarray | None = None,
    diagonal_quantizer_noise: bool = False,
) -> tuple[np.ndarray, float]:
    """LMMSE filter for the quantized time-domain signal, with predicted MSE.

    Returns (G, mse) where the tap estimate is G @ r_td. Setting
    `diagonal_quantizer_noise` replaces the arcsine output covariance by the
    uncorrelated surrogate A C_y A^H + (1 - 2/pi) I; in that case the
    returned mse is the exact second-order MSE of the mismatched filter.
    """
    Phib = _stacked_pilots(pilots_fd, ofdm, cfg)
    G, cross, C_y, C = _bussgang_lmmse(Phib, C_h_td, diagonal_quantizer_noise)
    # exact second-order MSE of the (possibly mismatched) linear filter:
    # tr(C_h) - 2 Re tr(G C_rh) + tr(G C_r G^H), with C_rh = A Phi_bar C_h
    trace_prior = (
        float(Phib.shape[1]) if C_h_td is None else float(np.real(np.trace(C_h_td)))
    )
    # the arcsine-law filter was solved with C_r itself
    C_r = arcsine_covariance(C_y) if diagonal_quantizer_noise else C
    quad = float(np.real(np.sum((G @ C_r) * G.conj())))
    mse = (trace_prior - 2.0 * cross + quad) / trace_prior
    return G, mse


def blmmse_ofdm(
    r_td: np.ndarray,
    pilots_fd: np.ndarray,
    ofdm: OfdmConfig,
    cfg: SystemConfig,
    C_h_td: np.ndarray | None = None,
    diagonal_quantizer_noise: bool = False,
) -> np.ndarray:
    """Tap-domain Bussgang LMMSE estimate from the quantized time-domain signal.

    Returns the stacked M*K*L tap vector (reshape to (M, K, L) to index per
    antenna/user/tap).
    """
    G, _ = ofdm_blmmse_filter(pilots_fd, ofdm, cfg, C_h_td, diagonal_quantizer_noise)
    return G @ np.asarray(r_td).reshape(-1)
