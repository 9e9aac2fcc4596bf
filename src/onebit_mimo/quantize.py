"""One-bit quantizer and its Bussgang linearization.

The quantizer keeps only the signs of the real and imaginary parts. For a
Gaussian input y with covariance C_y, the statistically equivalent linear
model is r = A y + q with a diagonal gain A, the exact output covariance
C_r given by the arcsine law, and quantizer noise q uncorrelated with y.
"""

from __future__ import annotations

import numpy as np

from .config import SystemConfig

__all__ = [
    "one_bit_quantize",
    "bussgang_gain",
    "arcsine_covariance",
    "quantizer_noise_cov",
    "quantizer_noise_quad",
    "alpha_p",
    "alpha_d",
]

# normalized quantizer-noise power of the uncorrelated approximation
UNCORR_NOISE_VAR = 1.0 - 2.0 / np.pi

_CLAMP_TOL = 1e-12


def one_bit_quantize(y: np.ndarray) -> np.ndarray:
    """Elementwise sign quantization to {+-1 +-1j}/sqrt(2), with sign(0) = +1.

    Scale-invariant: Q(c*y) = Q(y) for any c > 0.
    """
    y = np.asarray(y)
    re = np.where(y.real >= 0.0, 1.0, -1.0)
    im = np.where(y.imag >= 0.0, 1.0, -1.0)
    return (re + 1j * im) / np.sqrt(2.0)


def bussgang_gain(C_y: np.ndarray) -> np.ndarray:
    """Diagonal of the Bussgang gain, sqrt(2/pi) * diag(C_y)^(-1/2).

    Returns a real vector (the gain matrix is diagonal for Gaussian inputs).
    """
    d = np.real(np.diagonal(np.atleast_2d(C_y)))
    if np.any(d <= 0.0):
        raise ValueError("C_y must have strictly positive diagonal")
    return np.sqrt(2.0 / np.pi) / np.sqrt(d)


def _normalized_parts(C_y: np.ndarray):
    """S Re(C_y) S and S Im(C_y) S, S = diag(C_y)^(-1/2), of C_y or a stack (..., M, M)."""
    C_y = np.atleast_2d(C_y)
    d = np.real(np.diagonal(C_y, axis1=-2, axis2=-1))
    if np.any(d <= 0.0):
        raise ValueError("C_y must have strictly positive diagonal")
    s = 1.0 / np.sqrt(d)
    S = s[..., :, None] * s[..., None, :]
    X = np.real(C_y) * S
    Y = np.imag(C_y) * S
    # exact by construction; repairing rounding here matters because arcsin
    # has infinite slope at 1
    i = np.arange(d.shape[-1])
    X[..., i, i] = 1.0
    Y[..., i, i] = 0.0
    over = max(np.abs(X).max(), np.abs(Y).max()) - 1.0
    if over > _CLAMP_TOL:
        raise ValueError(
            f"normalized correlation exceeds 1 by {over:.3e}; C_y is not a valid covariance"
        )
    return np.clip(X, -1.0, 1.0, out=X), np.clip(Y, -1.0, 1.0, out=Y)


def arcsine_covariance(C_y: np.ndarray) -> np.ndarray:
    """Exact covariance of the one-bit output for Gaussian input covariance C_y.

    C_r = (2/pi) [arcsin(S Re(C_y) S) + j arcsin(S Im(C_y) S)], S = diag(C_y)^(-1/2),
    with arcsin applied elementwise. The diagonal is exactly 1.
    """
    X, Y = _normalized_parts(C_y)
    return (2.0 / np.pi) * (np.arcsin(X) + 1j * np.arcsin(Y))


def quantizer_noise_cov(C_y: np.ndarray) -> np.ndarray:
    """Covariance of the Bussgang quantizer noise, C_q = C_r - A C_y A^H.

    Not diagonal in general; the diagonal equals 1 - 2/pi exactly. C_y may
    be a stack (..., M, M): each matrix is converted as alone, and one
    invalid matrix rejects the stack with its own error.
    """
    P, Q = _noise_parts(C_y)
    return (2.0 / np.pi) * (P + 1j * Q)


def _noise_parts(C_y: np.ndarray):
    """P = arcsin(X) - X and Q = arcsin(Y) - Y, so that C_q = (2/pi)(P + jQ)."""
    X, Y = _normalized_parts(C_y)
    # A C_y A^H = (2/pi) * (X + jY) in normalized coordinates
    P = np.arcsin(X)
    P -= X
    Q = np.arcsin(Y)
    Q -= Y
    return P, Q


def quantizer_noise_quad(W: np.ndarray, C_y: np.ndarray) -> np.ndarray:
    """Re(w_k^T C_q w_k^*) for every row w_k of W, C_q = quantizer_noise_cov(C_y).

    W is K x M and C_y M x M, or stacks (..., K, M) and (..., M, M); the
    result has shape (..., K). With w = a + jb and C_q = (2/pi)(P + jQ),
    P = arcsin(X) - X symmetric and Q = arcsin(Y) - Y antisymmetric, the
    form is (2/pi)(a^T P a + b^T P b + 2 a^T Q b): real products only, and
    the complex C_q is never formed.
    """
    P, Q = _noise_parts(C_y)
    a, b = W.real, W.imag
    K = W.shape[-2]
    ab = np.concatenate([a, b], axis=-2)
    pp = np.sum((ab @ P) * ab, axis=-1)  # a^T P a, then b^T P b, per row
    aqb = np.sum((a @ Q) * b, axis=-1)
    return (2.0 / np.pi) * (pp[..., :K] + pp[..., K:] + 2.0 * aqb)


def _alpha_sq(K, rho):
    """Squared scalar Bussgang gain (2/pi) / (K rho + 1); rho may be an array."""
    return (2.0 / np.pi) / (K * rho + 1.0)


def alpha_p(cfg: SystemConfig) -> float:
    """Scalar training-phase Bussgang gain for DFT pilots, sqrt(2/pi / (K rho_p + 1))."""
    return np.sqrt(_alpha_sq(cfg.K, cfg.rho_p))


def alpha_d(cfg: SystemConfig) -> float:
    """Scalar data-phase gain under channel hardening, sqrt(2/pi / (K rho_d + 1))."""
    return np.sqrt(_alpha_sq(cfg.K, cfg.rho_d))
