"""One-bit quantizer and its Bussgang linearization.

The quantizer keeps only the signs of the real and imaginary parts. For a
Gaussian input y with covariance C_y, the statistically equivalent linear
model is r = A y + q with a diagonal gain A, the exact output covariance
C_r given by the arcsine law, and quantizer noise q uncorrelated with y.
"""

from __future__ import annotations

import numpy as np

from .channel import _RSQRT2
from .config import SystemConfig

__all__ = [
    "one_bit_quantize",
    "bussgang_gain",
    "arcsine_covariance",
    "quantizer_noise_cov",
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
    parts = np.ascontiguousarray(y, dtype=complex).view(np.float64)  # (Re, Im) pairs
    q = (parts >= 0.0) * (2.0 * _RSQRT2)
    q -= _RSQRT2  # 2r - r and 0 - r are exact: +-_RSQRT2, and NaN gives -
    return q.view(complex).reshape(y.shape)


def _positive_diagonal(C_y: np.ndarray) -> np.ndarray:
    """Real diag(C_y) of C_y or of each matrix of a stack (..., M, M); all must be > 0."""
    d = np.real(np.diagonal(C_y, axis1=-2, axis2=-1))
    if np.any(d <= 0.0):
        raise ValueError("C_y must have strictly positive diagonal")
    return d


def bussgang_gain(C_y: np.ndarray) -> np.ndarray:
    """Diagonal of the Bussgang gain, sqrt(2/pi) * diag(C_y)^(-1/2).

    Returns a real vector (the gain matrix is diagonal for Gaussian inputs).
    """
    return np.sqrt(2.0 / np.pi) / np.sqrt(_positive_diagonal(np.atleast_2d(C_y)))


def _normalized_parts(C_y: np.ndarray):
    """S Re(C_y) S and S Im(C_y) S, S = diag(C_y)^(-1/2), of C_y or a stack (..., M, M)."""
    C_y = np.atleast_2d(C_y)
    s = 1.0 / np.sqrt(_positive_diagonal(C_y))
    S = s[..., :, None] * s[..., None, :]
    X = np.real(C_y) * S
    Y = np.imag(C_y) * S
    # a C_y built by scaling or by BLAS products is Hermitian only to the
    # last bit, and arcsin amplifies that gap near +-1: make X exactly
    # symmetric and Y exactly antisymmetric, so that C_r and C_q are Hermitian
    X = 0.5 * (X + np.swapaxes(X, -1, -2))
    Y = 0.5 * (Y - np.swapaxes(Y, -1, -2))
    # exact by construction; repairing rounding here matters because arcsin
    # has infinite slope at 1
    i = np.arange(C_y.shape[-1])
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
    X, Y = _normalized_parts(C_y)
    # A C_y A^H = (2/pi) * (X + jY) in normalized coordinates
    return (2.0 / np.pi) * (_arcsin_excess(X) + 1j * _arcsin_excess(Y))


def _arcsin_excess(Z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """arcsin(Z) - Z elementwise: the part of the arcsine law beyond the Bussgang gain."""
    E = np.arcsin(Z, out=out)
    E -= Z
    return E


def _noise_workspace(n: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``work`` of :func:`_noise_parts` for stacks of up to n trials: two float64
    (n, 2M, M) arrays, the halves of one allocation."""
    return tuple(np.empty((2, n, 2 * M, M)))


def _noise_parts(H: np.ndarray, rho: float, work: tuple | None = None) -> np.ndarray:
    """[P; Q] = arcsin([X; Y]) - [X; Y], shape (..., 2M, M), for C_y = rho H H^H + I.

    X and Y come straight from the scaled rows F = diag(sqrt(rho / d)) H,
    d_i = 1 + rho ||h_i||^2: X = Re(F F^H) and Y = Im(F F^H) off the
    diagonal, X_ii = 1, Y_ii = 0. The +1 in d bounds |X_ij|, |Y_ij| below 1
    (Cauchy-Schwarz), so unlike :func:`quantizer_noise_cov` this needs no
    range check. The quadratic form of C_q with a combiner W is
    ``_noise_form(W, _noise_parts(H, rho))``, so several W on one H share
    this step. ``work``, as :func:`_noise_workspace` makes it for stacks of
    up to n_max >= n trials, takes [X; Y] in ``work[0][:n]`` and [P; Q], the
    result, in ``work[1][:n]``, so no (n, 2M, M) array is allocated.
    """
    M, K = H.shape[-2:]
    H = np.ascontiguousarray(H, dtype=complex)
    h = H.view(np.float64)  # rows (Re h_1, Im h_1, Re h_2, ...), (..., M, 2K)
    scale = np.sqrt(rho / (1.0 + rho * np.einsum("...k,...k->...", h, h)))[..., None]
    FJ = np.empty((*H.shape[:-2], 2 * M, K), dtype=complex)  # the rows of F, then of -jF
    np.multiply(np.multiply(H, scale, out=FJ[..., :M, :]), -1j, out=FJ[..., M:, :])
    GJ = FJ.view(np.float64)  # [G; J]: G = [Re, Im] pairs of F, J = (Im, -Re) pairs
    G = GJ[..., :M, :]
    Z, E = (None, None) if work is None else (w[: len(H)] for w in work)
    # G G^T = Re(F F^H) = X and J G^T = Im(F F^H) = Y in one matmul
    Z = np.matmul(GJ, np.swapaxes(G, -1, -2), out=Z)
    # the diagonal of F F^H lacks the +1 of C_y: set X_ii = 1 and Y_ii = 0, through
    # einsum's writeable diagonal views, which hold for any layout of Z
    np.einsum("...ii->...i", Z[..., :M, :])[...] = 1.0
    np.einsum("...ii->...i", Z[..., M:, :])[...] = 0.0
    return _arcsin_excess(Z, out=E)


def _noise_form(W: np.ndarray, PQ: np.ndarray) -> np.ndarray:
    """(2/pi)(a^T P a + b^T P b + 2 a^T Q b) for every row a + jb of W, [P; Q] from
    :func:`_noise_parts`; W is (..., K, M) and the result (..., K)."""
    M, K = PQ.shape[-1], W.shape[-2]
    P, Q = PQ[..., :M, :], PQ[..., M:, :]
    a, b = W.real, W.imag
    ab = np.concatenate([a, b], axis=-2)
    pp = np.einsum("...ij,...ij->...i", ab @ P, ab)  # a^T P a, then b^T P b, per row
    aqb = np.einsum("...ij,...ij->...i", a @ Q, b)
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
