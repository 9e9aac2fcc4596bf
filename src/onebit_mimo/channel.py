"""Channel, pilot, and training-signal generation."""

from __future__ import annotations

import math

import numpy as np

from .config import SystemConfig, _integer, _real

__all__ = [
    "vec",
    "unvec",
    "gen_iid_channel",
    "laplacian_covariance",
    "dft_pilots",
    "training_signal",
    "crandn",
    "crandn_trials",
]


def vec(X: np.ndarray) -> np.ndarray:
    """Column-major (column-stacking) vectorization."""
    return np.ravel(X, order="F")


def unvec(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.reshape(x, (rows, cols), order="F")


# numpy divides a complex array by a real scalar by multiplying with the
# reciprocal, so x * _RSQRT2 has the bits of x / np.sqrt(2.0); the correctly
# rounded np.sqrt(0.5) is one ulp larger
_RSQRT2 = 1.0 / np.sqrt(2.0)


def crandn(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Circularly-symmetric complex Gaussian CN(0, 1) samples."""
    return crandn_trials(rng, 1, shape)[0][0]


def crandn_trials(rng: np.random.Generator, n: int, *shapes) -> list[np.ndarray]:
    """CN(0, 1) draws of n trials, one (n, *shape) stack per shape.

    One generator call draws, trial by trial and shape by shape, the real
    then the imaginary parts, so the stacks hold n consecutive
    :func:`crandn` draws.
    """
    sizes = [math.prod(shape) for shape in shapes]
    z = rng.standard_normal((n, 2 * sum(sizes)))
    out, at = [], 0
    for shape, size in zip(shapes, sizes):
        c = np.empty((n, size), dtype=complex)
        np.multiply(z[:, at : at + size], _RSQRT2, out=c.real)
        np.multiply(z[:, at + size : at + 2 * size], _RSQRT2, out=c.imag)
        out.append(c.reshape(n, *shape))
        at += 2 * size
    return out


def gen_iid_channel(cfg: SystemConfig, seed) -> np.ndarray:
    """Draw an M x K channel with i.i.d. CN(0, 1) entries.

    Deterministic for a fixed seed; `seed` may be an int or a Generator.
    """
    rng = np.random.default_rng(seed)
    return crandn(rng, cfg.M, cfg.K)


def laplacian_covariance(
    M: int,
    mean_angle: float = 0.0,
    angle_spread: float = 10.0,
) -> np.ndarray:
    """Spatial covariance of a half-wavelength ULA under a Laplacian power spectrum.

    The power spectrum is a Laplacian profile in the directional-cosine
    (sine-angle) domain, centred at sin(mean_angle) with the scale obtained
    from `angle_spread` (the angular standard deviation, degrees) through
    the local change of variables du = cos(mean_angle) d(theta). The profile
    is truncated to the visible region [-1, 1] and renormalized, so the
    diagonal is exactly 1 and the wide-spread limit approaches the
    uncorrelated (identity) case. Oblique mean angles compress the visible
    region and hence yield stronger correlation, as for a physical ULA.

    The integral is exact: C is Hermitian Toeplitz, C[m, n] = c_(m - n), with
    c_d = (1/Z) int exp(-|u - u0|/s) e^{j pi d u} du over [-1, 1] in closed
    form, and narrow spreads tend to the rank-1 c_d = e^{j pi d u0}.
    Raises ValueError unless M is an integer >= 1 and the angles are reals, with
    0 < angle_spread < inf and mean_angle in (-90, 90); LinAlgError if C fails a PSD check.
    """
    if not _integer(M) or M < 1:
        raise ValueError(f"M must be an integer >= 1, got {M!r}")
    if not _real(angle_spread) or not 0.0 < angle_spread < math.inf:
        raise ValueError(f"angle_spread must be positive and finite, got {angle_spread!r}")
    if not _real(mean_angle) or not -90.0 < mean_angle < 90.0:
        raise ValueError("mean_angle must lie strictly inside (-90, 90) degrees")

    u0 = np.sin(np.deg2rad(mean_angle))
    s = np.cos(np.deg2rad(mean_angle)) * np.deg2rad(angle_spread) / np.sqrt(2.0)

    # Z c_d / s and Z / s: the integral split at u0, with e^{+-j pi d} = (-1)^d;
    # expm1 keeps Z / s accurate at wide spreads
    d = np.arange(M)
    edge_lo, edge_hi = (1.0 + u0) / s, (1.0 - u0) / s
    at_u0 = np.exp(1j * np.pi * u0 * d)
    alt = 1.0 - 2.0 * (d % 2)
    jpds = 1j * np.pi * s * d
    c = (at_u0 - np.exp(-edge_lo) * alt) / (1.0 + jpds)
    c += (np.exp(-edge_hi) * alt - at_u0) / (jpds - 1.0)
    c /= -(np.expm1(-edge_lo) + np.expm1(-edge_hi))
    c[0] = 1.0

    lag = np.subtract.outer(d, d)
    C = c[np.abs(lag)]
    C = np.where(lag < 0, C.conj(), C)

    eigmin = np.linalg.eigvalsh(C)[0]
    if eigmin < -1e-8:
        raise np.linalg.LinAlgError(f"covariance is not PSD (min eigenvalue {eigmin:.3e})")
    return C


def _psd_root(cov: np.ndarray) -> np.ndarray:
    """Square-root factor R, R R^H = cov, of a Hermitian PSD matrix via eigh.

    Eigenvalues above -1e-8 of the largest (or of 1) are clipped to zero, so
    numerically semidefinite inputs are accepted; below that, LinAlgError.
    """
    eigval, eigvec = np.linalg.eigh(cov)
    if eigval[0] < -1e-8 * max(eigval[-1], 1.0):
        raise np.linalg.LinAlgError("cov is not positive semidefinite")
    return eigvec * np.sqrt(np.clip(eigval, 0.0, None))


def dft_pilots(tau: int, K: int) -> np.ndarray:
    """First K columns of the tau x tau DFT matrix (entries e^{-j2*pi*m*n/tau}).

    Unit-modulus entries with Phi^T Phi^* = tau * I_K.
    """
    if tau < K:
        raise ValueError(f"need tau >= K, got tau={tau}, K={K}")
    m = np.arange(tau)
    n = np.arange(K)
    return np.exp(-2j * np.pi * np.outer(m, n) / tau)


def training_signal(
    H: np.ndarray, Phi: np.ndarray, rho_p: float, noise_seed
) -> np.ndarray:
    """Unquantized vectorized training observation y_p of length M*tau.

    y_p = (Phi kron sqrt(rho_p) I_M) vec(H) + n_p with n_p ~ CN(0, I).
    """
    M, K = H.shape
    tau, Kp = Phi.shape
    if Kp != K:
        raise ValueError(f"H has {K} users but Phi has {Kp} columns")
    rng = np.random.default_rng(noise_seed)
    Y = np.sqrt(rho_p) * H @ Phi.T + crandn(rng, M, tau)
    return vec(Y)
