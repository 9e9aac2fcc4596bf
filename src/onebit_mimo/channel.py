"""Channel, pilot, and received-signal generation for training and data phases."""

from __future__ import annotations

import math

import numpy as np

from .config import SystemConfig

__all__ = [
    "vec",
    "unvec",
    "gen_iid_channel",
    "laplacian_covariance",
    "gen_correlated_channel",
    "dft_pilots",
    "training_signal",
    "data_signal",
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
    n_points: int = 1440,
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

    Uses fixed-grid quadrature with `n_points` samples (>= 720 recommended).
    Raises if the numerically integrated matrix fails a PSD check.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if angle_spread <= 0:
        raise ValueError("angle_spread must be positive")
    if not -90.0 < mean_angle < 90.0:
        raise ValueError("mean_angle must lie strictly inside (-90, 90) degrees")
    if n_points < 2:
        raise ValueError("n_points must be >= 2")

    u0 = np.sin(np.deg2rad(mean_angle))
    scale = np.cos(np.deg2rad(mean_angle)) * np.deg2rad(angle_spread) / np.sqrt(2.0)

    # midpoint rule over the visible region
    edges = np.linspace(-1.0, 1.0, n_points + 1)
    u = 0.5 * (edges[:-1] + edges[1:])
    w = np.exp(-np.abs(u - u0) / scale)
    w /= w.sum()

    m = np.arange(M)
    A = np.exp(1j * np.pi * np.outer(m, u))  # steering matrix, M x n_points
    C = (A * w) @ A.conj().T
    C = 0.5 * (C + C.conj().T)

    eigmin = np.linalg.eigvalsh(C)[0]
    if eigmin < -1e-8:
        raise np.linalg.LinAlgError(
            f"integrated covariance is not PSD (min eigenvalue {eigmin:.3e}); "
            "increase n_points"
        )
    return C


def gen_correlated_channel(cov: np.ndarray, K: int, seed) -> np.ndarray:
    """Draw K independent user columns, each ~ CN(0, cov).

    cov must be M x M Hermitian PSD; a square-root factor is taken via an
    eigendecomposition so numerically semidefinite inputs are accepted.
    """
    cov = np.asarray(cov)
    M = cov.shape[0]
    if cov.shape != (M, M):
        raise ValueError("cov must be square")
    rng = np.random.default_rng(seed)
    return _psd_root(cov) @ crandn(rng, M, K)


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


def data_signal(H: np.ndarray, s: np.ndarray, rho_d: float, noise_seed) -> np.ndarray:
    """One data-phase receive vector y = sqrt(rho_d) H s + n of length M."""
    M, K = H.shape
    s = np.asarray(s).reshape(-1)
    if s.shape[0] != K:
        raise ValueError(f"H has {K} users but s has {s.shape[0]} symbols")
    rng = np.random.default_rng(noise_seed)
    return np.sqrt(rho_d) * H @ s + crandn(rng, M)
