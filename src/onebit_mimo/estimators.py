"""Channel estimators for the one-bit training phase.

The main estimator linearizes the quantizer with the Bussgang decomposition
and applies an LMMSE filter whose output covariance comes from the arcsine
law. Baselines: plain least squares on the quantized output, an LMMSE
variant that models the quantizer noise as uncorrelated, and a near-ML
estimator solved by damped Newton steps, constrained to a ball, on the
per-antenna blocks of the log-likelihood's Hessian.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import unvec
from .config import SystemConfig
from .quantize import (
    UNCORR_NOISE_VAR,
    _alpha_sq,
    alpha_p,
    arcsine_covariance,
    bussgang_gain,
)

__all__ = [
    "ChannelEstimate",
    "blmmse_flat",
    "blmmse_fast",
    "blmmse_filter",
    "mse_closed_form",
    "mse_floor",
    "estimate_variance",
    "ls_estimate",
    "lmmse_uncorrelated_filter",
    "nml_estimate",
]

_RIDGE = 1e-10
_LOG_SQRT_2PI = np.log(np.sqrt(2.0 * np.pi))  # standard normal pdf: exp(-z^2/2 - this)
_TAIL, _TAIL_TERMS = -6.0, 20  # z below which the Hessian weight takes a continued fraction
_SECULAR_ITERS = 60  # cap on the safeguarded Newton steps for the ball multiplier
_SECULAR_RTOL = 1e-12  # they stop once | ||x(mu)|| - radius | <= this * radius


@dataclass
class ChannelEstimate:
    """Estimated channel with its quality figures.

    sigma_sq is the per-element variance of the estimate and mse its
    normalized MSE, the values the estimator attains under the arcsine law
    of the one-bit output; None where no closed form applies (LS, nML).
    """

    H_hat: np.ndarray
    sigma_sq: float | None = None
    mse: float | None = None
    diagnostics: dict = field(default_factory=dict)


def mse_closed_form(cfg: SystemConfig) -> float:
    """Normalized MSE of the Bussgang LMMSE estimate, 1 - 2K*rho_p/(pi(K*rho_p+1)).

    Exact for tau = K with DFT pilots and an i.i.d. channel; ValueError otherwise.
    """
    if cfg.tau != cfg.K:
        raise ValueError(f"the closed form requires tau == K, got tau={cfg.tau}, K={cfg.K}")
    kr = cfg.K * cfg.rho_p
    return 1.0 - 2.0 * kr / (np.pi * (kr + 1.0))


def mse_floor() -> float:
    """High-SNR estimation error floor, 1 - 2/pi."""
    return UNCORR_NOISE_VAR


def _estimate_variance(K, tau, rho_p):
    """Low-SNR estimate variance sigma^2 (rho_p may be an array)."""
    ap2 = _alpha_sq(K, rho_p)
    s = ap2 * tau * rho_p
    return s / (s + ap2 + UNCORR_NOISE_VAR)


def estimate_variance(cfg: SystemConfig) -> float:
    """Per-element variance sigma^2 of the estimate under the low-SNR model."""
    return _estimate_variance(cfg.K, cfg.tau, cfg.rho_p)


def _check_pilots(Phi: np.ndarray, cfg: SystemConfig) -> None:
    if Phi.shape != (cfg.tau, cfg.K):
        raise ValueError(
            f"pilot shape {Phi.shape} inconsistent with cfg (tau={cfg.tau}, K={cfg.K})"
        )


def _pilot_model(Phi: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Stacked training matrix Phi_bar = Phi kron sqrt(rho_p) I_M."""
    _check_pilots(Phi, cfg)
    return np.kron(Phi, np.sqrt(cfg.rho_p) * np.eye(cfg.M))


def _hermitian_solve(C: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve C X = B for Hermitian C, falling back to a ridge on breakdown."""
    try:
        return np.linalg.solve(C, B)
    except np.linalg.LinAlgError:
        warnings.warn(
            "quantized-output covariance is numerically singular; "
            f"regularizing with a {_RIDGE:g} ridge",
            RuntimeWarning,
            stacklevel=4,
        )
        return np.linalg.solve(C + _RIDGE * np.eye(C.shape[0]), B)


def _bussgang_lmmse(
    Phib: np.ndarray, C_h: np.ndarray | None, uncorrelated: bool = False
) -> tuple[np.ndarray, float, float]:
    """Bussgang LMMSE filter G for y = Phib h + n, r = Q(y); returns (G, var, mse).

    C_h is the channel covariance (None for I), A the diagonal Bussgang gain
    of the training covariance C_y and B = C_h (A Phib)^H the channel/output
    cross-covariance. G = B C^{-1}, with C the arcsine-law output covariance
    C_r or, if ``uncorrelated``, the white-noise surrogate A C_y A^H + (1 - 2/pi) I.
    var = Re tr(G C_r G^H) is the estimate power and mse the normalized MSE
    G attains, 1 - (2 Re tr(G B^H) - var) / tr C_h (tr I = dim h); for the
    arcsine-law G = B C_r^{-1}, G C_r G^H = G B^H, so var = Re tr(G B^H).
    """
    n, dim = Phib.shape
    if C_h is None:
        C_y = Phib @ Phib.conj().T + np.eye(n)
        C_h_Pht, trace = Phib.conj().T, float(dim)
    else:
        C_y = Phib @ C_h @ Phib.conj().T + np.eye(n)
        C_h_Pht, trace = C_h @ Phib.conj().T, float(np.real(np.trace(C_h)))
    a = bussgang_gain(C_y)
    B = C_h_Pht * a  # columns scaled by the diagonal gain
    C = C_r = arcsine_covariance(C_y)
    if uncorrelated:
        # A Phib C_h (A Phib)^H + A A^H + (1 - 2/pi) I
        C = (Phib * a[:, None]) @ B
        C[np.diag_indices(n)] += a**2 + UNCORR_NOISE_VAR
    G = _hermitian_solve(C, B.conj().T).conj().T
    cross = float(np.real(np.sum(G * B.conj())))
    var = float(np.real(np.sum((G @ C_r) * G.conj()))) if uncorrelated else cross
    return G, var, 1.0 - (2.0 * cross - var) / trace


def _iid_filter(
    Phi: np.ndarray, cfg: SystemConfig, uncorrelated: bool = False
) -> tuple[np.ndarray, float, float]:
    """Filter G_1 (K x tau) of :func:`_bussgang_lmmse` at M = 1, i.i.d. channel; sigma_sq, mse.

    The Bussgang gain and the arcsine law keep the structure of the training
    covariance (rho_p Phi Phi^H + I) kron I_M, so the filter for M antennas
    is G_1 kron I_M, applied to (..., M, tau) training matrices R as R G_1^T.
    """
    _check_pilots(Phi, cfg)
    G, var, mse = _bussgang_lmmse(np.sqrt(cfg.rho_p) * Phi, None, uncorrelated)
    return G, var / cfg.K, mse


def _linear_filter(
    Phi: np.ndarray, cfg: SystemConfig, C_h: np.ndarray | None, uncorrelated: bool
) -> tuple[np.ndarray, float, float]:
    """Filter G of :func:`_bussgang_lmmse` (G_1 kron I_M if C_h is None), sigma_sq, mse."""
    if C_h is None:
        G, sigma_sq, mse = _iid_filter(Phi, cfg, uncorrelated)
        return np.kron(G, np.eye(cfg.M)), sigma_sq, mse
    G, var, mse = _bussgang_lmmse(_pilot_model(Phi, cfg), C_h, uncorrelated)
    return G, var / (cfg.M * cfg.K), mse


def blmmse_filter(
    Phi: np.ndarray, cfg: SystemConfig, C_h: np.ndarray | None = None
) -> tuple[np.ndarray, float, float]:
    """Bussgang LMMSE filter G (MK x M*tau) with its (sigma_sq, mse).

    The estimate is obtained as unvec(G @ r_p). Input-independent, so the
    filter can be reused across Monte Carlo trials. sigma_sq and mse are the
    per-element variance and normalized MSE that G attains (arcsine law).
    """
    return _linear_filter(Phi, cfg, C_h, uncorrelated=False)


def blmmse_flat(r_p: np.ndarray, Phi: np.ndarray, cfg: SystemConfig) -> ChannelEstimate:
    """Bussgang LMMSE channel estimate from the quantized training vector.

    vec(H_hat) = (A Phi_bar)^H C_r^{-1} r_p for an i.i.d. channel, with the
    gain A from the Bussgang decomposition of the training covariance and
    C_r from the arcsine law. A correlated MK x MK covariance C_h is applied
    as ``unvec(blmmse_filter(Phi, cfg, C_h)[0] @ r_p, M, K)``.
    """
    G, sigma_sq, mse = _iid_filter(Phi, cfg)
    H_hat = unvec(np.asarray(r_p).reshape(-1), cfg.M, cfg.tau) @ G.T
    return ChannelEstimate(H_hat, sigma_sq=sigma_sq, mse=mse)


def blmmse_fast(r_p: np.ndarray, Phi: np.ndarray, cfg: SystemConfig) -> ChannelEstimate:
    """Inversion-free estimator for tau = K, DFT pilots, i.i.d. channel.

    H_hat = alpha_p sqrt(rho_p) R_p Phi^*, where R_p = unvec(r_p). Cost
    O(M K tau); coincides with :func:`blmmse_flat` in this regime because
    the quantized-output covariance is the identity.
    """
    mse = mse_closed_form(cfg)
    _check_pilots(Phi, cfg)
    R_p = unvec(np.asarray(r_p).reshape(-1), cfg.M, cfg.tau)
    H_hat = alpha_p(cfg) * np.sqrt(cfg.rho_p) * (R_p @ Phi.conj())
    return ChannelEstimate(H_hat, sigma_sq=1.0 - mse, mse=mse)


def _ls_pinv(Phi: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """pinv(sqrt(rho_p) Phi) (K x tau); the LS filter is its kron with I_M."""
    _check_pilots(Phi, cfg)
    return np.linalg.pinv(np.sqrt(cfg.rho_p) * Phi)


def ls_estimate(r_p: np.ndarray, Phi: np.ndarray, cfg: SystemConfig) -> ChannelEstimate:
    """Least squares on the quantized output treated as the observation.

    vec(H_hat) = (Phi_bar^H Phi_bar)^{-1} Phi_bar^H r_p, i.e.
    H_hat = R_p pinv(sqrt(rho_p) Phi)^T; fed the unquantized noiseless
    signal instead of r_p it recovers H exactly.
    """
    P = _ls_pinv(Phi, cfg)
    if np.linalg.matrix_rank(P) < cfg.K:
        raise np.linalg.LinAlgError("rank-deficient pilot matrix")
    return ChannelEstimate(unvec(np.asarray(r_p).reshape(-1), cfg.M, cfg.tau) @ P.T)


def lmmse_uncorrelated_filter(
    Phi: np.ndarray, cfg: SystemConfig, C_h: np.ndarray | None = None
) -> tuple[np.ndarray, float, float]:
    """Filter of the baseline that models quantizer noise as (1 - 2/pi) I.

    sigma_sq and mse are what G attains under the arcsine law, not what the
    white-noise model believes (0.164 against 0.103 at fig2's shape, 20 dB).
    """
    return _linear_filter(Phi, cfg, C_h, uncorrelated=True)


def _nml_objective(R: np.ndarray, Phi: np.ndarray, cfg: SystemConfig):
    """Log-likelihood of the one-bit training signs and its derivatives, per trial.

    R is an (n, M tau) stack of quantized training vectors r_p. Returns
    objective(h, rows) -> (objectives, derivs), which evaluates trial rows[i]
    at h[i]: sum_j log F(z_j), and derivs(keep) gives the gradients and
    Hessian blocks of the trials rows[keep] only (those of accepted steps).
    Here z = sqrt(2) c (Phi_bar_R h), where h = [Re vec(H); Im vec(H)] is the
    real embedding of the M x K channel, c the observed signs of
    [Re r_p; Im r_p], F the standard normal CDF and Phi_bar_R the real
    embedding of the training matrix Phi_bar = Phi kron sqrt(rho_p) I_M.

    Phi_bar_R is never formed. Since Phi_bar vec(H) = vec(sqrt(rho_p) H Phi^T),
    the forward product is one (2 tau x 2K) @ (2K x M) real matmul per
    trial: the real embedding B of sqrt(rho_p) Phi times h viewed as
    [Re H^T; Im H^T]. Its rows, [Re Y^T; Im Y^T] with Y = sqrt(rho_p) H Phi^T,
    are in the order of the stacked signs, and the gradient is the
    transposed matmul, [Re; Im] of sqrt(rho_p) U Phi^* with U = unvec(c lam).
    Cost O(M K tau) per evaluation instead of O(M^2 K tau). log F is
    :func:`_log_ndtr` and the pdf/cdf ratio is
    lam = exp(-z^2/2 - log sqrt(2 pi) - log F), stable for large negative z.

    Antenna m's parameters, column m of the 2K x M view of h, see only its
    own 2 tau signs, so the Hessian is block diagonal: an (n, M, 2K, 2K)
    stack of blocks -2 B^T diag(w_m) B with w = lam (lam + z), formed as
    one (M x 2 tau) @ (2 tau x 4K^2) matmul per trial of the weights with
    the rows' outer products B_i^T B_i. Below z = _TAIL the weights come
    from :func:`_tail_weight`.
    """
    _check_pilots(Phi, cfg)
    M, K, tau = cfg.M, cfg.K, cfg.tau
    P = np.sqrt(cfg.rho_p) * Phi
    B = np.block([[P.real, -P.imag], [P.imag, P.real]])  # 2tau x 2K
    outer = -2.0 * (B[:, :, None] * B[:, None, :]).reshape(2 * tau, 4 * K * K)  # -2 B_i^T B_i
    R = np.asarray(R)
    # signs as [Re R^T; Im R^T] per trial, the row layout of the forward product
    c = np.sign(np.concatenate([R.real, R.imag], axis=-1)).reshape(-1, 2 * tau, M)
    sc = np.sqrt(2.0) * c

    def objective(h, rows):
        z = sc[rows] * (B @ h.reshape(-1, 2 * K, M))
        logF = _log_ndtr(z)

        def derivs(keep):  # lam = pdf/cdf, then w and c lam, in two buffers
            zk = z[keep]
            lam = -0.5 * zk
            lam *= zk
            lam -= _LOG_SQRT_2PI
            lam -= logF[keep]
            np.exp(lam, out=lam)
            w = lam + zk
            w *= lam
            tail = zk < _TAIL
            if tail.any():
                w[tail] = _tail_weight(-zk[tail])
            hess = (np.swapaxes(w, 1, 2) @ outer).reshape(len(zk), M, 2 * K, 2 * K)
            lam *= c[rows[keep]]
            return np.sqrt(2.0) * (B.T @ lam).reshape(len(zk), 2 * K * M), hess

        return logF.reshape(len(rows), -1).sum(axis=1), derivs

    return objective


def _tail_weight(x: np.ndarray) -> np.ndarray:
    """Hessian weight lam (lam + z) at z = -x < _TAIL, without cancellation.

    lam = x + q, where q = 1/(x + 2/(x + 3/(x + ...))) is the continued
    fraction of Mills' ratio; its _TAIL_TERMS terms give q to rounding for
    x > 6. Computed as lam (lam + z), the weight there would lose about
    eps x^4 relative (about 2e-13 at x = 6 and 2e-11 at x = 20) to the
    cancellation in lam + z.
    """
    t = np.zeros_like(x)
    for k in range(_TAIL_TERMS, 1, -1):
        t = k / (x + t)
    q = 1.0 / (x + t)
    return (x + q) * q


# Cephes ndtr.c: erfc(x) = exp(-x^2) P(x)/Q(x) for 1 <= x < 8 and
# exp(-x^2) R(x)/S(x) beyond; erf(x) = x T(x^2)/U(x^2) for |x| < 1. Each
# pair is one (2, d, 1) array, highest power first: the numerator, padded
# with leading zeros, and the monic denominator, so that one Horner pass
# evaluates both.
_ERFCX_PQ = np.array([
    (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
     4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
     9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2),
    (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
     9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
     1.65666309194161350182e3, 5.57535340817727675546e2),
])[:, :, None]
_ERFCX_RS = np.array([
    (0.0, 5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
     6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0),
    (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
     1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0),
])[:, :, None]
_ERF_TU = np.array([
    (0.0, 9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
     7.00332514112805075473e3, 5.55923013010394962768e4),
    (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
     2.26290000613890934246e4, 4.92673942608635921086e4),
])[:, :, None]


def _rational(x: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Numerator over denominator of a coefficient pair, at a flat x."""
    y = pair[:, 0] * x
    y += pair[:, 1]
    for k in range(2, pair.shape[1]):
        y *= x
        y += pair[:, k]
    return np.divide(y[0], y[1], out=y[0])


def _log_ndtr(z: np.ndarray) -> np.ndarray:
    """log F(z), F the standard normal CDF, elementwise over a float array.

    With t = z / sqrt(2) and erfcx(x) = exp(x^2) erfc(x), the forms that
    ``scipy.special.log_ndtr`` uses: log(erfcx(-t)/2) - t^2 for t <= -1, so
    that the lower tail does not underflow; log1p(-erfcx(t) exp(-t^2)/2) for
    t >= 1; log(1/2 + erf(t)/2) between. erfcx and erf are the Cephes
    rationals. P/Q and T/U run on every element, their argument clamped to
    their range, and R/S only where |t| >= 8. Within 16 ulp of scipy's
    log_ndtr over z in [-1e4, 1e3], and exactly log(1/2) at z = 0.
    """
    t = z.reshape(-1) * np.sqrt(0.5)
    a = np.abs(t)
    # erfcx(|t|) / 2 for |t| >= 1, and (1 + erf(t)) / 2 for |t| < 1
    half_erfcx = _rational(np.minimum(np.maximum(a, 1.0), 8.0), _ERFCX_PQ)
    far = a >= 8.0
    if far.any():  # R/S overflows past 1e51; beyond 2^64, t^2 swamps log(erfcx)
        half_erfcx[far] = _rational(np.minimum(a[far], 2.0**64), _ERFCX_RS)
    half_erfcx *= 0.5
    c = np.minimum(np.maximum(t, -1.0), 1.0)
    mid = _rational(c * c, _ERF_TU)
    mid *= 0.5 * c
    mid += 0.5
    with np.errstate(over="ignore"):  # -t^2 = -inf for |z| > 1.9e154
        neg_t2 = t * -t
    out = np.where(t >= 1.0, np.log1p(-(np.exp(neg_t2) * half_erfcx)), np.log(mid, out=mid))
    out = np.where(t <= -1.0, np.log(half_erfcx) + neg_t2, out)
    return out.reshape(z.shape)


def _ball_multiplier(d: np.ndarray, b2: np.ndarray, radius: float) -> np.ndarray:
    """Multiplier mu >= 0 of the ball constraint ||x|| <= radius, per trial.

    x(mu) has the coordinates b / (mu + d) in an orthonormal basis, with
    d >= 0 and b2 = b^2 given as (k, N) rows. mu = 0 where x(0) lies in the
    ball. Elsewhere mu is the root of 1/||x(mu)|| - 1/radius, found by
    Newton's method on that concave, nearly linear function (Moré and
    Sorensen 1983), safeguarded: the bracket [lo, hi] starts at
    [0, ||b|| / radius] and narrows with each evaluation, and an iterate
    that would leave it (the first one, say, where d has a zero) is
    replaced by the bracket's midpoint.
    """
    mu = np.zeros(len(d))
    idx = np.arange(len(d))
    lo = m = np.zeros(len(d))
    hi = np.sqrt(np.sum(b2, axis=1)) / radius  # ||x(hi)|| <= ||b|| / hi = radius
    for _ in range(_SECULAR_ITERS):
        if not idx.size:
            break
        s = m[:, None] + d
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.divide(b2, s * s, out=np.zeros_like(b2), where=b2 > 0)
            x2 = np.sum(q, axis=1)
            xn = np.sqrt(x2)
            newton = m + (xn / radius - 1.0) * x2 / np.sum(q / s, axis=1)
        outside = xn > radius
        lo, hi = np.where(outside, m, lo), np.where(outside, hi, m)
        done = (np.abs(xn - radius) <= _SECULAR_RTOL * radius) | (~outside & (m == 0.0))
        mu[idx[done]] = m[done]
        keep = ~done
        idx, d, b2, lo, hi, m, newton = (a[keep] for a in (idx, d, b2, lo, hi, m, newton))
        m = np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
    mu[idx] = m
    return mu


def _newton_point(h: np.ndarray, grad: np.ndarray, hess: np.ndarray, radius: float):
    """Maximizer over the ball of each trial's quadratic model at h.

    The model f(h) + g^T (x - h) + (x - h)^T H (x - h) / 2 has the block
    diagonal Hessian H of :func:`_nml_objective`, which is negative
    semidefinite. Its maximizer over ||x|| <= radius is
    x(mu) = (mu I - H)^{-1} (g - H h), with the multiplier mu of
    :func:`_ball_multiplier`. One batched eigendecomposition per block,
    H = -Q diag(d) Q^T, makes ||x(mu)|| a sum over the eigenvalues, so that
    solving for mu costs no further factorization. Where all blocks are
    equal, as at h = 0 (each is -(4/pi) B^T B there), one decomposition
    serves them all.
    """
    n, M, k2 = hess.shape[:3]
    if (hess == hess[:1, :1]).all():
        hess = hess[:1, :1]
    e, Q = np.linalg.eigh(hess)
    d = np.broadcast_to(np.maximum(-e, 0.0), (n, M, k2))
    # per-antenna columns of h and g, rotated into each block's eigenbasis
    hg = np.stack([h.reshape(n, k2, M), grad.reshape(n, k2, M)], axis=-1)
    hq, gq = np.moveaxis(np.swapaxes(Q, 2, 3) @ np.swapaxes(hg, 1, 2), -1, 0)
    b = gq + d * hq  # Q^T (g - H h)
    mu = _ball_multiplier(d.reshape(n, -1), (b * b).reshape(n, -1), radius)
    s = mu[:, None, None] + d
    y = np.divide(b, s, out=np.zeros_like(b), where=b != 0)
    return np.swapaxes((Q @ y[..., None])[..., 0], 1, 2).reshape(n, -1)


def _nml_solve(
    R: np.ndarray,
    Phi: np.ndarray,
    cfg: SystemConfig,
    radius_sq: float | None = None,
    tol: float = 1e-6,
    max_iters: int = 500,
    traces: list | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The damped Newton solve of :func:`nml_estimate` on an (n, M tau) stack of training vectors.

    Each trial keeps its own schedule. At each new point it takes the stop
    test (projected-gradient norm below tol) and, unless it stops or has
    taken max_iters steps, the maximizer x over the ball of its quadratic
    model (:func:`_newton_point`). It then halves the step along x - h,
    from the full step down to 1e-15, until the objective does not fall;
    h and x lie in the ball, so every candidate does. One round evaluates
    the objective once per unfinished trial; a trial that converges,
    stalls or reaches the cap leaves the working arrays, so it costs
    nothing further. Returns the (n, M, K) estimates and, per trial, the
    accepted steps, the converged flag and the projected-gradient norm at
    the estimate. A list passed as ``traces`` receives each trial's
    objective trace.
    """
    if radius_sq is not None and not radius_sq >= 0:
        raise ValueError(f"radius_sq must be >= 0, got {radius_sq!r}")
    objective = _nml_objective(R, Phi, cfg)
    M, K = cfg.M, cfg.K
    MK = M * K
    radius = np.sqrt(float(MK) if radius_sq is None else radius_sq)

    def project(x):  # in place, row by row, onto the ball ||x||^2 <= radius_sq
        nrm = np.sqrt(np.vecdot(x, x))
        x *= np.divide(radius, nrm, out=np.ones_like(nrm), where=~(nrm <= radius))[:, None]
        return x

    n = np.shape(R)[0]
    h_out = np.empty((n, 2 * MK))
    iterations = np.empty(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    grad_norm = np.empty(n)
    # working arrays of the unfinished trials `rows`
    rows = np.arange(n)
    h = np.zeros((n, 2 * MK))
    obj, derivs = objective(h, rows)
    due = np.ones(n, dtype=bool)  # at a new point: due for the stop test
    grad, hess = derivs(due)  # of the trials due
    step = np.empty_like(h)  # x - h
    frac = np.ones(n)  # of the step, halved by backtracking
    its = np.zeros(n, dtype=int)  # accepted steps
    gn = np.empty(n)
    if traces is not None:
        traces[:] = [[float(o)] for o in obj]
    while True:
        hd = h[due]
        dp = project(hd + grad) - hd
        gn[due] = np.sqrt(np.vecdot(dp, dp))
        conv = due & (gn < tol)
        capped = due & ~conv & (its >= max_iters)
        go = due & ~conv & ~capped
        if go.any():
            sub = go[due]
            step[go] = project(_newton_point(hd[sub], grad[sub], hess[sub], radius)) - hd[sub]
            frac[go] = 1.0
        done = conv | capped | ~(frac > 1e-15)  # the last: stalled
        if done.any():
            fin = rows[done]
            h_out[fin], iterations[fin], grad_norm[fin] = h[done], its[done], gn[done]
            converged[fin] = conv[done]
            keep = ~done
            rows, h, obj, step, frac, its, gn = (
                a[keep] for a in (rows, h, obj, step, frac, its, gn)
            )
            if not rows.size:
                break
        h_new = h + frac[:, None] * step
        obj_new, derivs = objective(h_new, rows)
        due = obj_new >= obj  # accepted
        np.copyto(h, h_new, where=due[:, None])
        np.copyto(obj, obj_new, where=due)
        grad, hess = derivs(due)
        its += due
        frac = np.where(due, frac, frac * 0.5)
        if traces is not None:
            for t, o in zip(rows[due], obj_new[due]):
                traces[t].append(float(o))

    H_hat = (h_out[:, :MK] + 1j * h_out[:, MK:]).reshape(n, K, M)
    return np.swapaxes(H_hat, 1, 2), iterations, converged, grad_norm


def nml_estimate(
    r_p: np.ndarray,
    Phi: np.ndarray,
    cfg: SystemConfig,
    radius_sq: float | None = None,
    tol: float = 1e-6,
    max_iters: int = 500,
) -> ChannelEstimate:
    """Near-maximum-likelihood estimate by damped Newton steps on a ball.

    Maximizes sum_i log F(sqrt(2) c_i (Phi_bar_R h)_i) over the real-valued
    channel embedding constrained to ||h||^2 <= radius_sq (default MK, the
    expected squared norm of a unit-variance channel), where F is the
    standard normal CDF and c_i the observed signs. The problem is concave.
    Each step maximizes the quadratic model at h over the ball, then halves
    back towards h until the objective does not fall (see
    :func:`_nml_solve`); max_iters caps the accepted steps. The solve stops
    when the projected-gradient norm ||P(h + g) - h|| falls below tol.
    Non-convergence is reported in `diagnostics` rather than raised:
    ``converged``, ``iterations`` (accepted steps), ``grad_norm`` (the
    projected-gradient norm at the estimate) and ``objective_trace``. A
    negative or NaN radius_sq raises ValueError.

    The log-likelihood separates over the antennas, so its Hessian is M
    blocks of 2K x 2K, and a Newton step costs one eigendecomposition of
    each block besides an objective evaluation. The objective applies the
    training operator in its Kronecker form, as a K -> tau matmul on the
    M x K channel, and evaluates log F with :func:`_log_ndtr` (see
    :func:`_nml_objective`), so an evaluation costs O(M K tau). This is the
    one-trial case of the stacked solver :func:`_nml_solve`.
    """
    traces = []
    H_hat, iterations, converged, grad_norm = _nml_solve(
        np.asarray(r_p).reshape(1, -1), Phi, cfg, radius_sq, tol, max_iters, traces
    )
    return ChannelEstimate(
        H_hat[0],
        diagnostics={
            "converged": bool(converged[0]),
            "iterations": int(iterations[0]),
            "grad_norm": float(grad_norm[0]),
            "objective_trace": traces[0],
        },
    )
