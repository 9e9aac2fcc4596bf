"""Channel estimators for the one-bit training phase.

The main estimator linearizes the quantizer with the Bussgang decomposition
and applies an LMMSE filter whose output covariance comes from the arcsine
law. Baselines: plain least squares on the quantized output, an LMMSE
variant that models the quantizer noise as uncorrelated, and a near-ML
estimator solved by projected gradient ascent.
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


@dataclass
class ChannelEstimate:
    """Estimated channel with its model-predicted quality figures.

    sigma_sq is the per-element variance of the estimate and mse the
    normalized MSE, both as predicted by the estimator's own statistical
    model; None where no closed form applies (LS, nML).
    """

    H_hat: np.ndarray
    sigma_sq: float | None = None
    mse: float | None = None
    diagnostics: dict = field(default_factory=dict)


def mse_closed_form(cfg: SystemConfig) -> float:
    """Normalized MSE of the Bussgang LMMSE estimate, 1 - 2K*rho_p/(pi(K*rho_p+1)).

    Exact for tau = K with DFT pilots and an i.i.d. channel.
    """
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
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Bussgang LMMSE filter G for y = Phib h + n, r = Q(y); returns (G, power, C_y, C).

    C_h is the channel covariance (None for I). B = C_h (A Phib)^H is the
    channel/output cross-covariance, with A the diagonal Bussgang gain of
    the training covariance C_y. G = B C^{-1}, where C is the arcsine-law
    output covariance, or with ``uncorrelated`` its surrogate
    A C_y A^H + (1 - 2/pi) I that models the quantizer noise as white.
    power = Re tr(G B^H) is the estimate power the filter's model predicts,
    and C the output covariance G was solved with.
    """
    n = Phib.shape[0]
    if C_h is None:
        C_y = Phib @ Phib.conj().T + np.eye(n)
        C_h_Pht = Phib.conj().T
    else:
        C_y = Phib @ C_h @ Phib.conj().T + np.eye(n)
        C_h_Pht = C_h @ Phib.conj().T
    a = bussgang_gain(C_y)
    B = C_h_Pht * a  # columns scaled by the diagonal gain
    if uncorrelated:
        # A Phib C_h (A Phib)^H + A A^H + (1 - 2/pi) I
        C = (Phib * a[:, None]) @ B
        C[np.diag_indices(n)] += a**2 + UNCORR_NOISE_VAR
    else:
        C = arcsine_covariance(C_y)
    G = _hermitian_solve(C, B.conj().T).conj().T
    return G, float(np.real(np.sum(G * B.conj()))), C_y, C


def _iid_filter(
    Phi: np.ndarray, cfg: SystemConfig, uncorrelated: bool = False
) -> tuple[np.ndarray, float]:
    """Filter G_1 (K x tau) of :func:`_bussgang_lmmse` at M = 1, i.i.d. channel; sigma_sq.

    The Bussgang gain and the arcsine law keep the structure of the training
    covariance (rho_p Phi Phi^H + I) kron I_M, so the filter for M antennas
    is G_1 kron I_M, applied to (..., M, tau) training matrices R as R G_1^T.
    """
    _check_pilots(Phi, cfg)
    G, power, _, _ = _bussgang_lmmse(np.sqrt(cfg.rho_p) * Phi, None, uncorrelated)
    return G, power / cfg.K


def _linear_filter(
    Phi: np.ndarray, cfg: SystemConfig, C_h: np.ndarray | None, uncorrelated: bool
) -> tuple[np.ndarray, float, float]:
    """Filter G of :func:`_bussgang_lmmse` (G_1 kron I_M if C_h is None), sigma_sq, mse."""
    if C_h is None:
        G, sigma_sq = _iid_filter(Phi, cfg, uncorrelated)
        return np.kron(G, np.eye(cfg.M)), sigma_sq, 1.0 - sigma_sq
    G, power, _, _ = _bussgang_lmmse(_pilot_model(Phi, cfg), C_h, uncorrelated)
    sigma_sq = power / (cfg.M * cfg.K)
    return G, sigma_sq, 1.0 - sigma_sq


def blmmse_filter(
    Phi: np.ndarray, cfg: SystemConfig, C_h: np.ndarray | None = None
) -> tuple[np.ndarray, float, float]:
    """Bussgang LMMSE filter G (MK x M*tau) with predicted (sigma_sq, mse).

    The estimate is obtained as unvec(G @ r_p). Input-independent, so the
    filter can be reused across Monte Carlo trials.
    """
    return _linear_filter(Phi, cfg, C_h, uncorrelated=False)


def blmmse_flat(r_p: np.ndarray, Phi: np.ndarray, cfg: SystemConfig) -> ChannelEstimate:
    """Bussgang LMMSE channel estimate from the quantized training vector.

    vec(H_hat) = (A Phi_bar)^H C_r^{-1} r_p for an i.i.d. channel, with the
    gain A from the Bussgang decomposition of the training covariance and
    C_r from the arcsine law. A correlated MK x MK covariance C_h is applied
    as ``unvec(blmmse_filter(Phi, cfg, C_h)[0] @ r_p, M, K)``.
    """
    G, sigma_sq = _iid_filter(Phi, cfg)
    H_hat = unvec(np.asarray(r_p).reshape(-1), cfg.M, cfg.tau) @ G.T
    return ChannelEstimate(H_hat, sigma_sq=sigma_sq, mse=1.0 - sigma_sq)


def _fast_estimate(R_p: np.ndarray, Phi: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """alpha_p sqrt(rho_p) R_p Phi^*, the tau = K estimate, of an (..., M, tau) stack R_p."""
    _check_pilots(Phi, cfg)
    return alpha_p(cfg) * np.sqrt(cfg.rho_p) * (R_p @ Phi.conj())


def blmmse_fast(r_p: np.ndarray, Phi: np.ndarray, cfg: SystemConfig) -> ChannelEstimate:
    """Inversion-free estimator for tau = K, DFT pilots, i.i.d. channel.

    H_hat = alpha_p sqrt(rho_p) R_p Phi^*, where R_p = unvec(r_p). Cost
    O(M K tau); coincides with :func:`blmmse_flat` in this regime because
    the quantized-output covariance is the identity.
    """
    if cfg.tau != cfg.K:
        raise ValueError(f"fast path requires tau == K, got tau={cfg.tau}, K={cfg.K}")
    R_p = unvec(np.asarray(r_p).reshape(-1), cfg.M, cfg.tau)
    mse = mse_closed_form(cfg)
    return ChannelEstimate(_fast_estimate(R_p, Phi, cfg), sigma_sq=1.0 - mse, mse=mse)


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
    """Filter of the baseline that models quantizer noise as (1 - 2/pi) I."""
    return _linear_filter(Phi, cfg, C_h, uncorrelated=True)


def _nml_objective(R: np.ndarray, Phi: np.ndarray, cfg: SystemConfig):
    """Log-likelihood of the one-bit training signs and its gradient, per trial.

    R is an (n, M tau) stack of quantized training vectors r_p. Returns
    objective(h, rows) -> (objectives, grad), which evaluates trial rows[i]
    at h[i]: sum_j log F(z_j), and grad(keep) gives the gradients of the
    trials rows[keep] only (those of accepted steps). Here
    z = sqrt(2) c (Phi_bar_R h), where h = [Re vec(H); Im vec(H)] is the
    real embedding of the M x K channel, c the observed signs of
    [Re r_p; Im r_p], F the standard normal CDF and Phi_bar_R the real
    embedding of the training matrix Phi_bar = Phi kron sqrt(rho_p) I_M.

    Phi_bar_R is never formed. Since Phi_bar vec(H) = vec(sqrt(rho_p) H Phi^T),
    the forward product is one (2 tau x 2K) @ (2K x M) real matmul per
    trial: the real embedding of sqrt(rho_p) Phi times h viewed as
    [Re H^T; Im H^T]. Its rows, [Re Y^T; Im Y^T] with Y = sqrt(rho_p) H Phi^T,
    are in the order of the stacked signs, and the gradient is the
    transposed matmul, [Re; Im] of sqrt(rho_p) U Phi^* with U = unvec(c lam).
    Cost O(M K tau) per evaluation instead of O(M^2 K tau). log F is
    ``scipy.special.log_ndtr`` and the pdf/cdf ratio is
    lam = exp(-z^2/2 - log sqrt(2 pi) - log F), stable for large negative z.
    scipy is imported here, on first use, so that importing the package
    does not load it.
    """
    from scipy.special import log_ndtr

    _check_pilots(Phi, cfg)
    M, K, tau = cfg.M, cfg.K, cfg.tau
    P = np.sqrt(cfg.rho_p) * Phi
    B = np.block([[P.real, -P.imag], [P.imag, P.real]])  # 2tau x 2K
    R = np.asarray(R)
    # signs as [Re R^T; Im R^T] per trial, the row layout of the forward product
    c = np.sign(np.concatenate([R.real, R.imag], axis=-1)).reshape(-1, 2 * tau, M)
    sc = np.sqrt(2.0) * c

    def objective(h, rows):
        z = sc[rows] * (B @ h.reshape(-1, 2 * K, M))
        logF = log_ndtr(z)

        def grad(keep):  # lam = pdf/cdf, then c lam, in one buffer
            zk = z[keep]
            lam = -0.5 * zk
            lam *= zk
            lam -= _LOG_SQRT_2PI
            lam -= logF[keep]
            np.exp(lam, out=lam)
            lam *= c[rows[keep]]
            return np.sqrt(2.0) * (B.T @ lam).reshape(len(zk), 2 * K * M)

        return logF.reshape(len(rows), -1).sum(axis=1), grad

    return objective


def _nml_solve(
    R: np.ndarray,
    Phi: np.ndarray,
    cfg: SystemConfig,
    radius_sq: float | None = None,
    tol: float = 1e-6,
    max_iters: int = 500,
    traces: list | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ascent of :func:`nml_estimate` on an (n, M tau) stack of training vectors.

    Each trial keeps its own schedule: the stop test, the doubled step, the
    halving backtrack down to 1e-15 and the max_iters cap. One round
    evaluates the objective once per unfinished trial, at its next step or
    its backtracking candidate; a trial that converges, stalls or reaches
    the cap leaves the working arrays, so it costs nothing further.
    Returns the (n, M, K) estimates and, per trial, the accepted steps,
    the converged flag and the last projected-gradient norm. A list passed
    as ``traces`` receives each trial's objective trace.
    """
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
    obj, grad_of = objective(h, rows)
    grad = grad_of(slice(None))
    step = np.ones(n)
    started = np.zeros(n, dtype=int)  # outer iterations begun
    its = np.zeros(n, dtype=int)  # accepted steps
    gn = np.full(n, np.inf)
    due = np.ones(n, dtype=bool)  # at a new point: due for the stop test
    if traces is not None:
        traces[:] = [[float(o)] for o in obj]
    while True:
        capped = due & (started >= max_iters)
        due &= ~capped
        conv = np.zeros_like(due)
        if due.any():
            d = project(h + grad) - h
            gn = np.where(due, np.sqrt(np.vecdot(d, d)), gn)
            conv = due & (gn < tol)
            go = due & ~conv
            started += go
            step = np.where(go, np.minimum(step * 2.0, 1e6), step)
        done = capped | conv | ~(step > 1e-15)  # the last: stalled
        if done.any():
            fin = rows[done]
            h_out[fin], iterations[fin], grad_norm[fin] = h[done], its[done], gn[done]
            converged[fin] = conv[done]
            keep = ~done
            rows, h, obj, grad, step, started, its, gn = (
                a[keep] for a in (rows, h, obj, grad, step, started, its, gn)
            )
            if not rows.size:
                break
        h_new = project(h + step[:, None] * grad)
        obj_new, grad_of = objective(h_new, rows)
        due = obj_new >= obj  # accepted
        np.copyto(h, h_new, where=due[:, None])
        np.copyto(obj, obj_new, where=due)
        grad[due] = grad_of(due)
        its += due
        step = np.where(due, step, step * 0.5)
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
    """Near-maximum-likelihood estimate via projected gradient ascent.

    Maximizes sum_i log F(sqrt(2) c_i (Phi_bar_R h)_i) over the real-valued
    channel embedding constrained to ||h||^2 <= radius_sq (default MK, the
    expected squared norm of a unit-variance channel), where F is the
    standard normal CDF and c_i the observed signs. The problem is concave;
    ascent uses backtracking line search. Non-convergence is reported in
    `diagnostics` rather than raised.

    The objective applies the training operator in its Kronecker form, as a
    K -> tau matmul on the M x K channel, and evaluates log F with
    ``scipy.special.log_ndtr`` (see :func:`_nml_objective`), so an
    evaluation costs O(M K tau). This is the one-trial case of the stacked
    solver :func:`_nml_solve`.
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
