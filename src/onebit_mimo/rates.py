"""MRC/ZF combining and achievable-rate evaluation.

Provides the Monte Carlo lower bound on the ergodic rate with estimated CSI
(worst-case-Gaussian quantizer noise), the low-SNR closed-form
approximations for MRC and ZF with their supporting moment sets, and the
conventional (infinite-resolution) reference rates. The allocation solvers
search the closed-form SINR and sum SE defined here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import dft_pilots
from .config import SystemConfig
from .estimators import _estimate_variance, _iid_filter, estimate_variance
from .mc import training_trials
from .quantize import (
    UNCORR_NOISE_VAR,
    _alpha_sq,
    _noise_form,
    _noise_parts,
    _noise_workspace,
    alpha_d,
)

__all__ = [
    "RateReport",
    "ReceiverMoments",
    "mrc_matrix",
    "zf_matrix",
    "sum_se",
    "ergodic_rate_mc",
    "rate_lemma1",
    "rate_mrc_closed",
    "rate_zf_closed",
    "mrc_moments",
    "zf_moments",
    "conventional_rates",
]

# a ZF Gram matrix G with lambda_min <= _ZF_RCOND * lambda_max is singular:
# a solve of it would lose over 12 of its 16 digits. Rounding leaves an
# exactly rank-deficient G (M < K) at up to 3.3 eps * lambda_max (Gaussian
# draws, K <= 16); at M = 1, K = 2 that is above the K * eps that
# np.linalg.matrix_rank allows.
_ZF_RCOND = 1e-12


@dataclass
class RateReport:
    """Per-user rates and the resulting sum spectral efficiency."""

    per_user_rate: np.ndarray
    sum_spectral_efficiency: float
    method: str
    stderr: float | None = None


def mrc_matrix(H_hat: np.ndarray) -> np.ndarray:
    """Maximum-ratio combiner W^T = H_hat^H (K x M); H_hat may be a stack (..., M, K)."""
    return np.swapaxes(H_hat.conj(), -1, -2)


def zf_matrix(H_hat: np.ndarray) -> np.ndarray:
    """Zero-forcing combiner W^T = (H_hat^H H_hat)^{-1} H_hat^H (K x M); stacks too.

    Rank policy: a matrix whose Gram matrix G = H_hat^H H_hat has
    lambda_min <= _ZF_RCOND * lambda_max is singular and gets the
    minimum-norm combiner pinv(G) H_hat^H, with pinv cutting the eigenvalues
    below that same fraction of lambda_max. Every other matrix gets
    inv(G) H_hat^H, with the bytes of an inverse of it alone.

    A stacked slogdet screens first: since det G <= lambda_min
    lambda_max^(K-1) and lambda_max <= tr G, det G > 2 _ZF_RCOND tr(G)^K
    (compared in logs, so tr^K cannot overflow) certifies G as regular, the
    factor 2 covering the rounding of det near the cutoff. Only the
    uncertified matrices take eigvalsh, which decides the policy.
    """
    Hh = np.swapaxes(H_hat.conj(), -1, -2)
    G = Hh @ H_hat
    sign, logdet = np.linalg.slogdet(G)
    with np.errstate(divide="ignore"):  # tr G = 0 only for H_hat = 0
        log_tr = np.log(np.trace(G, axis1=-2, axis2=-1).real)
    bound = np.log(2.0 * _ZF_RCOND) + G.shape[-1] * log_tr
    singular = np.asarray(~((sign.real > 0.0) & (logdet > bound)))  # 0-d for one matrix
    if singular.any():
        lam = np.linalg.eigvalsh(G[singular])
        singular[singular] = lam[..., 0] <= _ZF_RCOND * lam[..., -1]
    if not singular.any():
        return np.linalg.inv(G) @ Hh
    W = np.empty(Hh.shape, dtype=np.result_type(Hh, 1.0))
    W[~singular] = np.linalg.inv(G[~singular]) @ Hh[~singular]
    W[singular] = np.linalg.pinv(G[singular], rtol=_ZF_RCOND, hermitian=True) @ Hh[singular]
    return W


def sum_se(per_user_rates: np.ndarray, cfg: SystemConfig) -> float:
    """Sum spectral efficiency (T - tau)/T * sum_k R_k in bits/s/Hz."""
    return (cfg.T - cfg.tau) / cfg.T * float(np.sum(per_user_rates))


def _sinr(rho_p, rho_d, tau, M, K, receiver: str, system: str):
    """Post-combining SINR of the closed-form rate expressions (M may be real)."""
    if system == "conventional":
        if receiver == "mrc":
            return rho_d * tau * rho_p * M / ((1.0 + K * rho_d) * (1.0 + tau * rho_p))
        if receiver == "zf":
            return rho_d * tau * rho_p * (M - K) / (K * rho_d + tau * rho_p + 1.0)
        raise ValueError(f"unknown receiver {receiver!r}")
    if system == "one-bit":
        ad2 = _alpha_sq(K, rho_d)
        sig = _estimate_variance(K, tau, rho_p)
        if receiver == "mrc":
            return rho_d * ad2 * M * sig
        if receiver == "zf":
            den = rho_d * ad2 * K * (1.0 - sig) + ad2 + UNCORR_NOISE_VAR
            return rho_d * ad2 * sig * (M - K) / den
        raise ValueError(f"unknown receiver {receiver!r}")
    raise ValueError(f"unknown system {system!r}")


def _check_zf_antennas(M, K, receiver: str) -> None:
    """The ZF closed forms hold for M > K only (the SINR has an M - K factor)."""
    if receiver == "zf" and M <= K:
        raise ValueError(f"ZF closed form needs M > K, got M={M}, K={K}")


def _sum_se(sinr, tau, T, K):
    """Sum SE (T - tau)/T * K * log2(1 + sinr); broadcasts, and 0-d gives a float."""
    se = (T - np.asarray(tau)) / T * K * np.log2(1.0 + sinr)
    return se if se.ndim else float(se)


def ergodic_rate_mc(
    cfg: SystemConfig,
    receiver: str | tuple = "mrc",
    n_trials: int = 2000,
    seed=0,
) -> RateReport | tuple:
    """Monte Carlo lower bound on the ergodic per-user rate with one-bit ADCs.

    Per trial of :func:`mc.training_trials` (DFT pilots): form the Bussgang
    LMMSE estimate R_p G_1^T, build the combiner from it, and evaluate the
    SINR with the hardening gain alpha_d and the exact per-realization
    quantizer-noise covariance. The trial stacks share one quantizer-noise
    workspace, allocated once per call.

    ``receiver`` is 'mrc', 'zf' or a tuple of them, which gives one report per
    name, in order: each stack is drawn, estimated and given its arcsine
    excess (:func:`quantize._noise_parts`) once, and only the combiner and the
    SINR terms run per receiver, so each report equals a one-receiver call
    with the same seed, bit for bit.
    """
    names = (receiver,) if isinstance(receiver, str) else tuple(receiver)
    # built per call, so that a module attribute swapped in later is the one used
    combiners = {"mrc": mrc_matrix, "zf": zf_matrix}
    if not names:
        raise ValueError("no receiver given (use 'mrc' or 'zf')")
    for name in names:
        if name not in combiners:
            raise ValueError(f"unknown receiver {name!r} (use 'mrc' or 'zf')")
    Phi = dft_pilots(cfg.tau, cfg.K)
    ad2 = alpha_d(cfg) ** 2
    G1 = _iid_filter(Phi, cfg)[0]  # the i.i.d. filter is G_1 kron I_M
    work = []  # made for the first stack, the largest

    def rates(H, R):
        if not work:
            work.extend(_noise_workspace(len(H), cfg.M))
        H_hat = R @ G1.T
        Eps = H - H_hat
        PQ = _noise_parts(H, cfg.rho_d, work)
        out = np.empty((len(H), len(names), cfg.K))
        for j, name in enumerate(names):
            WT = combiners[name](H_hat)
            sig = np.abs(WT @ H_hat) ** 2  # n x K x K, [t, k, i] = |w_k^T h_hat_i|^2
            diag = np.diagonal(sig, axis1=1, axis2=2)
            desired = cfg.rho_d * ad2 * diag
            interf = cfg.rho_d * ad2 * (sig.sum(axis=2) - diag)
            est_err = cfg.rho_d * ad2 * np.sum(np.abs(WT @ Eps) ** 2, axis=2)
            awgn = ad2 * np.sum(np.abs(WT) ** 2, axis=2)
            den = interf + est_err + awgn + _noise_form(WT, PQ)
            sinr = np.divide(desired, den, out=np.zeros_like(den), where=den > 0)
            out[:, j] = np.log2(1.0 + sinr)
        return out

    blocks = training_trials(cfg, Phi, n_trials, seed, rates)  # (n, receivers, K) each
    reports = []
    for j in range(len(names)):
        rows = [b[:, j] for b in blocks]
        per_user = sum(r.sum(axis=0) for r in rows) / n_trials
        samples = np.concatenate([r.sum(axis=1) for r in rows])
        # the prefactor of the sum SE scales the standard error of the trial sums
        stderr = sum_se(np.std(samples, ddof=1) / np.sqrt(n_trials), cfg)
        reports.append(RateReport(per_user, sum_se(per_user, cfg), "mc_lower_bound", stderr))
    return reports[0] if isinstance(receiver, str) else tuple(reports)


@dataclass(frozen=True)
class ReceiverMoments:
    """Moment set feeding the low-SNR rate formula.

    mean_gain and gain_var are E{w_k^T h_k} and Var(w_k^T h_k);
    interference and noise_quant are the full UI_k and AQN_k terms
    (prefactors included).
    """

    mean_gain: complex
    gain_var: float
    interference: float
    noise_quant: float


def rate_lemma1(cfg: SystemConfig, moments: ReceiverMoments) -> float:
    """Low-SNR per-user rate from receiver moments.

    R = log2(1 + rho_d a_d^2 |E{w^T h}|^2 /
             (rho_d a_d^2 Var(w^T h) + UI + AQN)).
    """
    ra2 = cfg.rho_d * _alpha_sq(cfg.K, cfg.rho_d)
    num = ra2 * abs(moments.mean_gain) ** 2
    if num == 0.0:
        return 0.0
    den = ra2 * moments.gain_var + moments.interference + moments.noise_quant
    return float(np.log2(1.0 + num / den))


def _closed_sinr(cfg: SystemConfig, M, receiver: str, system: str):
    """Closed-form SINR at cfg's powers and training with M antennas; ZF needs M > K."""
    _check_zf_antennas(M, cfg.K, receiver)
    return _sinr(cfg.rho_p, cfg.rho_d, cfg.tau, M, cfg.K, receiver, system)


def _closed_rate(cfg: SystemConfig, M, receiver: str, system: str) -> float:
    return float(np.log2(1.0 + _closed_sinr(cfg, M, receiver, system)))


def _closed_se(cfg: SystemConfig, receiver: str) -> float:
    """One-bit closed-form low-SNR sum SE at cfg's powers; ZF needs M > K."""
    return _sum_se(_closed_sinr(cfg, cfg.M, receiver, "one-bit"), cfg.tau, cfg.T, cfg.K)


def rate_mrc_closed(cfg: SystemConfig) -> float:
    """Closed-form low-SNR MRC rate, log2(1 + rho_d a_d^2 M sigma^2)."""
    return _closed_rate(cfg, cfg.M, "mrc", "one-bit")


def rate_zf_closed(cfg: SystemConfig) -> float:
    """Closed-form low-SNR ZF rate; requires M > K."""
    return _closed_rate(cfg, cfg.M, "zf", "one-bit")


def mrc_moments(cfg: SystemConfig) -> ReceiverMoments:
    """Closed-form MRC moment set: plugging it into the low-SNR rate
    formula reproduces :func:`rate_mrc_closed` exactly."""
    sig = estimate_variance(cfg)
    ms = cfg.M * sig
    ad2 = _alpha_sq(cfg.K, cfg.rho_d)
    return ReceiverMoments(
        mean_gain=ms,
        gain_var=ms,
        interference=(cfg.K - 1) * cfg.rho_d * ad2 * ms,
        noise_quant=(ad2 + UNCORR_NOISE_VAR) * ms,
    )


def zf_moments(cfg: SystemConfig) -> ReceiverMoments:
    """Closed-form ZF moment set (inverse-Wishart mean for the combiner norm)."""
    _check_zf_antennas(cfg.M, cfg.K, "zf")
    sig = estimate_variance(cfg)
    wnorm = 1.0 / (sig * (cfg.M - cfg.K))  # E{||w_k||^2}
    ad2 = _alpha_sq(cfg.K, cfg.rho_d)
    return ReceiverMoments(
        mean_gain=1.0,
        gain_var=(1.0 - sig) * wnorm,
        interference=(cfg.K - 1) * cfg.rho_d * ad2 * (1.0 - sig) * wnorm,
        noise_quant=(ad2 + UNCORR_NOISE_VAR) * wnorm,
    )


def conventional_rates(
    cfg: SystemConfig, M_conv: int, receiver: str = "mrc"
) -> RateReport:
    """Infinite-resolution reference rates with LMMSE-trained CSI."""
    rate = _closed_rate(cfg, M_conv, receiver, "conventional")
    per_user = np.full(cfg.K, rate)
    return RateReport(per_user, sum_se(per_user, cfg), f"conventional_{receiver}")
