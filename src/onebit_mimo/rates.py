"""MRC/ZF combining and achievable-rate evaluation.

Provides the Monte Carlo lower bound on the ergodic rate with estimated CSI
(worst-case-Gaussian quantizer noise), the low-SNR closed-form
approximations for MRC and ZF with their supporting moment sets, and the
conventional (infinite-resolution) reference rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import _check_zf_antennas, _sinr
from .channel import crandn_trials, dft_pilots
from .config import SystemConfig
from .estimators import blmmse_filter, estimate_variance
from .mc import run_blocks, trial_stacks
from .quantize import (
    UNCORR_NOISE_VAR,
    _alpha_sq,
    alpha_d,
    alpha_p,
    one_bit_quantize,
    quantizer_noise_quad,
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

    A matrix whose Gram matrix is singular gets the minimum-norm combiner
    pinv(H_hat); the other matrices of its stack are then solved one by
    one, with the same result as the stacked solve.
    """
    Hh = np.swapaxes(H_hat.conj(), -1, -2)
    try:
        return np.linalg.solve(Hh @ H_hat, Hh)
    except np.linalg.LinAlgError:
        pass
    W = np.empty(Hh.shape, dtype=np.result_type(Hh, 1.0))
    for i in np.ndindex(H_hat.shape[:-2]):
        try:
            W[i] = np.linalg.solve(Hh[i] @ H_hat[i], Hh[i])
        except np.linalg.LinAlgError:
            W[i] = np.linalg.pinv(H_hat[i])
    return W


def sum_se(per_user_rates: np.ndarray, cfg: SystemConfig) -> float:
    """Sum spectral efficiency (T - tau)/T * sum_k R_k in bits/s/Hz."""
    return (cfg.T - cfg.tau) / cfg.T * float(np.sum(per_user_rates))


def _combiner(receiver: str):
    if receiver == "mrc":
        return mrc_matrix
    if receiver == "zf":
        return zf_matrix
    raise ValueError(f"unknown receiver {receiver!r} (use 'mrc' or 'zf')")


def ergodic_rate_mc(
    cfg: SystemConfig,
    receiver: str = "mrc",
    n_trials: int = 2000,
    seed=0,
    csi: str = "estimated",
) -> RateReport:
    """Monte Carlo lower bound on the ergodic per-user rate with one-bit ADCs.

    Per channel draw: train with DFT pilots, quantize, form the Bussgang
    LMMSE estimate, build the combiner from it, and evaluate the SINR with
    the hardening gain alpha_d and the exact per-realization quantizer-noise
    covariance. csi='perfect' skips estimation (H_hat = H), which upper
    bounds the estimated-CSI rate.

    Each block of trials is evaluated in stacks (:func:`mc.trial_stacks`)
    on (n, M, K) arrays; the draws are those of one trial at a time.
    """
    if csi not in ("estimated", "perfect"):
        raise ValueError("csi must be 'estimated' or 'perfect'")
    combine = _combiner(receiver)
    if n_trials < 2:
        raise ValueError(f"n_trials must be >= 2 for a standard error, got {n_trials}")
    M, K, tau = cfg.M, cfg.K, cfg.tau
    Phi = dft_pilots(tau, K)
    ad2 = alpha_d(cfg) ** 2
    fast = tau == K
    G = None
    if csi == "estimated" and not fast:
        G, _, _ = blmmse_filter(Phi, cfg)
    ap_rp = alpha_p(cfg) * np.sqrt(cfg.rho_p)
    Phi_conj = Phi.conj()

    def block(rng: np.random.Generator, n: int):
        rates = np.empty((n, K))
        for s in trial_stacks(n, M):
            if csi == "perfect":
                (H,) = crandn_trials(rng, s.stop - s.start, (M, K))
                H_hat = H
            else:
                H, N = crandn_trials(rng, s.stop - s.start, (M, K), (M, tau))
                R_p = one_bit_quantize(np.sqrt(cfg.rho_p) * H @ Phi.T + N)
                if fast:
                    H_hat = ap_rp * (R_p @ Phi_conj)
                else:  # unvec(G @ vec(R_p)) per trial
                    r = np.swapaxes(R_p, 1, 2).reshape(-1, M * tau, 1)
                    H_hat = np.swapaxes((G @ r).reshape(-1, K, M), 1, 2)
            WT = combine(H_hat)

            sig = np.abs(WT @ H_hat) ** 2  # n x K x K, [t, k, i] = |w_k^T h_hat_i|^2
            diag = np.diagonal(sig, axis1=1, axis2=2)
            desired = cfg.rho_d * ad2 * diag
            interf = cfg.rho_d * ad2 * (sig.sum(axis=2) - diag)
            est_err = cfg.rho_d * ad2 * np.sum(np.abs(WT @ (H - H_hat)) ** 2, axis=2)
            awgn = ad2 * np.sum(np.abs(WT) ** 2, axis=2)
            quant = quantizer_noise_quad(WT, H, cfg.rho_d)
            den = interf + est_err + awgn + quant
            sinr = np.divide(desired, den, out=np.zeros_like(den), where=den > 0)
            rates[s] = np.log2(1.0 + sinr)
        return rates.sum(axis=0), rates.sum(axis=1)

    results = run_blocks(n_trials, block, seed)
    per_user = sum(r for r, _ in results) / n_trials
    samples = np.concatenate([s for _, s in results])
    pref = (cfg.T - cfg.tau) / cfg.T
    stderr = pref * float(np.std(samples, ddof=1) / np.sqrt(n_trials))
    return RateReport(per_user, sum_se(per_user, cfg), "mc_lower_bound", stderr)


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


def _closed_rate(cfg: SystemConfig, M, receiver: str, system: str) -> float:
    _check_zf_antennas(M, cfg.K, receiver)
    sinr = _sinr(cfg.rho_p, cfg.rho_d, cfg.tau, M, cfg.K, receiver, system)
    return float(np.log2(1.0 + sinr))


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
    if cfg.M <= cfg.K:
        raise ValueError("ZF moments need M > K")
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
