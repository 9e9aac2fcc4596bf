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

from .channel import crandn_trials, dft_pilots
from .config import SystemConfig
from .estimators import _estimate_variance, _fast_estimate, _iid_filter, estimate_variance
from .mc import BLOCK, run_blocks, trial_stacks
from .quantize import (
    UNCORR_NOISE_VAR,
    _alpha_sq,
    _noise_workspace,
    alpha_d,
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
    on (n, M, K) arrays; the draws are those of one trial at a time. The
    stacks share one quantizer-noise workspace, allocated once per call.
    """
    if csi not in ("estimated", "perfect"):
        raise ValueError("csi must be 'estimated' or 'perfect'")
    # built per call, so that a module attribute swapped in later is the one used
    combine = {"mrc": mrc_matrix, "zf": zf_matrix}.get(receiver)
    if combine is None:
        raise ValueError(f"unknown receiver {receiver!r} (use 'mrc' or 'zf')")
    if n_trials < 2:
        raise ValueError(f"n_trials must be >= 2 for a standard error, got {n_trials}")
    M, K, tau = cfg.M, cfg.K, cfg.tau
    Phi = dft_pilots(tau, K)
    ad2 = alpha_d(cfg) ** 2
    fast = tau == K
    if csi == "estimated" and not fast:  # the i.i.d. filter is G_1 kron I_M
        G1 = _iid_filter(Phi, cfg)[0]
    work = _noise_workspace(trial_stacks(min(n_trials, BLOCK), M)[0].stop, M)

    def block(rng: np.random.Generator, n: int):
        rates = np.empty((n, K))
        for s in trial_stacks(n, M):
            if csi == "perfect":
                (H,) = crandn_trials(rng, s.stop - s.start, (M, K))
                H_hat = H
            else:
                H, N = crandn_trials(rng, s.stop - s.start, (M, K), (M, tau))
                R_p = one_bit_quantize(np.sqrt(cfg.rho_p) * H @ Phi.T + N)
                H_hat = _fast_estimate(R_p, Phi, cfg) if fast else R_p @ G1.T
            WT = combine(H_hat)

            sig = np.abs(WT @ H_hat) ** 2  # n x K x K, [t, k, i] = |w_k^T h_hat_i|^2
            diag = np.diagonal(sig, axis1=1, axis2=2)
            desired = cfg.rho_d * ad2 * diag
            interf = cfg.rho_d * ad2 * (sig.sum(axis=2) - diag)
            est_err = cfg.rho_d * ad2 * np.sum(np.abs(WT @ (H - H_hat)) ** 2, axis=2)
            awgn = ad2 * np.sum(np.abs(WT) ** 2, axis=2)
            quant = quantizer_noise_quad(WT, H, cfg.rho_d, work)
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


def _closed_se(cfg: SystemConfig, receiver: str) -> float:
    """One-bit closed-form low-SNR sum SE at cfg's powers; ZF needs M > K."""
    _check_zf_antennas(cfg.M, cfg.K, receiver)
    sinr = _sinr(cfg.rho_p, cfg.rho_d, cfg.tau, cfg.M, cfg.K, receiver, "one-bit")
    return _sum_se(sinr, cfg.tau, cfg.T, cfg.K)


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
