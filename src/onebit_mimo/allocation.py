"""Power scaling, pilot/power allocation, bit energy, and antenna-ratio solvers.

The allocation problem splits the energy P = rho*T of one coherence
interval (rho the average power) between training (fraction gamma over tau
symbols) and data transmission, and is solved by an exhaustive scan over
integer tau combined with one golden-section search over gamma on (0, 1),
run for every tau at once on arrays. The sum SE is unimodal in gamma at
every tau, for both receivers and both systems. The entry points read M, K
and T from their SystemConfig; its tau, rho_p and rho_d are the allocation
being replaced, and no solver reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .estimators import estimate_variance
from .rates import _check_zf_antennas, _sinr, _sum_se

__all__ = [
    "AllocationSolution",
    "se_at_allocation",
    "se_surface",
    "optimize_allocation",
    "power_scaling_limit",
    "bit_energy",
    "antenna_ratio",
]


@dataclass(frozen=True)
class AllocationSolution:
    """Optimizer output; the implied powers satisfy tau*rho_p + (T-tau)*rho_d = P."""

    gamma_star: float
    tau_star: int
    rho_p_star: float
    rho_d_star: float
    se_star: float
    receiver: str
    system: str
    T: int
    P: float


def _checked_power(rho, cfg: SystemConfig) -> float:
    """The energy P = rho*T of cfg's coherence interval, once 0 < rho < inf."""
    if not 0.0 < rho < math.inf:  # NaN fails
        raise ValueError(f"rho must be finite and > 0, got {rho}")
    return rho * cfg.T


def _checked_split(gamma, tau, K, T):
    """gamma as a float array, once tau is an integer in [K, T] and every gamma lies in (0, 1)."""
    if isinstance(tau, bool) or not isinstance(tau, (int, np.integer)) or not K <= tau <= T:
        raise ValueError(f"tau must be an integer in [K, T], got {tau}")
    gamma = np.asarray(gamma, dtype=float)
    if not ((gamma > 0.0) & (gamma < 1.0)).all():  # NaN fails both
        raise ValueError("gamma must lie strictly inside (0, 1)")
    return gamma


def _se_direct(gamma, tau, P, T, M, K, receiver: str, system: str):
    """Sum SE at the (gamma, tau) split; gamma and tau may be broadcasting arrays.

    Unchecked: each gamma must lie in (0, 1). Zero wherever tau = T (no data symbols).
    """
    rho_p = gamma * P / tau
    # at tau = T the (T - tau) factor zeroes the SE; one placeholder data
    # symbol keeps rho_d, and so the SINR, finite there
    rho_d = (1.0 - gamma) * P / np.maximum(T - np.asarray(tau), 1)
    return _sum_se(_sinr(rho_p, rho_d, tau, M, K, receiver, system), tau, T, K)


def se_at_allocation(
    gamma,
    tau: int,
    rho: float,
    cfg: SystemConfig,
    receiver: str = "mrc",
    system: str = "one-bit",
):
    """Sum spectral efficiency at pilot fraction gamma and training length tau.

    Direct substitution of rho_p = gamma*P/tau, rho_d = (1-gamma)*P/(T-tau),
    P = rho*T, into the closed-form rates; gamma, each in (0, 1), may be an
    array. tau is an integer in [K, T], and tau = T returns 0. ZF needs M > K.
    """
    P = _checked_power(rho, cfg)
    gamma = _checked_split(gamma, tau, cfg.K, cfg.T)
    return _se_direct(gamma, tau, P, cfg.T, cfg.M, cfg.K, receiver, system)


def se_surface(gamma, tau: int, rho: float, cfg: SystemConfig, receiver: str = "mrc"):
    """One-bit sum spectral efficiency via the rational-coefficient form.

    Evaluates (T-tau)/T * K * log2(1 + a1*tau / D(tau)) where D is a
    quadratic in tau with gamma-dependent coefficients. The published
    coefficient tables carry a global sign flip between numerator and
    denominator relative to the SINR obtained by direct substitution into
    the closed-form rates; the denominator is negated here so the surface
    agrees with :func:`se_at_allocation` to machine precision. ZF needs M > K.
    """
    P, T, M, K = _checked_power(rho, cfg), cfg.T, cfg.M, cfg.K
    g = _checked_split(gamma, tau, K, T)
    _check_zf_antennas(M, K, receiver)
    if tau == T:
        return np.zeros_like(g) if g.ndim else 0.0
    pi = np.pi
    a2 = pi**2 + 2.0 * pi * P * g
    a4 = pi * (K**2 * P**2 * (pi - 2.0) * (g - 1.0) * g - K * P * (pi - 2.0) * g * T)
    if receiver == "mrc":
        a1 = 4.0 * M * P**2 * (g - g**2)
        a3 = pi * (
            K * P * (pi - 2.0) * g
            - K * P * (1.0 - g) * (pi + 2.0 * P * g)
            - (pi + 2.0 * P * g) * T
        )
    elif receiver == "zf":
        a1 = 4.0 * (M - K) * P**2 * (g - g**2)
        # the inner sign of the 4P(g-g^2) + pi^2(2g-1) group is corrected here;
        # as published it breaks the identity with the direct substitution
        a3 = -K * P * (
            2.0 * pi * (g + P * (g - g**2))
            - 4.0 * P * (g - g**2)
            - pi**2 * (2.0 * g - 1.0)
        ) - a2 * T
    else:
        raise ValueError(f"unknown receiver {receiver!r}")
    return _sum_se(a1 * tau / -(a2 * tau**2 + a3 * tau + a4), tau, T, K)


def _golden_max(f):
    """Golden-section maximization of unimodal f on the bracket [1e-9, 1 - 1e-9].

    f maps a point, or an array of points (one per search), to its values.
    Every search takes the scalar search's steps until its bracket is within
    1e-6 wide; all brackets start alike, so they get there on the same step.
    A scalar f returns floats.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 1e-9, 1.0 - 1e-9
    # each step multiplies the bracket width by invphi
    steps = math.ceil(math.log(1e-6 / (b - a)) / math.log(invphi))
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    a, b, c, d, fc, fd = np.broadcast_arrays(a, b, c, d, f(c), f(d))
    for _ in range(steps):
        left = fc >= fd  # the maximum lies in [a, d]
        x = np.where(left, d - invphi * (d - a), c + invphi * (b - c))
        fx = f(x)
        # left: (a, b, c, d) <- (a, d, x, c); right: (a, b, c, d) <- (c, b, d, x)
        a, b, c, d, fc, fd = np.where(left, (a, d, x, c, fx, fc), (c, b, d, x, fd, fx))
    x = 0.5 * (a + b)
    fx = f(x)
    return (float(x), float(fx)) if x.ndim == 0 else (x, fx)


def _optimize_numeric(P, T, M, K, receiver: str, system: str):
    """Best (se, gamma, tau) over integer tau in [K, T], gamma in (0, 1).

    One golden-section search steps the gamma of every tau at once; the SE
    is unimodal in gamma at each tau. Ties go to the smallest tau.
    """
    taus = np.arange(int(K), int(T) + 1, dtype=float)
    if taus.size == 0:
        raise ValueError(f"empty training range: T = {T} < K = {K}")
    g_star, se = _golden_max(lambda g: _se_direct(g, taus, P, T, M, K, receiver, system))
    j = int(np.argmax(se))
    return float(se[j]), float(g_star[j]), int(taus[j])


def optimize_allocation(
    rho: float,
    cfg: SystemConfig,
    receiver: str = "mrc",
    system: str = "one-bit",
) -> AllocationSolution:
    """Maximize the sum spectral efficiency over (gamma, tau) at P = rho*T.

    Scans every integer tau in [K, T] with a golden-section search over gamma
    in (0, 1) for each tau, and returns the best point found, with the
    implied powers. cfg.tau, cfg.rho_p and cfg.rho_d are not read.
    """
    P, T = _checked_power(rho, cfg), cfg.T
    se_star, gamma_star, tau_star = _optimize_numeric(P, T, cfg.M, cfg.K, receiver, system)
    rho_p = gamma_star * P / tau_star
    rho_d = (1.0 - gamma_star) * P / (T - tau_star) if tau_star < T else 0.0
    return AllocationSolution(
        gamma_star=gamma_star,
        tau_star=tau_star,
        rho_p_star=rho_p,
        rho_d_star=rho_d,
        se_star=se_star,
        receiver=receiver,
        system=system,
        T=T,
        P=P,
    )


def power_scaling_limit(case: str, cfg: SystemConfig, E_u: float) -> float:
    """Asymptotic sum spectral efficiency under power scaling in M.

    Case 'I' (rho_p fixed, rho_d = E_u/M):
        (T-tau)/T * K * log2(1 + (2/pi) sigma^2 E_u) with sigma^2 from cfg.rho_p.
    Case 'II' (rho_p = rho_d = E_u/sqrt(M)):
        (T-tau)/T * K * log2(1 + (4/pi^2) tau E_u^2).
    The MRC and ZF rates share each limit.
    """
    if case == "I":
        sinr = (2.0 / np.pi) * estimate_variance(cfg) * E_u
    elif case == "II":
        sinr = (4.0 / np.pi**2) * cfg.tau * E_u**2
    else:
        raise ValueError("case must be 'I' or 'II'")
    return _sum_se(sinr, cfg.tau, cfg.T, cfg.K)


def bit_energy(allocation: AllocationSolution, se: float | None = None) -> float:
    """Energy per transmitted bit, P / S_A, S_A the allocation's own SE by default.

    An S_A of 0 gives inf; a negative or NaN one raises ValueError.
    """
    se = allocation.se_star if se is None else se
    if not se >= 0.0:
        raise ValueError(f"spectral efficiency must be >= 0, got {se}")
    return allocation.P / se if se else np.inf


_M_MAX_FACTOR = 1e5  # antenna_ratio's search gives up beyond this many times M_conv


def antenna_ratio(rho: float, cfg: SystemConfig, receiver: str, mode: str = "optimized") -> float:
    """Antenna ratio kappa = M_one / M_conv for equal sum spectral efficiency.

    The conventional array has M_conv = cfg.M antennas. mode='benchmark'
    compares both systems at tau = K, rho_p = rho_d = rho; mode='optimized'
    gives each system its best resource allocation of P = rho*T (the
    conventional side optimizes the power split with tau fixed at K). M_one
    is treated as continuous and found by bisection to an SE tolerance of
    1e-4 bits/s/Hz; returns inf when even _M_MAX_FACTOR * M_conv antennas
    cannot reach the conventional SE (ZF at high SNR). An M_conv whose
    _M_MAX_FACTOR multiple is not finite raises ValueError.
    """
    if mode not in ("benchmark", "optimized"):
        raise ValueError("mode must be 'benchmark' or 'optimized'")
    P, T, K, M_conv = _checked_power(rho, cfg), cfg.T, cfg.K, cfg.M
    if not math.isfinite(_M_MAX_FACTOR * M_conv):
        raise ValueError(
            f"the search for M_one runs up to {_M_MAX_FACTOR:g} * M_conv, "
            f"which is not finite at M_conv = {M_conv!r}"
        )

    if mode == "benchmark":

        def se_one(M, system="one-bit"):
            return _sum_se(_sinr(rho, rho, K, M, K, receiver, system), K, T, K)

        target = se_one(M_conv, "conventional")
    else:
        _, target = _golden_max(
            lambda g: _se_direct(g, K, P, T, M_conv, K, receiver, "conventional")
        )

        def se_one(M):
            return _optimize_numeric(P, T, M, K, receiver, "one-bit")[0]

    lo = float(K) + 1e-9 if receiver == "zf" else 1.0
    hi = float(M_conv)
    f_hi = se_one(hi)
    while f_hi < target:
        hi *= 2.0
        if hi > _M_MAX_FACTOR * M_conv:
            return np.inf
        f_hi = se_one(hi)
    if se_one(lo) >= target:
        return lo / M_conv
    while hi - lo > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        f_mid = se_one(mid)
        if abs(f_mid - target) <= 1e-4:
            return mid / M_conv
        if f_mid >= target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi) / M_conv
