"""Power scaling, pilot/power allocation, bit energy, and antenna-ratio solvers.

The allocation problem splits a total energy budget P = rho*T between
training (fraction gamma over tau symbols) and data transmission, and is
solved by an exhaustive scan over integer tau combined with a grid-seeded
golden-section search over gamma, run for every tau at once on arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PowerBudget, SystemConfig
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


def _se_direct(gamma, tau, P, T, M, K, receiver: str, system: str):
    """Sum SE at the (gamma, tau) split; gamma and tau may be broadcasting arrays.

    Zero wherever tau = T (no data symbols).
    """
    gamma = np.asarray(gamma, dtype=float)
    if ((gamma <= 0.0) | (gamma >= 1.0)).any():
        raise ValueError("gamma must lie strictly inside (0, 1)")
    rho_p = gamma * P / tau
    # at tau = T the (T - tau) factor zeroes the SE; one placeholder data
    # symbol keeps rho_d, and so the SINR, finite there
    rho_d = (1.0 - gamma) * P / np.maximum(T - np.asarray(tau), 1)
    return _sum_se(_sinr(rho_p, rho_d, tau, M, K, receiver, system), tau, T, K)


def se_at_allocation(
    gamma,
    tau: int,
    budget: PowerBudget,
    cfg: SystemConfig,
    receiver: str = "mrc",
    system: str = "one-bit",
):
    """Sum spectral efficiency at pilot fraction gamma and training length tau.

    Direct substitution of rho_p = gamma*P/tau, rho_d = (1-gamma)*P/(T-tau)
    into the closed-form rates; gamma may be an array. tau = T returns 0.
    ZF needs M > K.
    """
    if not (cfg.K <= tau <= budget.T):
        raise ValueError(f"tau must lie in [K, T], got {tau}")
    _check_zf_antennas(cfg.M, cfg.K, receiver)
    return _se_direct(gamma, tau, budget.P, budget.T, cfg.M, cfg.K, receiver, system)


def se_surface(
    gamma, tau: int, budget: PowerBudget, cfg: SystemConfig, receiver: str = "mrc"
):
    """One-bit sum spectral efficiency via the rational-coefficient form.

    Evaluates (T-tau)/T * K * log2(1 + a1*tau / D(tau)) where D is a
    quadratic in tau with gamma-dependent coefficients. The published
    coefficient tables carry a global sign flip between numerator and
    denominator relative to the SINR obtained by direct substitution into
    the closed-form rates; the denominator is negated here so the surface
    agrees with :func:`se_at_allocation` to machine precision. ZF needs M > K.
    """
    P, T, M, K = budget.P, budget.T, cfg.M, cfg.K
    if not (K <= tau <= T):
        raise ValueError(f"tau must lie in [K, T], got {tau}")
    _check_zf_antennas(M, K, receiver)
    gamma = np.asarray(gamma, dtype=float)
    if np.any((gamma <= 0.0) | (gamma >= 1.0)):
        raise ValueError("gamma must lie strictly inside (0, 1)")
    if tau == T:
        return np.zeros_like(gamma) if gamma.ndim else 0.0
    pi = np.pi
    g = gamma
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


def _golden_max(f, lo, hi):
    """Golden-section maximization of unimodal functions on brackets [lo, hi].

    lo and hi may be arrays: f then maps an array of points, one per bracket,
    to their values, and each bracket takes the steps of the scalar search
    until its own width is within 1e-6, after which it is frozen. Scalar
    brackets return floats.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (active := b - a > 1e-6).any():
        left = fc >= fd  # the maximum lies in [a, d]
        x = np.where(left, d - invphi * (d - a), c + invphi * (b - c))
        fx = f(x)
        # left: (a, b, c, d) <- (a, d, x, c); right: (a, b, c, d) <- (c, b, d, x)
        moved = np.where(left, (a, d, x, c, fx, fc), (c, b, d, x, fd, fx))
        a, b, c, d, fc, fd = np.where(active, moved, (a, b, c, d, fc, fd))
    x = 0.5 * (a + b)
    fx = f(x)
    return (float(x), float(fx)) if x.ndim == 0 else (x, fx)


_GAMMA_GRID = np.linspace(0.0, 1.0, 202)[1:-1]  # the 200 points of the pre-scan

# tau rows per block of the gamma-grid pre-scan, 64 rows of 200 points
# (100 kB per temporary array): at T = 200-500 this ran about twice as fast
# as one n_tau x 200 block, and 80-row blocks (128 kB) lost the gain
_PRESCAN_ROWS = 64


def _optimize_numeric(P, T, M, K, receiver: str, system: str):
    """Best (se, gamma, tau) over integer tau in [K, T], gamma in (0, 1).

    Every tau is solved at once: a gamma grid pre-scan, one row per tau,
    seeds a golden-section refinement on one bracket per tau. Ties go to
    the smallest tau.
    """
    _check_zf_antennas(M, K, receiver)
    taus = np.arange(int(K), int(T) + 1, dtype=float)
    if taus.size == 0:
        raise ValueError(f"empty training range: T = {T} < K = {K}")
    grid = _GAMMA_GRID
    step = grid[1] - grid[0]

    def grid_argmax(rows):
        vals = _se_direct(grid, rows[:, None], P, T, M, K, receiver, system)
        return grid[np.argmax(vals, axis=1)]

    n = _PRESCAN_ROWS
    g0 = np.concatenate([grid_argmax(taus[i : i + n]) for i in range(0, taus.size, n)])
    lo = np.maximum(g0 - step, 1e-9)
    hi = np.minimum(g0 + step, 1.0 - 1e-9)
    g_star, se = _golden_max(
        lambda g: _se_direct(g, taus, P, T, M, K, receiver, system), lo, hi
    )
    j = int(np.argmax(se))
    return float(se[j]), float(g_star[j]), int(taus[j])


def optimize_allocation(
    budget: PowerBudget,
    cfg: SystemConfig,
    receiver: str = "mrc",
    system: str = "one-bit",
) -> AllocationSolution:
    """Maximize the sum spectral efficiency over (gamma, tau).

    Scans every integer tau in [K, T]; for each tau, a 200-point gamma grid
    pre-scan (guards against non-unimodality) seeds a golden-section
    refinement. Returns the best point found, with the implied powers.
    """
    T = budget.T
    se_star, gamma_star, tau_star = _optimize_numeric(
        budget.P, T, cfg.M, cfg.K, receiver, system
    )
    rho_p = gamma_star * budget.P / tau_star
    rho_d = (1.0 - gamma_star) * budget.P / (T - tau_star) if tau_star < T else 0.0
    return AllocationSolution(
        gamma_star=gamma_star,
        tau_star=tau_star,
        rho_p_star=rho_p,
        rho_d_star=rho_d,
        se_star=se_star,
        receiver=receiver,
        system=system,
        T=T,
        P=budget.P,
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


def _bit_energy(P: float, se: float) -> float:
    """Energy per bit P / se of budget P; an se of 0 costs inf per bit."""
    if not se >= 0.0:
        raise ValueError(f"spectral efficiency must be >= 0, got {se}")
    return P / se if se else np.inf


def bit_energy(allocation: AllocationSolution, se: float | None = None) -> float:
    """Energy per transmitted bit, P / S_A, S_A the allocation's own SE by default.

    An S_A of 0 gives inf; a negative or NaN one raises ValueError.
    """
    return _bit_energy(allocation.P, allocation.se_star if se is None else se)


_M_MAX_FACTOR = 1e5  # antenna_ratio's search gives up beyond this many times M_conv


def antenna_ratio(
    budget: PowerBudget,
    cfg: SystemConfig,
    receiver: str,
    M_conv: int,
    mode: str = "optimized",
) -> float:
    """Antenna ratio kappa = M_one / M_conv for equal sum spectral efficiency.

    mode='benchmark' compares both systems at tau = K, rho_p = rho_d = rho;
    mode='optimized' gives each system its best resource allocation (the
    conventional side optimizes the power split with tau fixed at K). M_one
    is treated as continuous and found by bisection to an SE tolerance of
    1e-4 bits/s/Hz; returns inf when even _M_MAX_FACTOR * M_conv antennas
    cannot reach the conventional SE (ZF at high SNR).
    """
    if mode not in ("benchmark", "optimized"):
        raise ValueError("mode must be 'benchmark' or 'optimized'")
    _check_zf_antennas(M_conv, cfg.K, receiver)
    P, T, K = budget.P, budget.T, cfg.K
    rho = budget.rho

    if mode == "benchmark":

        def se_one(M, system="one-bit"):
            return _sum_se(_sinr(rho, rho, K, M, K, receiver, system), K, T, K)

        target = se_one(M_conv, "conventional")
    else:
        _, target = _golden_max(
            lambda g: _se_direct(g, K, P, T, M_conv, K, receiver, "conventional"),
            1e-9,
            1.0 - 1e-9,
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
