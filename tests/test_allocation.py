import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit_mimo import (
    AllocationSolution,
    SystemConfig,
    antenna_ratio,
    bit_energy,
    optimize_allocation,
    power_scaling_limit,
    rate_mrc_closed,
    rate_zf_closed,
    se_at_allocation,
    se_surface,
)
from onebit_mimo import allocation
from onebit_mimo.allocation import _golden_max, _optimize_numeric, _se_direct, _sinr
from onebit_mimo.config import db_to_linear
from onebit_mimo.experiments import fig6_bit_energy


def _random_points(rng, n):
    for _ in range(n):
        K = int(rng.integers(1, 12))
        M = int(rng.integers(K + 1, 300))
        T = int(rng.integers(K + 2, 400))
        tau = int(rng.integers(K, T))
        P = float(10 ** rng.uniform(-1, 3))
        gamma = float(rng.uniform(0.01, 0.99))
        yield M, K, T, tau, P, gamma


class TestSeSurface:
    def test_equals_direct_substitution(self):
        rng = np.random.default_rng(0)
        for M, K, T, tau, P, gamma in _random_points(rng, 50):
            rho = P / T
            cfg = SystemConfig(M=M, K=K, tau=tau, T=T)
            for rec in ("mrc", "zf"):
                direct = se_at_allocation(gamma, tau, rho, cfg, rec, "one-bit")
                coeff = se_surface(gamma, tau, rho, cfg, rec)
                assert coeff == pytest.approx(direct, rel=1e-9, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        K=st.integers(1, 16),
        extra_m=st.integers(1, 400),
        data=st.data(),
        log_p=st.floats(-2.0, 4.0),
        gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        receiver=st.sampled_from(["mrc", "zf"]),
    )
    def test_equals_direct_substitution_property(
        self, K, extra_m, data, log_p, gamma, receiver
    ):
        # K < tau < T and M > K, where both forms are defined for MRC and ZF
        T = data.draw(st.integers(K + 2, 500), label="T")
        tau = data.draw(st.integers(K + 1, T - 1), label="tau")
        rho = 10**log_p / T
        cfg = SystemConfig(M=K + extra_m, K=K, tau=tau, T=T)
        direct = se_at_allocation(gamma, tau, rho, cfg, receiver, "one-bit")
        coeff = se_surface(gamma, tau, rho, cfg, receiver)
        assert coeff == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_boundary_gamma(self):
        rho = 0.1
        cfg = SystemConfig(M=32, K=4, tau=10, T=100)
        assert se_surface(1e-9, 10, rho, cfg, "mrc") < 1e-6
        assert se_surface(1 - 1e-9, 10, rho, cfg, "mrc") < 1e-6
        with pytest.raises(ValueError):
            se_surface(0.0, 10, rho, cfg, "mrc")

    def test_full_training(self):
        rho = 0.1
        cfg = SystemConfig(M=32, K=4, tau=4, T=100)
        assert se_surface(0.5, 100, rho, cfg, "mrc") == 0.0

    def test_tau_domain(self):
        rho = 0.1
        cfg = SystemConfig(M=32, K=4, tau=4, T=100)
        with pytest.raises(ValueError):
            se_surface(0.5, 2, rho, cfg, "mrc")

    def test_vectorized_gamma(self):
        rho = 0.1
        cfg = SystemConfig(M=32, K=4, tau=10, T=100)
        g = np.linspace(0.05, 0.95, 11)
        vals = se_surface(g, 10, rho, cfg, "zf")
        assert vals.shape == (11,)
        assert np.all(vals > 0)


class TestOptimizeAllocation:
    def test_conventional_training_length_is_k(self):
        cfg = SystemConfig(M=128, K=8, tau=8, T=200)
        for rho_db in (-15.0, -6.0, 0.0):
            rho = 10 ** (rho_db / 10)
            for rec in ("mrc", "zf"):
                sol = optimize_allocation(rho, cfg, rec, system="conventional")
                assert sol.tau_star == 8

    def test_one_bit_training_longer_than_k(self):
        cfg = SystemConfig(M=128, K=8, tau=8, T=200)
        rho = 10 ** (-15 / 10)
        sol = optimize_allocation(rho, cfg, "mrc")
        assert sol.tau_star > 8

    def test_budget_equality(self):
        cfg = SystemConfig(M=64, K=4, tau=4, T=120)
        rho = 0.05
        sol = optimize_allocation(rho, cfg, "zf")
        spent = sol.tau_star * sol.rho_p_star + (sol.T - sol.tau_star) * sol.rho_d_star
        assert spent == pytest.approx(0.05 * 120, rel=1e-9)

    def test_dominates_benchmark_point(self):
        cfg = SystemConfig(M=128, K=8, tau=8, T=200)
        for rho in (0.01, 0.1, 1.0):
            sol = optimize_allocation(rho, cfg, "mrc")
            bench = se_at_allocation(8 / 200, 8, rho, cfg, "mrc")
            assert sol.se_star >= bench - 1e-12

    def test_dominates_random_feasible_points(self):
        cfg = SystemConfig(M=64, K=4, tau=4, T=100)
        rho = 0.1
        sol = optimize_allocation(rho, cfg, "mrc")
        rng = np.random.default_rng(1)
        taus = rng.integers(4, 101, size=200)
        for tau in np.unique(taus):
            gammas = rng.uniform(1e-6, 1 - 1e-6, size=50)
            vals = se_at_allocation(gammas, int(tau), rho, cfg, "mrc")
            assert np.all(vals <= sol.se_star + 1e-9)

    def test_monotone_in_budget_and_antennas(self):
        cfg = SystemConfig(M=64, K=4, tau=4, T=100)
        ses_p = [optimize_allocation(r, cfg, "mrc").se_star for r in (0.01, 0.1, 1.0)]
        assert ses_p[0] < ses_p[1] < ses_p[2]
        rho = 0.1
        ses_m = [
            optimize_allocation(rho, SystemConfig(M=m, K=4, tau=4, T=100), "mrc").se_star
            for m in (16, 64, 256)
        ]
        assert ses_m[0] < ses_m[1] < ses_m[2]


class TestPowerScaling:
    def test_zero_energy(self):
        cfg = SystemConfig(M=1, K=8, tau=8, T=200, rho_p=10.0)
        assert power_scaling_limit("I", cfg, 0.0) == 0.0
        assert power_scaling_limit("II", cfg, 0.0) == 0.0

    def test_case1_reference_value(self):
        cfg = SystemConfig(M=1, K=8, tau=8, T=200, rho_p=10.0)
        assert power_scaling_limit("I", cfg, 1.0) == pytest.approx(3.73, abs=0.005)

    def test_case2_formula(self):
        cfg = SystemConfig(M=1, K=8, tau=8, T=200)
        expect = 0.96 * 8 * np.log2(1 + 4 / np.pi**2 * 8)
        assert power_scaling_limit("II", cfg, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_unknown_case(self):
        cfg = SystemConfig(M=1, K=8, tau=8)
        with pytest.raises(ValueError):
            power_scaling_limit("III", cfg, 1.0)

    def test_finite_m_converges_to_limits(self):
        K = tau = 8
        T = 200
        E_u = 0.1
        pref = (T - tau) / T * K
        lim_cfg = SystemConfig(M=1, K=K, tau=tau, T=T, rho_p=10.0)
        lim1 = power_scaling_limit("I", lim_cfg, E_u)
        lim2 = power_scaling_limit("II", lim_cfg, E_u)
        M = 10**5
        c1 = SystemConfig(M=M, K=K, tau=tau, T=T, rho_p=10.0, rho_d=E_u / M)
        r = E_u / np.sqrt(M)
        c2 = SystemConfig(M=M, K=K, tau=tau, T=T, rho_p=r, rho_d=r)
        for closed in (rate_mrc_closed, rate_zf_closed):
            assert pref * closed(c1) == pytest.approx(lim1, rel=0.01)
            assert pref * closed(c2) == pytest.approx(lim2, rel=0.01)


class TestBitEnergy:
    def _alloc(self, rho_p, rho_d, tau=8, T=200, se=10.0):
        return AllocationSolution(
            gamma_star=0.5,
            tau_star=tau,
            rho_p_star=rho_p,
            rho_d_star=rho_d,
            se_star=se,
            receiver="mrc",
            system="one-bit",
            T=T,
            P=tau * rho_p + (T - tau) * rho_d,
        )

    def test_linearity_in_power(self):
        a = self._alloc(1.0, 0.5)
        b = self._alloc(2.0, 1.0)
        assert bit_energy(b, 10.0) == pytest.approx(2 * bit_energy(a, 10.0))

    def test_zero_se_costs_inf_and_negative_or_nan_se_raises(self):
        # fig6 writes inf for an SE of 0 as well
        assert bit_energy(self._alloc(1.0, 0.5), 0.0) == np.inf
        assert bit_energy(self._alloc(1.0, 0.5, se=0.0)) == np.inf
        for se in (-1e-300, -1.0, np.nan):
            with pytest.raises(ValueError, match="spectral efficiency must be >= 0"):
                bit_energy(self._alloc(1.0, 0.5), se)
        with pytest.raises(ValueError, match="spectral efficiency must be >= 0"):
            bit_energy(self._alloc(1.0, 0.5, se=np.nan))

    @pytest.mark.parametrize("rho_db", [-10, 0])
    def test_fig6_optimal_zeta_is_bit_energy_of_the_optimum(self, rho_db):
        # figbench's design config of fig6: one definition of energy per bit,
        # and both zeta cells divide the budget of the same solution
        row = fig6_bit_energy({"m": 128, "k": 8, "t": 50, "rho_db": rho_db}, 1, 0)
        rho = db_to_linear(rho_db)
        cfg = SystemConfig(M=128, K=8, tau=8, T=50)
        for rec in ("mrc", "zf"):
            sol = optimize_allocation(rho, cfg, rec)
            assert row[f"sumse_optimal_{rec}"] == sol.se_star
            assert row[f"zeta_optimal_{rec}"] == bit_energy(sol)
            se_b = row[f"sumse_benchmark_{rec}"]
            assert row[f"zeta_benchmark_{rec}"] == bit_energy(sol, se_b)

    def test_units(self):
        # tau*rho_p + (T-tau)*rho_d = 8 + 96 = 104 units of energy over 10 bits/s/Hz
        assert bit_energy(self._alloc(1.0, 0.5), 10.0) == pytest.approx(10.4)

    def test_optimal_beats_benchmark_at_equal_se(self):
        # find the budgets at which each strategy reaches the target SE; the
        # optimized allocation needs less power, hence lower bit energy
        cfg = SystemConfig(M=128, K=8, tau=8, T=200)
        target = 10.0

        def bench_se(rho):
            c = SystemConfig(M=128, K=8, tau=8, T=200, rho_p=rho, rho_d=rho)
            return 0.96 * 8 * rate_mrc_closed(c)

        def opt_se(rho):
            return optimize_allocation(rho, cfg, "mrc").se_star

        def solve(f):
            lo, hi = 1e-4, 10.0
            for _ in range(60):
                mid = np.sqrt(lo * hi)
                if f(mid) < target:
                    lo = mid
                else:
                    hi = mid
            return hi

        rho_bench = solve(bench_se)
        rho_opt = solve(opt_se)
        assert rho_opt < rho_bench
        zeta_bench = rho_bench * 200 / target
        zeta_opt = rho_opt * 200 / target
        assert zeta_opt <= zeta_bench


class TestAntennaRatio:
    def test_benchmark_mrc_is_pi2_over_4(self):
        # at tau = K, rho_p = rho_d the MRC ratio is pi^2/4 at every SNR
        cfg = SystemConfig(M=128, K=8, tau=8, T=200)
        for rho_db in (-20.0, -5.0):
            rho = 10 ** (rho_db / 10)
            kappa = antenna_ratio(rho, cfg, "mrc", mode="benchmark")
            assert kappa == pytest.approx(np.pi**2 / 4, abs=0.01)

    def test_zf_high_snr_ratio_large(self):
        cfg = SystemConfig(M=128, K=8, tau=8, T=200)
        rho = 10.0
        kappa = antenna_ratio(rho, cfg, "zf", mode="benchmark")
        assert kappa > 4 or np.isinf(kappa)

    def test_unreachable_target_reports_inf(self, monkeypatch):
        monkeypatch.setattr(allocation, "_M_MAX_FACTOR", 2.0)
        cfg = SystemConfig(M=128, K=8, tau=8, T=200)
        rho = 10.0
        kappa = antenna_ratio(rho, cfg, "zf", mode="benchmark")
        assert np.isinf(kappa)

    def test_bad_mode(self):
        cfg = SystemConfig(M=16, K=2, tau=2, T=50)
        with pytest.raises(ValueError):
            antenna_ratio(1.0, cfg, "mrc", mode="exact")


def test_optimize_numeric_matches_public_wrapper():
    rho = 0.05
    cfg = SystemConfig(M=96, K=6, tau=6, T=150)
    sol = optimize_allocation(rho, cfg, "zf")
    se, gamma, tau = _optimize_numeric(rho * 150, 150, 96, 6, "zf", "one-bit")
    assert sol.se_star == se and sol.tau_star == tau and sol.gamma_star == gamma


# The scalar solver the vectorized one replaced, kept as its reference: one
# scalar golden-section search per tau, each step one scalar SE evaluation.
def _ref_se(gamma, tau, P, T, M, K, receiver, system):
    if tau == T:
        return 0.0
    rho_p = gamma * P / tau
    rho_d = (1.0 - gamma) * P / (T - tau)
    sinr = _sinr(rho_p, rho_d, tau, M, K, receiver, system)
    return float((T - tau) / T * K * np.log2(1.0 + sinr))


def _ref_golden_max(f, lo, hi, tol=1e-6):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


_REF_GRID = np.linspace(0.0, 1.0, 202)[1:-1]


def _ref_optimize(P, T, M, K, receiver, system, prescan=False):
    """Best (se, gamma, tau) by one scalar search per tau; ties keep the first.

    Each search runs on the shared bracket (1e-9, 1 - 1e-9), or, with
    prescan, on the bracket around the best point of a 200-point gamma grid,
    as the solver did before the SE was shown unimodal in gamma.
    """
    best = (-np.inf, 0.5, int(K))
    for tau in range(int(K), int(T) + 1):

        def f(g):
            return _ref_se(g, tau, P, T, M, K, receiver, system)

        lo, hi = 1e-9, 1.0 - 1e-9
        if prescan:
            step = _REF_GRID[1] - _REF_GRID[0]
            g0 = _REF_GRID[int(np.argmax([f(g) for g in _REF_GRID]))]
            lo, hi = max(g0 - step, lo), min(g0 + step, hi)
        g_star, se = _ref_golden_max(f, lo, hi)
        if se > best[0]:
            best = (se, g_star, tau)
    return best


def _closed_form_se(P, T, M, K, receiver, system):
    """Best sum SE over tau in [K, T) at the closed-form power split.

    At each tau the SINR is A*g*(1 - g)/D(g) with D(g) = (1 + a*(1 - g))*(1 + b*g)
    (1 + a*(1 - g) + b*g for conventional ZF), a = K*P/(T - tau) and
    b = P*(2/pi + (1 - 2/pi)*K/tau) one-bit or P conventional. Either D puts
    the maximum at g* = sqrt(D(0))/(sqrt(D(0)) + sqrt(D(1))).
    """
    taus = np.arange(K, T, dtype=float)
    a = K * P / (T - taus)
    b = P * (2.0 / np.pi + (1.0 - 2.0 / np.pi) * K / taus) if system == "one-bit" else P
    d0, d1 = np.sqrt(1.0 + a), np.sqrt(1.0 + b)
    return float(np.max(_se_direct(d0 / (d0 + d1), taus, P, T, M, K, receiver, system)))


class TestUnimodalInGamma:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        K=st.integers(1, 8),
        extra_t=st.integers(1, 120),
        m=st.floats(0.5, 400.0),
        log_p=st.floats(-2.0, 3.0),
        receiver=st.sampled_from(["mrc", "zf"]),
        system=st.sampled_from(["one-bit", "conventional"]),
    )
    def test_one_search_per_tau_finds_the_closed_form_optimum(
        self, K, extra_t, m, log_p, receiver, system
    ):
        # why a single golden section on (0, 1) suffices: at every tau the SE
        # has one local maximum in gamma, and the search reaches the optimum
        T = K + extra_t
        M = K + m if receiver == "zf" else m
        P = 10**log_p
        taus = np.arange(K, T, dtype=float)
        grid = np.linspace(0.0, 1.0, 2002)[1:-1]
        vals = _se_direct(grid, taus[:, None], P, T, M, K, receiver, system)
        step = np.diff(vals, axis=1)
        noise = 1e-13 * vals.max(axis=1, keepdims=True)
        fallen = np.cumsum(step < -noise, axis=1) > 0
        assert not (fallen & (step > noise)).any()  # no rise after a fall
        se = _optimize_numeric(P, T, M, K, receiver, system)[0]
        best = _closed_form_se(P, T, M, K, receiver, system)
        assert (1.0 - 1e-8) * best <= se <= (1.0 + 1e-13) * best


class TestVectorizedScan:
    @settings(max_examples=60, deadline=None)
    @given(
        K=st.integers(1, 8),
        extra_t=st.integers(0, 120),
        m=st.floats(0.5, 400.0),
        log_p=st.floats(-2.0, 3.0),
        receiver=st.sampled_from(["mrc", "zf"]),
        system=st.sampled_from(["one-bit", "conventional"]),
    )
    def test_matches_scalar_reference(self, K, extra_t, m, log_p, receiver, system):
        # extra_t = 0 is K = T
        T = K + extra_t
        M = K + m if receiver == "zf" else m
        args = (10**log_p, T, M, K, receiver, system)
        se, gamma, tau = _optimize_numeric(*args)
        ref_se, ref_gamma, ref_tau = _ref_optimize(*args)
        assert tau == ref_tau
        assert gamma == pytest.approx(ref_gamma, rel=1e-12, abs=0.0)
        assert se == pytest.approx(ref_se, rel=1e-12, abs=0.0)
        # the grid-seeded searches reach the same SE up to their tolerance
        prescan_se = _ref_optimize(*args, prescan=True)[0]
        assert se == pytest.approx(prescan_se, rel=1e-8, abs=0.0)

    def test_array_tau_equals_scalar_calls(self):
        T, K = 40, 4
        taus = np.arange(K, T + 1)
        gamma = np.linspace(0.01, 0.99, 7)
        for receiver in ("mrc", "zf"):
            for system in ("one-bit", "conventional"):
                args = (25.0, T, 64, K, receiver, system)
                grid = _se_direct(gamma, taus[:, None], *args)
                paired = _se_direct(gamma[3], taus, *args)
                assert grid.shape == (taus.size, gamma.size)
                for i, tau in enumerate(taus):
                    row = _se_direct(gamma, int(tau), *args)
                    assert np.array_equal(grid[i], row)
                    assert paired[i] == _se_direct(float(gamma[3]), int(tau), *args)
                    assert paired[i] == _ref_se(float(gamma[3]), int(tau), *args)
                assert np.all(grid[-1] == 0.0) and paired[-1] == 0.0
                assert not np.signbit(grid[-1]).any() and not np.signbit(paired[-1])
                assert np.all(grid[:-1] > 0.0)

    def test_array_brackets_step_like_scalar_search(self):
        # each search must take exactly the scalar search's steps on the
        # shared bracket, whichever side its peak lies
        rng = np.random.default_rng(5)
        peak = rng.uniform(0.0, 1.0, size=12)
        xs, fs = _golden_max(lambda x: -(x - peak) * (x - peak))
        for i, p in enumerate(peak):
            x, f = _ref_golden_max(lambda x: -(x - p) * (x - p), 1e-9, 1.0 - 1e-9)
            assert xs[i] == x and fs[i] == f

    def test_scalar_bracket_returns_floats(self):
        x, f = _golden_max(lambda x: -((x - 0.3) ** 2))
        assert type(x) is float and type(f) is float
        assert x == pytest.approx(0.3, abs=1e-6)

    @pytest.mark.parametrize(
        "args",
        [
            (20.0, 200, 128, 8, "zf", "one-bit"),
            (20.0, 200, 4, 8, "mrc", "one-bit"),  # M <= K, MRC
            (20.0, 8, 128, 8, "mrc", "conventional"),  # K = T
        ],
    )
    def test_returns_float_float_int(self, args):
        se, gamma, tau = _optimize_numeric(*args)
        assert (type(se), type(gamma), type(tau)) == (float, float, int)

    def test_ties_go_to_smallest_tau(self):
        # with no energy every tau gives SE 0; the scalar loop kept the first
        args = (0.0, 30, 64, 4, "mrc", "one-bit")
        assert _optimize_numeric(*args) == _ref_optimize(*args)
        assert _optimize_numeric(*args)[2] == _ref_optimize(*args, prescan=True)[2] == 4

    @pytest.mark.parametrize("M", [4, 8])
    def test_zf_needs_more_antennas_than_users(self, M):
        with pytest.raises(ValueError, match="M > K"):
            _optimize_numeric(20.0, 200, M, 8, "zf", "one-bit")

    def test_empty_training_range_rejected(self):
        # T = 4 < K = 8 used to return (-inf, 0.5, 8): tau* > T with -inf SE
        with pytest.raises(ValueError, match="empty training range"):
            _optimize_numeric(4.0, 4, 128, 8, "mrc", "one-bit")

    def test_one_solve_evaluates_se_in_few_array_calls(self, monkeypatch):
        # the per-tau scalar loop made about 4,600 calls at T = 200
        calls = []
        se_direct = allocation._se_direct

        def counted(*args):
            calls.append(1)
            return se_direct(*args)

        monkeypatch.setattr(allocation, "_se_direct", counted)
        _optimize_numeric(20.0, 200, 128, 8, "mrc", "one-bit")
        assert 0 < len(calls) < 100


@pytest.mark.parametrize("fn", [se_at_allocation, se_surface])
@pytest.mark.parametrize("M", [4, 8])
def test_zf_surface_needs_more_antennas_than_users(fn, M):
    # se_at_allocation returned -0.667 for M = 4: the ZF SINR has an M - K factor
    cfg = SystemConfig(M=M, K=8, tau=8, T=100)
    with pytest.raises(ValueError, match=rf"^ZF closed form needs M > K, got M={M}, K=8$"):
        fn(0.5, 10, 0.1, cfg, "zf")
    with pytest.raises(ValueError) as closed:
        rate_zf_closed(cfg)
    with pytest.raises(ValueError) as surface:
        fn(0.5, 10, 0.1, cfg, "zf")
    assert str(surface.value) == str(closed.value)


@pytest.mark.parametrize("mode", ["benchmark", "optimized"])
@pytest.mark.parametrize("M", [6, 8])
def test_antenna_ratio_needs_more_antennas_than_users(mode, M):
    # the benchmark mode returned kappa = 1.333 at M = 6 and 1.000000000125
    # at M = 8, from a conventional ZF SE whose M - K factor is <= 0
    cfg = SystemConfig(M=M, K=8, tau=8, T=200)
    with pytest.raises(ValueError, match=rf"^ZF closed form needs M > K, got M={M}, K=8$"):
        antenna_ratio(0.1, cfg, "zf", mode=mode)


# every gamma rule edge: NaN, +-inf, 0, 1, subnormals and the floats next to 0 and 1
_GAMMA = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 5e-324, 1.0 - 2**-53]),
    st.floats(1e-6, 1.0 - 1e-6),
)


def _argument_error(gamma, tau, M, K, T, receiver):
    """The message of the first argument rule that is broken, or None."""
    if not K <= tau <= T:
        return f"tau must be an integer in [K, T], got {tau}"
    if not all(0.0 < g < 1.0 for g in np.ravel(gamma)):
        return "gamma must lie strictly inside (0, 1)"
    if receiver == "zf" and M <= K:
        return f"ZF closed form needs M > K, got M={M}, K={K}"
    return None


class TestArgumentPolicy:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        K=st.integers(1, 16),
        extra_t=st.integers(0, 60),
        data=st.data(),
        gamma=st.one_of(_GAMMA, st.lists(_GAMMA, min_size=1, max_size=3)),
        log_rho=st.floats(-3.0, 2.0),
        receiver=st.sampled_from(["mrc", "zf"]),
    )
    def test_entry_points_share_one_argument_policy(
        self, K, extra_t, data, gamma, log_rho, receiver
    ):
        # se_at_allocation and se_surface check tau, then gamma, then M > K
        # for ZF, and raise the same message for the first rule broken;
        # otherwise the two forms agree
        T = K + extra_t
        tau = data.draw(
            st.one_of(st.sampled_from([K - 1, K, T, T + 1]), st.integers(K - 2, T + 2)),
            label="tau",
        )
        M = data.draw(st.one_of(st.integers(max(1, K - 2), K + 2), st.integers(1, 400)), label="M")
        rho = 10**log_rho
        cfg = SystemConfig(M=M, K=K, tau=K, T=T)
        want = _argument_error(gamma, tau, M, K, T, receiver)
        if want is not None:
            for fn in (se_at_allocation, se_surface):
                with pytest.raises(ValueError) as err:
                    fn(gamma, tau, rho, cfg, receiver)
                assert str(err.value) == want
            return
        direct = se_at_allocation(gamma, tau, rho, cfg, receiver)
        surface = se_surface(gamma, tau, rho, cfg, receiver)
        assert np.all(np.isfinite(direct)) and np.all(np.isfinite(surface))
        g = np.asarray(gamma)
        if np.all((g >= 1e-6) & (g <= 1.0 - 1e-6)):
            assert np.allclose(surface, direct, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("fn", [se_at_allocation, se_surface])
    @pytest.mark.parametrize("gamma", [math.nan, [0.5, math.nan]])
    def test_nan_gamma_raises(self, fn, gamma):
        # (gamma <= 0) | (gamma >= 1) is False for NaN, so NaN used to pass the
        # check and give a NaN sum SE
        rho = 0.1
        cfg = SystemConfig(M=32, K=4, tau=10, T=100)
        with pytest.raises(ValueError, match=r"^gamma must lie strictly inside \(0, 1\)$"):
            fn(gamma, 10, rho, cfg)

    @pytest.mark.parametrize("fn", [se_at_allocation, se_surface])
    def test_gamma_rule_reported_before_the_zf_rule(self, fn):
        cfg = SystemConfig(M=6, K=8, tau=8, T=100)
        with pytest.raises(ValueError, match=r"^gamma must lie"):
            fn(1.0, 10, 0.1, cfg, "zf")


class TestPowerArgument:
    # the allocation layer takes the average power rho and reads M, K and T
    # from its SystemConfig; a PowerBudget(rho, T) beside the config used to
    # hold a second T, and optimize_allocation solved for that T unchecked
    CFG = SystemConfig(M=32, K=4, tau=10, T=100)

    def test_nonpositive_or_nonfinite_rho_raises(self):
        cfg = self.CFG
        for rho in (0.0, -0.0, -1e-300, -1.0, math.inf, -math.inf, math.nan):
            calls = [
                lambda: se_at_allocation(0.5, 10, rho, cfg),
                lambda: se_surface(0.5, 10, rho, cfg),
                lambda: optimize_allocation(rho, cfg),
                lambda: antenna_ratio(rho, cfg, "mrc", mode="benchmark"),
                lambda: antenna_ratio(rho, cfg, "mrc", mode="optimized"),
            ]
            for call in calls:
                with pytest.raises(ValueError, match=r"^rho must be finite and > 0, got "):
                    call()

    def test_energy_is_rho_times_t(self):
        for T in (100, 200):
            cfg = dataclasses.replace(self.CFG, T=T)
            sol = optimize_allocation(0.1, cfg)
            assert sol.T == T and sol.P == 0.1 * T
            assert sol.se_star == _optimize_numeric(0.1 * T, T, 32, 4, "mrc", "one-bit")[0]
            spent = sol.tau_star * sol.rho_p_star + (T - sol.tau_star) * sol.rho_d_star
            assert spent == pytest.approx(sol.P, rel=1e-12)

    def test_solvers_ignore_the_configs_allocation(self):
        # cfg.tau, cfg.rho_p and cfg.rho_d are the allocation being replaced
        other = dataclasses.replace(self.CFG, tau=50, rho_p=7.0, rho_d=0.0)
        assert optimize_allocation(0.1, other) == optimize_allocation(0.1, self.CFG)
        assert se_at_allocation(0.3, 12, 0.1, other) == se_at_allocation(0.3, 12, 0.1, self.CFG)
        assert se_surface(0.3, 12, 0.1, other) == se_surface(0.3, 12, 0.1, self.CFG)
        for mode in ("benchmark", "optimized"):
            a, b = (antenna_ratio(0.1, c, "mrc", mode=mode) for c in (other, self.CFG))
            assert a == b


class TestIntegralTau:
    @pytest.mark.parametrize("fn", [se_at_allocation, se_surface])
    @pytest.mark.parametrize(
        "tau",
        [10.5, 10.0, np.float64(10.0), True, np.array(10), np.array([10, 11]), [10]],
        ids=["half", "float", "np-float", "bool", "0-d-array", "array", "list"],
    )
    def test_non_integral_tau_raises_the_tau_message(self, fn, tau):
        # tau = 10.5 returned an SE (2.4512), and an array tau failed inside the
        # chained comparison with numpy's "truth value of an array" message
        cfg = SystemConfig(M=32, K=1, tau=10, T=100)
        with pytest.raises(ValueError, match=r"^tau must be an integer in \[K, T\], got "):
            fn(0.5, tau, 0.1, cfg)

    @pytest.mark.parametrize("fn", [se_at_allocation, se_surface])
    def test_numpy_integer_tau_equals_int_tau(self, fn):
        cfg = SystemConfig(M=32, K=4, tau=10, T=100)
        for tau in (np.int64(10), np.int32(10), np.uint16(10)):
            assert fn(0.5, tau, 0.1, cfg) == fn(0.5, 10, 0.1, cfg)


class TestAntennaRatioDomain:
    @pytest.mark.parametrize("M", [0, -3, math.nan, math.inf])
    def test_conventional_array_is_a_valid_config(self, M):
        # a separate M_conv gave ZeroDivisionError at 0, kappa = -0.33 at -3 and
        # nan at NaN; cfg.M is now the conventional array, checked by SystemConfig
        with pytest.raises(ValueError, match=r"^M must be finite and >= 1, got "):
            antenna_ratio(0.1, SystemConfig(M=M, K=8, tau=8, T=200), "mrc")

    @pytest.mark.parametrize("mode", ["benchmark", "optimized"])
    def test_search_bound_must_be_finite(self, mode):
        # the doubling search compared M_one against an inf bound and wrote kappa = inf
        cfg = SystemConfig(M=1.7e308, K=8, tau=8, T=50)
        message = r"^the search for M_one runs up to 100000 \* M_conv, which is not finite"
        with pytest.raises(ValueError, match=message):
            antenna_ratio(0.1, cfg, "mrc", mode=mode)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        K=st.sampled_from([1, 2, 8]),
        m=st.one_of(st.sampled_from([1, 2, 64, 10**6]), st.floats(0.5, 1e4)),
        extra_t=st.integers(1, 12),
        rho_db=st.one_of(st.sampled_from([-300.0, 300.0]), st.floats(-300.0, 300.0)),
        receiver=st.sampled_from(["mrc", "zf"]),
        mode=st.sampled_from(["benchmark", "optimized"]),
    )
    def test_kappa_is_positive_or_inf(self, K, m, extra_t, rho_db, receiver, mode):
        M = K + m if receiver == "zf" else max(m, 1)
        cfg = SystemConfig(M=M, K=K, tau=K, T=K + extra_t)
        kappa = antenna_ratio(db_to_linear(rho_db), cfg, receiver, mode=mode)
        assert kappa > 0.0  # inf passes, nan fails
