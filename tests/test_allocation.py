import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit_mimo import (
    AllocationSolution,
    PowerBudget,
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
            budget = PowerBudget(rho=P / T, T=T)
            cfg = SystemConfig(M=M, K=K, tau=tau, T=T)
            for rec in ("mrc", "zf"):
                direct = se_at_allocation(gamma, tau, budget, cfg, rec, "one-bit")
                coeff = se_surface(gamma, tau, budget, cfg, rec)
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
        budget = PowerBudget(rho=10**log_p / T, T=T)
        cfg = SystemConfig(M=K + extra_m, K=K, tau=tau, T=T)
        direct = se_at_allocation(gamma, tau, budget, cfg, receiver, "one-bit")
        coeff = se_surface(gamma, tau, budget, cfg, receiver)
        assert coeff == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_boundary_gamma(self):
        budget = PowerBudget(rho=0.1, T=100)
        cfg = SystemConfig(M=32, K=4, tau=10, T=100)
        assert se_surface(1e-9, 10, budget, cfg, "mrc") < 1e-6
        assert se_surface(1 - 1e-9, 10, budget, cfg, "mrc") < 1e-6
        with pytest.raises(ValueError):
            se_surface(0.0, 10, budget, cfg, "mrc")

    def test_full_training(self):
        budget = PowerBudget(rho=0.1, T=100)
        cfg = SystemConfig(M=32, K=4, tau=4, T=100)
        assert se_surface(0.5, 100, budget, cfg, "mrc") == 0.0

    def test_tau_domain(self):
        budget = PowerBudget(rho=0.1, T=100)
        cfg = SystemConfig(M=32, K=4, tau=4, T=100)
        with pytest.raises(ValueError):
            se_surface(0.5, 2, budget, cfg, "mrc")

    def test_vectorized_gamma(self):
        budget = PowerBudget(rho=0.1, T=100)
        cfg = SystemConfig(M=32, K=4, tau=10, T=100)
        g = np.linspace(0.05, 0.95, 11)
        vals = se_surface(g, 10, budget, cfg, "zf")
        assert vals.shape == (11,)
        assert np.all(vals > 0)


class TestOptimizeAllocation:
    def test_conventional_training_length_is_k(self):
        cfg = SystemConfig(M=128, K=8, tau=8, T=200)
        for rho_db in (-15.0, -6.0, 0.0):
            budget = PowerBudget(rho=10 ** (rho_db / 10), T=200)
            for rec in ("mrc", "zf"):
                sol = optimize_allocation(budget, cfg, rec, system="conventional")
                assert sol.tau_star == 8

    def test_one_bit_training_longer_than_k(self):
        cfg = SystemConfig(M=128, K=8, tau=8, T=200)
        budget = PowerBudget(rho=10 ** (-15 / 10), T=200)
        sol = optimize_allocation(budget, cfg, "mrc")
        assert sol.tau_star > 8

    def test_budget_equality(self):
        cfg = SystemConfig(M=64, K=4, tau=4, T=120)
        budget = PowerBudget(rho=0.05, T=120)
        sol = optimize_allocation(budget, cfg, "zf")
        spent = sol.tau_star * sol.rho_p_star + (sol.T - sol.tau_star) * sol.rho_d_star
        assert spent == pytest.approx(budget.P, rel=1e-9)

    def test_dominates_benchmark_point(self):
        cfg = SystemConfig(M=128, K=8, tau=8, T=200)
        for rho in (0.01, 0.1, 1.0):
            budget = PowerBudget(rho=rho, T=200)
            sol = optimize_allocation(budget, cfg, "mrc")
            bench = se_at_allocation(8 / 200, 8, budget, cfg, "mrc")
            assert sol.se_star >= bench - 1e-12

    def test_dominates_random_feasible_points(self):
        cfg = SystemConfig(M=64, K=4, tau=4, T=100)
        budget = PowerBudget(rho=0.1, T=100)
        sol = optimize_allocation(budget, cfg, "mrc")
        rng = np.random.default_rng(1)
        taus = rng.integers(4, 101, size=200)
        for tau in np.unique(taus):
            gammas = rng.uniform(1e-6, 1 - 1e-6, size=50)
            vals = se_at_allocation(gammas, int(tau), budget, cfg, "mrc")
            assert np.all(vals <= sol.se_star + 1e-9)

    def test_monotone_in_budget_and_antennas(self):
        cfg = SystemConfig(M=64, K=4, tau=4, T=100)
        ses_p = [
            optimize_allocation(PowerBudget(rho=r, T=100), cfg, "mrc").se_star
            for r in (0.01, 0.1, 1.0)
        ]
        assert ses_p[0] < ses_p[1] < ses_p[2]
        budget = PowerBudget(rho=0.1, T=100)
        ses_m = [
            optimize_allocation(
                budget, SystemConfig(M=m, K=4, tau=4, T=100), "mrc"
            ).se_star
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
        # figbench's design config of fig6: one definition of energy per bit
        row = fig6_bit_energy({"m": 128, "k": 8, "t": 50, "rho_db": rho_db}, 1, 0)
        budget = PowerBudget(rho=db_to_linear(rho_db), T=50)
        cfg = SystemConfig(M=128, K=8, tau=8, T=50)
        for rec in ("mrc", "zf"):
            zeta = bit_energy(optimize_allocation(budget, cfg, rec))
            assert row[f"zeta_optimal_{rec}"] == zeta

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
            return optimize_allocation(PowerBudget(rho=rho, T=200), cfg, "mrc").se_star

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
            budget = PowerBudget(rho=10 ** (rho_db / 10), T=200)
            kappa = antenna_ratio(budget, cfg, "mrc", 128, mode="benchmark")
            assert kappa == pytest.approx(np.pi**2 / 4, abs=0.01)

    def test_zf_high_snr_ratio_large(self):
        cfg = SystemConfig(M=128, K=8, tau=8, T=200)
        budget = PowerBudget(rho=10.0, T=200)
        kappa = antenna_ratio(budget, cfg, "zf", 128, mode="benchmark")
        assert kappa > 4 or np.isinf(kappa)

    def test_unreachable_target_reports_inf(self, monkeypatch):
        monkeypatch.setattr(allocation, "_M_MAX_FACTOR", 2.0)
        cfg = SystemConfig(M=128, K=8, tau=8, T=200)
        budget = PowerBudget(rho=10.0, T=200)
        kappa = antenna_ratio(budget, cfg, "zf", 128, mode="benchmark")
        assert np.isinf(kappa)

    def test_bad_mode(self):
        cfg = SystemConfig(M=16, K=2, tau=2, T=50)
        with pytest.raises(ValueError):
            antenna_ratio(PowerBudget(rho=1.0, T=50), cfg, "mrc", 16, mode="exact")


def test_optimize_numeric_matches_public_wrapper():
    budget = PowerBudget(rho=0.05, T=150)
    cfg = SystemConfig(M=96, K=6, tau=6, T=150)
    sol = optimize_allocation(budget, cfg, "zf")
    se, gamma, tau = _optimize_numeric(budget.P, 150, 96, 6, "zf", "one-bit")
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


def _ref_optimize(P, T, M, K, receiver, system):
    grid = np.linspace(0.0, 1.0, 202)[1:-1]
    step = grid[1] - grid[0]
    best = (-np.inf, 0.5, int(K))
    for tau in range(int(K), int(T) + 1):
        vals = [_ref_se(g, tau, P, T, M, K, receiver, system) for g in grid]
        i = int(np.argmax(vals))
        lo = max(grid[i] - step, 1e-9)
        hi = min(grid[i] + step, 1.0 - 1e-9)
        g_star, se = _ref_golden_max(
            lambda g: _ref_se(g, tau, P, T, M, K, receiver, system), lo, hi
        )
        if se > best[0]:
            best = (se, g_star, tau)
    return best


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

    def test_array_tau_keeps_gamma_check(self):
        with pytest.raises(ValueError, match="gamma"):
            _se_direct([0.5, 1.0], np.arange(4, 6), 10.0, 50, 32, 4, "mrc", "one-bit")

    def test_array_brackets_step_like_scalar_search(self):
        # each bracket must take exactly the scalar search's steps, including
        # brackets that converge at different iterations
        rng = np.random.default_rng(5)
        lo = rng.uniform(0.0, 0.5, size=12)
        hi = lo + rng.uniform(1e-7, 0.5, size=12)
        peak = rng.uniform(lo, hi)
        xs, fs = _golden_max(lambda x: -(x - peak) * (x - peak), lo, hi)
        for i in range(lo.size):
            p = peak[i]
            x, f = _ref_golden_max(lambda x: -(x - p) * (x - p), lo[i], hi[i])
            assert xs[i] == x and fs[i] == f

    def test_scalar_bracket_returns_floats(self):
        x, f = _golden_max(lambda x: -((x - 0.3) ** 2), 0.0, 1.0)
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
        assert _optimize_numeric(*args)[2] == 4

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
        fn(0.5, 10, PowerBudget(rho=0.1, T=100), cfg, "zf")
    with pytest.raises(ValueError) as closed:
        rate_zf_closed(cfg)
    with pytest.raises(ValueError) as surface:
        fn(0.5, 10, PowerBudget(rho=0.1, T=100), cfg, "zf")
    assert str(surface.value) == str(closed.value)


@pytest.mark.parametrize("mode", ["benchmark", "optimized"])
@pytest.mark.parametrize("M_conv", [6, 8])
def test_antenna_ratio_needs_more_antennas_than_users(mode, M_conv):
    # the benchmark mode returned kappa = 1.333 at M_conv = 6 and 1.000000000125
    # at M_conv = 8, from a conventional ZF SE whose M - K factor is <= 0
    cfg = SystemConfig(M=M_conv, K=8, tau=8, T=200)
    with pytest.raises(ValueError, match=rf"^ZF closed form needs M > K, got M={M_conv}, K=8$"):
        antenna_ratio(PowerBudget(rho=0.1, T=200), cfg, "zf", M_conv, mode=mode)
