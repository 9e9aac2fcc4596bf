import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit_mimo import (
    ReceiverMoments,
    SystemConfig,
    alpha_d,
    conventional_rates,
    dft_pilots,
    ergodic_rate_mc,
    mrc_matrix,
    one_bit_quantize,
    rate_lemma1,
    rate_mrc_closed,
    rate_zf_closed,
    sum_se,
    training_signal,
    zf_matrix,
)
from onebit_mimo import mc, rates
from onebit_mimo.channel import crandn, unvec, vec
from onebit_mimo.estimators import blmmse_fast, blmmse_filter
from onebit_mimo.mc import run_blocks, trial_stacks
from onebit_mimo.quantize import UNCORR_NOISE_VAR, alpha_p, quantizer_noise_cov
from onebit_mimo.rates import _sum_se, mrc_moments, zf_moments


class TestCombiners:
    def test_zf_inverts_channel(self):
        rng = np.random.default_rng(0)
        H = crandn(rng, 16, 4)
        assert np.allclose(zf_matrix(H) @ H, np.eye(4), atol=1e-10)

    def test_mrc_equals_zf_for_orthonormal_columns(self):
        rng = np.random.default_rng(1)
        Q, _ = np.linalg.qr(crandn(rng, 16, 4))
        assert np.allclose(mrc_matrix(Q), zf_matrix(Q), atol=1e-10)

    def test_single_user_proportional(self):
        rng = np.random.default_rng(2)
        h = crandn(rng, 8, 1)
        w_m = mrc_matrix(h)
        w_z = zf_matrix(h)
        ratio = w_m[0, 0] / w_z[0, 0]
        assert np.allclose(w_m, ratio * w_z, atol=1e-12)
        assert ratio.real > 0 and abs(ratio.imag) < 1e-12


def _zf_policy(H):
    """What zf_matrix's rank policy gives a stack: (flagged, G, H^H)."""
    Hh = np.swapaxes(H.conj(), -1, -2)
    G = Hh @ H
    lam = np.linalg.eigvalsh(G)
    return lam[..., 0] <= rates._ZF_RCOND * lam[..., -1], G, Hh


def _min_norm_combiner(G, Hh):
    return np.linalg.pinv(G, rtol=rates._ZF_RCOND, hermitian=True) @ Hh


class TestSingularZf:
    @staticmethod
    def _stack_with_singular_trials():
        # trials 1 and 3 have collinear columns of small Gaussian integers, so
        # their Gram matrices are exactly singular in floating point
        H = crandn(np.random.default_rng(5), 5, 3, 2)
        H[1] = [[1 + 1j, 2 + 2j], [1 - 1j, 2 - 2j], [-1j, -2j]]
        H[3] = [[2, 2], [1 - 3j, 1 - 3j], [-1, -1]]
        return H

    def test_singular_trials_get_the_pseudo_inverse(self):
        H = self._stack_with_singular_trials()
        flagged, G, Hh = _zf_policy(H)
        np.testing.assert_array_equal(flagged, [False, True, False, True, False])
        W = zf_matrix(H)
        np.testing.assert_array_equal(W[flagged], _min_norm_combiner(G[flagged], Hh[flagged]))
        for t in (1, 3):
            np.testing.assert_allclose(W[t], np.linalg.pinv(H[t]), rtol=0, atol=1e-15)
            # the minimum-norm combiner still satisfies W H W = W
            np.testing.assert_allclose(W[t] @ H[t] @ W[t], W[t], atol=1e-12)
        assert np.all(np.isfinite(W))

    def test_other_trials_keep_their_bytes(self):
        H = self._stack_with_singular_trials()
        keep = [0, 2, 4]
        Hh = np.swapaxes(H[keep].conj(), 1, 2)
        np.testing.assert_array_equal(zf_matrix(H)[keep], np.linalg.solve(Hh @ H[keep], Hh))
        # a stack without a singular trial takes the stacked solve alone
        np.testing.assert_array_equal(zf_matrix(H[keep]), np.linalg.solve(Hh @ H[keep], Hh))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.swapaxes(H.conj(), 1, 2) @ H, np.swapaxes(H.conj(), 1, 2))

    def test_single_singular_matrix(self):
        H = self._stack_with_singular_trials()[1]
        flagged, G, Hh = _zf_policy(H)
        assert flagged
        np.testing.assert_array_equal(zf_matrix(H), _min_norm_combiner(G, Hh))

    def test_rate_with_singular_trials_is_finite(self, monkeypatch):
        # M = 3, K = 2 at 30 dB: one-bit estimates with collinear columns
        calls = []
        pinv = np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv", lambda a, **kw: calls.append(1) or pinv(a, **kw))
        cfg = SystemConfig(M=3, K=2, tau=2, rho_p=1000.0, rho_d=1000.0)
        rep = ergodic_rate_mc(cfg, "zf", 100, 0)
        assert calls
        assert np.all(np.isfinite(rep.per_user_rate)) and np.isfinite(rep.stderr)


def _recorded_zf_rate(monkeypatch, cfg, n_trials, seed):
    """ergodic_rate_mc(cfg, 'zf') and the (H_hat, W^T) stacks its combiner saw."""
    seen = []

    def recording(H_hat):
        W = zf_matrix(H_hat)
        seen.append((H_hat, W))
        return W

    monkeypatch.setattr(rates, "zf_matrix", recording)
    return ergodic_rate_mc(cfg, "zf", n_trials, seed), seen


def _assert_policy_taken(seen):
    """Each flagged trial has the minimum-norm combiner and each other trial
    the stacked solve, bit for bit; returns the number flagged."""
    n_flagged = 0
    for H_hat, W in seen:
        flagged, G, Hh = _zf_policy(H_hat)
        np.testing.assert_array_equal(W[flagged], _min_norm_combiner(G[flagged], Hh[flagged]))
        np.testing.assert_array_equal(W[~flagged], np.linalg.solve(G[~flagged], Hh[~flagged]))
        n_flagged += int(flagged.sum())
    return n_flagged


class TestZfRankPolicy:
    # M = 3, K = 2 at 30 dB: one-bit estimates with (nearly) collinear
    # columns; the flagged trials are those with cond(G) > 1e12, and the
    # nearest other trial has cond(G) < 1e3
    @pytest.mark.parametrize("tau, n_singular", [(2, 17), (3, 4), (4, 4)])
    def test_flagged_trials_take_the_minimum_norm_combiner(self, monkeypatch, tau, n_singular):
        cfg = SystemConfig(M=3, K=2, tau=tau, rho_p=1000.0, rho_d=1000.0)
        rep, seen = _recorded_zf_rate(monkeypatch, cfg, 300, 0)
        assert _assert_policy_taken(seen) == n_singular
        G = np.concatenate([_zf_policy(H_hat)[1] for H_hat, _ in seen])
        s = np.linalg.svd(G, compute_uv=False)
        assert np.sum(s[:, -1] < 1e-12 * s[:, 0]) == n_singular
        assert np.sum(s[:, -1] < 1e-3 * s[:, 0]) == n_singular
        assert np.all(np.isfinite(rep.per_user_rate)) and np.isfinite(rep.stderr)

    @pytest.mark.parametrize("M, K, tau", [(1, 2, 2), (2, 4, 4), (2, 3, 5)])
    def test_fewer_antennas_than_users(self, monkeypatch, M, K, tau):
        # every Gram matrix has rank M < K, so every trial is flagged
        cfg = SystemConfig(M=M, K=K, tau=tau, T=50, rho_p=0.3, rho_d=0.5)
        rep, seen = _recorded_zf_rate(monkeypatch, cfg, 300, (9, tau))
        assert _assert_policy_taken(seen) == 300
        assert np.all(np.isfinite(rep.per_user_rate)) and np.isfinite(rep.stderr)
        per_user, stderr = _ref_ergodic_rate_mc(cfg, "zf", 300, (9, tau))
        np.testing.assert_allclose(rep.per_user_rate, per_user, rtol=1e-12, atol=0.0)
        assert rep.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)


class TestSumSe:
    def test_full_training_interval(self):
        cfg = SystemConfig(M=4, K=2, tau=10, T=10)
        assert sum_se(np.ones(2), cfg) == 0.0

    def test_identical_rates(self):
        cfg = SystemConfig(M=4, K=8, tau=8, T=200)
        assert sum_se(np.full(8, 1.5), cfg) == pytest.approx(0.96 * 8 * 1.5)

    def test_tau_lower_bound_guard(self):
        with pytest.raises(ValueError):
            SystemConfig(M=4, K=2, tau=0, T=10)

    def test_closed_form_sum_se_of_a_scalar_is_a_float(self):
        se = _sum_se(3.0, 8, 200, 8)
        assert type(se) is float
        assert se == 0.96 * 8 * 2.0

    def test_closed_form_sum_se_broadcasts_tau_column_against_gamma_row(self):
        sinr = np.array([[0.5, 1.0, 3.0]])
        tau = np.array([[8], [20], [200]])
        se = _sum_se(sinr, tau, 200, 8)
        assert se.shape == (3, 3)
        for i, t in enumerate((8, 20, 200)):
            for j, g in enumerate((0.5, 1.0, 3.0)):
                assert se[i, j] == _sum_se(g, t, 200, 8)
        assert np.all(se[2] == 0.0)  # tau = T: no data symbols
        assert _sum_se(1.0, 200, 200, 8) == 0.0


# closed forms as written out per formula before they became wrappers
def _ref_alpha_d(cfg):
    return np.sqrt(2.0 / np.pi / (cfg.K * cfg.rho_d + 1.0))


def _ref_sigma2(cfg):
    ap2 = 2.0 / np.pi / (cfg.K * cfg.rho_p + 1.0)
    sig = ap2 * cfg.tau * cfg.rho_p
    return sig / (sig + ap2 + UNCORR_NOISE_VAR)


def _ref_rate_mrc_closed(cfg):
    ra2 = cfg.rho_d * _ref_alpha_d(cfg) ** 2
    return float(np.log2(1.0 + ra2 * cfg.M * _ref_sigma2(cfg)))


def _ref_rate_zf_closed(cfg):
    ad2 = _ref_alpha_d(cfg) ** 2
    sig = _ref_sigma2(cfg)
    num = cfg.rho_d * ad2 * sig * (cfg.M - cfg.K)
    den = cfg.rho_d * ad2 * cfg.K * (1.0 - sig) + ad2 + UNCORR_NOISE_VAR
    return float(np.log2(1.0 + num / den))


def _ref_conventional_rate(cfg, M_conv, receiver):
    rp, rd, K, tau = cfg.rho_p, cfg.rho_d, cfg.K, cfg.tau
    if receiver == "mrc":
        sinr = rd * tau * rp * M_conv / ((1.0 + K * rd) * (1.0 + tau * rp))
    else:
        sinr = rd * tau * rp * (M_conv - K) / (K * rd + tau * rp + 1.0)
    return float(np.log2(1.0 + sinr))


class TestClosedFormsMatchReference:
    # the closed forms are wrappers over rates._sinr; the explicit
    # expressions above are the reference they must reproduce
    @settings(max_examples=200, deadline=None)
    @given(
        K=st.integers(1, 16),
        extra_tau=st.integers(0, 40),
        extra_m=st.integers(1, 4000),
        rho_p_db=st.floats(-40.0, 40.0),
        rho_d_db=st.floats(-40.0, 40.0),
    )
    def test_wrappers_match_reference(self, K, extra_tau, extra_m, rho_p_db, rho_d_db):
        cfg = SystemConfig(
            M=K + extra_m,
            K=K,
            tau=K + extra_tau,
            T=K + extra_tau + 1,
            rho_p=10 ** (rho_p_db / 10),
            rho_d=10 ** (rho_d_db / 10),
        )
        pairs = [
            (rate_mrc_closed(cfg), _ref_rate_mrc_closed(cfg)),
            (rate_zf_closed(cfg), _ref_rate_zf_closed(cfg)),
        ]
        for rec in ("mrc", "zf"):
            rep = conventional_rates(cfg, cfg.M, rec)
            pairs.append((rep.per_user_rate[0], _ref_conventional_rate(cfg, cfg.M, rec)))
        for got, want in pairs:
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)


class TestClosedForms:
    def test_zero_power(self):
        cfg = SystemConfig(M=64, K=8, tau=8, rho_p=1.0, rho_d=0.0)
        assert rate_mrc_closed(cfg) == 0.0
        assert rate_zf_closed(cfg) == 0.0

    def test_mrc_reference_value(self):
        cfg = SystemConfig(M=128, K=8, tau=8, rho_p=0.1, rho_d=0.1)
        assert rate_mrc_closed(cfg) == pytest.approx(1.19, abs=0.005)

    def test_doubling_m_adds_one_bit_asymptotically(self):
        def slope(m):
            a = rate_mrc_closed(SystemConfig(M=m, K=8, tau=8, rho_p=0.1, rho_d=0.1))
            b = rate_mrc_closed(
                SystemConfig(M=2 * m, K=8, tau=8, rho_p=0.1, rho_d=0.1)
            )
            return b - a

        assert slope(2**10) == pytest.approx(1.0, abs=0.07)
        assert slope(2**17) == pytest.approx(1.0, abs=1e-3)

    def test_zf_beats_mrc_at_reference_point(self):
        cfg = SystemConfig(M=128, K=8, tau=8, rho_p=0.1, rho_d=0.1)
        assert rate_zf_closed(cfg) >= rate_mrc_closed(cfg)

    def test_zf_minimal_antenna_margin(self):
        cfg = SystemConfig(M=9, K=8, tau=8, rho_p=0.5, rho_d=0.5)
        r = rate_zf_closed(cfg)
        assert np.isfinite(r) and r > 0

    def test_zf_needs_more_antennas_than_users(self):
        cfg = SystemConfig(M=8, K=8, tau=8)
        with pytest.raises(ValueError):
            rate_zf_closed(cfg)

    def test_zf_improves_with_estimate_quality(self):
        # better training shrinks the residual-interference term K*eta
        rates = [
            rate_zf_closed(SystemConfig(M=32, K=8, tau=8, rho_p=r, rho_d=0.1))
            for r in (0.01, 0.1, 1.0, 10.0)
        ]
        assert all(b > a for a, b in zip(rates, rates[1:]))


class TestMomentFormRate:
    def test_matches_mrc_closed_form_exactly(self):
        cfg = SystemConfig(M=64, K=8, tau=8, rho_p=0.2, rho_d=0.3)
        assert rate_lemma1(cfg, mrc_moments(cfg)) == pytest.approx(
            rate_mrc_closed(cfg), rel=1e-13
        )

    def test_matches_zf_closed_form_exactly(self):
        cfg = SystemConfig(M=64, K=8, tau=12, rho_p=0.2, rho_d=0.3)
        assert rate_lemma1(cfg, zf_moments(cfg)) == pytest.approx(
            rate_zf_closed(cfg), rel=1e-13
        )

    def test_zf_moments_share_the_zf_closed_form_check(self):
        cfg = SystemConfig(M=8, K=8, tau=8)
        with pytest.raises(ValueError, match=r"^ZF closed form needs M > K, got M=8, K=8$"):
            zf_moments(cfg)

    def test_zero_gain_gives_zero_rate(self):
        cfg = SystemConfig(M=4, K=2, tau=2, rho_d=1.0)
        m = ReceiverMoments(mean_gain=0.0, gain_var=1.0, interference=1.0, noise_quant=1.0)
        assert rate_lemma1(cfg, m) == 0.0

    def test_monte_carlo_moments_close_to_closed_form(self):
        # empirical MRC moments reproduce the closed form within 2%
        M, K = 64, 8
        cfg = SystemConfig(M=M, K=K, tau=K, rho_p=0.1, rho_d=0.1)
        Phi = dft_pilots(K, K)
        rng = np.random.default_rng(3)
        n = 3000
        gains = np.empty(n, dtype=complex)
        ui = np.empty(n)
        wnorm = np.empty(n)
        for t in range(n):
            H = crandn(rng, M, K)
            r = one_bit_quantize(training_signal(H, Phi, cfg.rho_p, rng))
            Hh = blmmse_fast(r, Phi, cfg).H_hat
            w = Hh[:, 0].conj()  # MRC row for user 0
            gains[t] = w @ H[:, 0]
            ui[t] = np.sum(np.abs(w @ H[:, 1:]) ** 2)
            wnorm[t] = np.sum(np.abs(w) ** 2)
        ra2 = cfg.rho_d * alpha_d(cfg) ** 2
        moments = ReceiverMoments(
            mean_gain=gains.mean(),
            gain_var=float(np.var(gains)),
            interference=ra2 * float(ui.mean()),
            noise_quant=(alpha_d(cfg) ** 2 + UNCORR_NOISE_VAR) * float(wnorm.mean()),
        )
        assert rate_lemma1(cfg, moments) == pytest.approx(
            rate_mrc_closed(cfg), rel=0.02
        )


class TestErgodicRateMc:
    def test_unknown_receiver_is_rejected(self):
        cfg = SystemConfig(M=4, K=2, tau=2)
        with pytest.raises(ValueError, match=r"unknown receiver 'mmse' \(use 'mrc' or 'zf'\)"):
            ergodic_rate_mc(cfg, "mmse", 10)

    @pytest.mark.parametrize("receiver", ["mrc", "zf"])
    def test_combiner_is_looked_up_per_call(self, monkeypatch, receiver):
        # a combiner swapped into the module after import is the one used
        calls = []
        name = f"{receiver}_matrix"
        combine = getattr(rates, name)
        monkeypatch.setattr(rates, name, lambda H: calls.append(1) or combine(H))
        ergodic_rate_mc(SystemConfig(M=4, K=2, tau=2), receiver, 10)
        assert calls

    def test_zero_data_power(self):
        cfg = SystemConfig(M=8, K=2, tau=2, rho_p=1.0, rho_d=0.0)
        rep = ergodic_rate_mc(cfg, "mrc", n_trials=50, seed=0)
        assert np.allclose(rep.per_user_rate, 0.0)
        assert rep.sum_spectral_efficiency == 0.0

    def test_deterministic_and_thread_independent(self):
        cfg = SystemConfig(M=16, K=4, tau=4, rho_p=0.1, rho_d=0.1)
        a = ergodic_rate_mc(cfg, "mrc", n_trials=600, seed=7)
        b = ergodic_rate_mc(cfg, "mrc", n_trials=600, seed=7)
        assert np.array_equal(a.per_user_rate, b.per_user_rate)
        assert a.sum_spectral_efficiency == b.sum_spectral_efficiency

    def test_rate_nondecreasing_in_m(self):
        reports = [
            ergodic_rate_mc(
                SystemConfig(M=m, K=8, tau=8, rho_p=0.1, rho_d=0.1),
                "mrc",
                n_trials=400,
                seed=11,
            )
            for m in (32, 64, 128)
        ]
        ses = [r.sum_spectral_efficiency for r in reports]
        errs = [r.stderr for r in reports]
        assert ses[1] > ses[0] + 2 * (errs[0] + errs[1])
        assert ses[2] > ses[1] + 2 * (errs[1] + errs[2])

    def test_report_invariants(self):
        cfg = SystemConfig(M=16, K=4, tau=4, rho_p=0.1, rho_d=0.1)
        rep = ergodic_rate_mc(cfg, "zf", n_trials=100, seed=1)
        assert np.all(rep.per_user_rate >= 0)
        assert rep.sum_spectral_efficiency == pytest.approx(
            sum_se(rep.per_user_rate, cfg)
        )
        assert rep.method == "mc_lower_bound"

    def test_unknown_receiver(self):
        cfg = SystemConfig(M=4, K=2, tau=2)
        with pytest.raises(ValueError):
            ergodic_rate_mc(cfg, "mmse", n_trials=1, seed=0)

    @pytest.mark.parametrize("n_trials", [0, 1])
    def test_needs_two_trials(self, n_trials):
        cfg = SystemConfig(M=4, K=2, tau=2)
        with pytest.raises(ValueError, match="n_trials must be >= 2"):
            ergodic_rate_mc(cfg, "mrc", n_trials=n_trials, seed=0)


def _ref_ergodic_rate_mc(cfg, receiver, n_trials, seed):
    """ergodic_rate_mc as it ran before trials were stacked: one trial at a
    time, with the dense filter (the closed form at tau = K) and the complex
    quantizer-noise covariance; (per-user, stderr)."""
    combine = mrc_matrix if receiver == "mrc" else zf_matrix
    M, K, tau = cfg.M, cfg.K, cfg.tau
    Phi = dft_pilots(tau, K)
    ad = alpha_d(cfg)
    fast = tau == K
    G = None if fast else blmmse_filter(Phi, cfg)[0]
    ap_rp = alpha_p(cfg) * np.sqrt(cfg.rho_p)
    Phi_conj = Phi.conj()

    def block(rng, n):
        rate_sum = np.zeros(K)
        samples = np.empty(n)
        for t in range(n):
            H = crandn(rng, M, K)
            Y = np.sqrt(cfg.rho_p) * H @ Phi.T + crandn(rng, M, tau)
            R_p = one_bit_quantize(Y)
            if fast:
                H_hat = ap_rp * (R_p @ Phi_conj)
            else:
                H_hat = unvec(G @ vec(R_p), M, K)
            Eps = H - H_hat
            C_qd = quantizer_noise_cov(cfg.rho_d * H @ H.conj().T + np.eye(M))
            WT = combine(H_hat)

            sig = np.abs(WT @ H_hat) ** 2
            desired = cfg.rho_d * ad**2 * np.diagonal(sig)
            interf = cfg.rho_d * ad**2 * (sig.sum(axis=1) - np.diagonal(sig))
            est_err = cfg.rho_d * ad**2 * np.sum(np.abs(WT @ Eps) ** 2, axis=1)
            awgn = ad**2 * np.sum(np.abs(WT) ** 2, axis=1)
            quant = np.real(np.sum((WT @ C_qd) * WT.conj(), axis=1))
            den = interf + est_err + awgn + quant
            sinr = np.divide(desired, den, out=np.zeros(K), where=den > 0)
            rates = np.log2(1.0 + sinr)
            rate_sum += rates
            samples[t] = rates.sum()
        return rate_sum, samples

    results = run_blocks(n_trials, block, seed)
    per_user = sum(r for r, _ in results) / n_trials
    samples = np.concatenate([s for _, s in results])
    pref = (cfg.T - cfg.tau) / cfg.T
    return per_user, pref * float(np.std(samples, ddof=1) / np.sqrt(n_trials))


class TestStackedKernelMatchesPerTrial:
    M = 24  # the stacks do not divide a 256-trial block: the last one is partial

    def test_last_stack_of_a_block_is_partial(self):
        sizes = [s.stop - s.start for s in trial_stacks(256, self.M)]
        assert len(sizes) > 1 and sizes[-1] < sizes[0]
        assert 7 < sizes[0]

    @pytest.mark.parametrize("n_trials", [2, 7, 257])
    @pytest.mark.parametrize("tau", [4, 7])  # tau = K (closed form in the reference) and tau > K
    @pytest.mark.parametrize("receiver", ["mrc", "zf"])
    def test_matches_reference(self, receiver, tau, n_trials):
        cfg = SystemConfig(M=self.M, K=4, tau=tau, T=50, rho_p=0.3, rho_d=0.5)
        got = ergodic_rate_mc(cfg, receiver, n_trials, (9, tau))
        per_user, stderr = _ref_ergodic_rate_mc(cfg, receiver, n_trials, (9, tau))
        np.testing.assert_allclose(got.per_user_rate, per_user, rtol=1e-12, atol=0.0)
        assert got.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)

    def test_combiners_on_stacks_equal_per_matrix_calls(self):
        H = crandn(np.random.default_rng(4), 3, 6, 2)
        for combine in (mrc_matrix, zf_matrix):
            want = np.stack([combine(h) for h in H])
            np.testing.assert_allclose(combine(H), want, rtol=1e-14, atol=1e-15)


class TestStackSizeInvariance:
    # the stack budget decides how trials are grouped, never the numbers
    @pytest.mark.parametrize("tau", [4, 7])
    @pytest.mark.parametrize("receiver", ["mrc", "zf"])
    def test_rates_equal_at_two_budgets(self, monkeypatch, receiver, tau):
        cfg = SystemConfig(M=24, K=4, tau=tau, T=50, rho_p=0.3, rho_d=0.5)
        budgets = (8_192, mc._STACK_ELEMS)  # 14 and 56 trials per stack at M = 24
        assert budgets[0] < budgets[1]
        got = []
        for budget in budgets:
            monkeypatch.setattr(mc, "_STACK_ELEMS", budget)
            got.append(ergodic_rate_mc(cfg, receiver, 257, (3, tau)))
        small, large = got
        assert np.array_equal(large.per_user_rate, small.per_user_rate)
        assert large.stderr == small.stderr


@pytest.mark.parametrize("M", [32, 64, 128, 256])
def test_rate_call_memory_peak(M):
    # traced numpy memory of one rate call (its stacks, the quantizer-noise
    # workspace and the draws); a larger stack budget that would raise the
    # benchmark's resident memory by 10% shows here first
    cfg = SystemConfig(M=M, K=8, tau=8)
    tracemalloc.start()
    try:
        ergodic_rate_mc(cfg, "zf", 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


class TestClosedFormTracksMonteCarlo:
    # sum-SE agreement between the low-SNR closed forms and the MC lower
    # bound across the antenna/SNR grid; tolerances 0.05*K (MRC), 0.08*K (ZF)
    @pytest.mark.parametrize("m", [32, 64, 128])
    def test_mrc_grid(self, m):
        for snr_db in (-20, -10, 0):
            rho = 10 ** (snr_db / 10)
            cfg = SystemConfig(M=m, K=8, tau=8, rho_p=rho, rho_d=rho)
            mc = ergodic_rate_mc(cfg, "mrc", n_trials=400, seed=1000 + m + snr_db)
            closed = 0.96 * 8 * rate_mrc_closed(cfg)
            assert abs(mc.sum_spectral_efficiency - closed) <= 0.05 * 8

    @pytest.mark.parametrize("m", [32, 64, 128])
    def test_zf_grid(self, m):
        # the ZF form keeps the 0.08*K agreement up to about -4 dB; beyond
        # that its low-SNR accuracy contract no longer applies (at 0 dB,
        # M=128 the gap reaches ~1.3 bits/s/Hz)
        for snr_db in (-20, -12, -4):
            rho = 10 ** (snr_db / 10)
            cfg = SystemConfig(M=m, K=8, tau=8, rho_p=rho, rho_d=rho)
            mc = ergodic_rate_mc(cfg, "zf", n_trials=400, seed=2000 + m + snr_db)
            closed = 0.96 * 8 * rate_zf_closed(cfg)
            assert abs(mc.sum_spectral_efficiency - closed) <= 0.08 * 8


class TestConventionalRates:
    def test_zero_power(self):
        cfg = SystemConfig(M=4, K=2, tau=2, rho_p=1.0, rho_d=0.0)
        assert conventional_rates(cfg, 64, "mrc").sum_spectral_efficiency == 0.0

    def test_prefactor(self):
        cfg = SystemConfig(M=4, K=8, tau=8, T=200, rho_p=1.0, rho_d=1.0)
        rep = conventional_rates(cfg, 64, "mrc")
        assert rep.sum_spectral_efficiency == pytest.approx(
            0.96 * 8 * rep.per_user_rate[0]
        )

    def test_low_snr_sinr_ratio_approaches_pi2_over_4(self):
        rho = 1e-4
        K = 8
        cfg = SystemConfig(M=1, K=K, tau=K, rho_p=rho, rho_d=rho)
        M = 64
        sinr_conv = 2 ** conventional_rates(cfg, M, "mrc").per_user_rate[0] - 1
        cfg_m = SystemConfig(M=M, K=K, tau=K, rho_p=rho, rho_d=rho)
        sinr_one = 2 ** rate_mrc_closed(cfg_m) - 1
        assert sinr_conv / sinr_one == pytest.approx(np.pi**2 / 4, abs=0.01)

    def test_zf_needs_margin(self):
        cfg = SystemConfig(M=4, K=8, tau=8)
        with pytest.raises(ValueError):
            conventional_rates(cfg, 8, "zf")
