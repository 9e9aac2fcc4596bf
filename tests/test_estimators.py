import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from onebit_mimo import (
    SystemConfig,
    blmmse_fast,
    blmmse_flat,
    dft_pilots,
    estimate_variance,
    estimators,
    ls_estimate,
    mse_closed_form,
    mse_floor,
    nml_estimate,
    one_bit_quantize,
    training_signal,
)
from onebit_mimo.channel import _psd_root, crandn, crandn_trials, laplacian_covariance, unvec, vec
from onebit_mimo.estimators import (
    _LOG_SQRT_2PI,
    _ball_multiplier,
    _bussgang_lmmse,
    _iid_filter,
    _ls_pinv,
    _nml_objective,
    _nml_solve,
    _pilot_model,
    blmmse_filter,
    lmmse_uncorrelated_filter,
)
from onebit_mimo.quantize import arcsine_covariance, bussgang_gain


def _quantized_training(cfg, Phi, seed):
    rng = np.random.default_rng(seed)
    H = crandn(rng, cfg.M, cfg.K)
    r = one_bit_quantize(training_signal(H, Phi, cfg.rho_p, rng))
    return H, r


class TestBlmmseFast:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_general_path(self, seed):
        cfg = SystemConfig(M=8, K=4, tau=4, rho_p=2.5)
        Phi = dft_pilots(4, 4)
        _, r = _quantized_training(cfg, Phi, seed)
        fast = blmmse_fast(r, Phi, cfg).H_hat
        flat = blmmse_flat(r, Phi, cfg).H_hat
        assert np.linalg.norm(fast - flat) / np.linalg.norm(fast) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        M=st.integers(1, 8),
        K=st.integers(1, 4),
        log_rho=st.floats(-2.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_flat_at_tau_k(self, M, K, log_rho, seed):
        # blmmse_flat builds its i.i.d. filter at M = 1 (G_1 kron I_M)
        cfg = SystemConfig(M=M, K=K, tau=K, rho_p=10.0**log_rho)
        Phi = dft_pilots(K, K)
        _, r = _quantized_training(cfg, Phi, seed)
        fast = blmmse_fast(r, Phi, cfg)
        flat = blmmse_flat(r, Phi, cfg)
        err = np.linalg.norm(fast.H_hat - flat.H_hat)
        assert err <= 1e-12 * np.linalg.norm(fast.H_hat)
        assert abs(fast.sigma_sq - flat.sigma_sq) <= 1e-12
        assert abs(fast.mse - flat.mse) <= 1e-12

    def test_requires_square_pilots(self):
        cfg = SystemConfig(M=4, K=2, tau=4)
        Phi = dft_pilots(4, 2)
        with pytest.raises(ValueError):
            blmmse_fast(np.zeros(16), Phi, cfg)

    def test_empirical_mse_matches_closed_form(self):
        cfg = SystemConfig(M=8, K=4, tau=4, rho_p=10.0)
        Phi = dft_pilots(4, 4)
        rng = np.random.default_rng(3)
        tot = 0.0
        n = 4000
        for _ in range(n):
            H = crandn(rng, 8, 4)
            r = one_bit_quantize(training_signal(H, Phi, 10.0, rng))
            tot += np.sum(np.abs(blmmse_fast(r, Phi, cfg).H_hat - H) ** 2)
        emp = tot / (n * 32)
        assert emp == pytest.approx(1 - 80 / (41 * np.pi), abs=0.005)

    def test_estimate_variance_empirical(self):
        # per-element variance of the estimate matches sigma^2 at low SNR
        cfg = SystemConfig(M=16, K=8, tau=8, rho_p=1.0)
        Phi = dft_pilots(8, 8)
        rng = np.random.default_rng(4)
        tot = 0.0
        n = 10_000
        for _ in range(n):
            H = crandn(rng, 16, 8)
            r = one_bit_quantize(training_signal(H, Phi, 1.0, rng))
            tot += np.mean(np.abs(blmmse_fast(r, Phi, cfg).H_hat) ** 2)
        assert tot / n == pytest.approx(estimate_variance(cfg), rel=0.03)


class TestClosedFormMse:
    def test_zero_power(self):
        cfg = SystemConfig(M=4, K=4, tau=4, rho_p=0.0)
        assert mse_closed_form(cfg) == 1.0

    def test_floor_in_db(self):
        assert 10 * np.log10(mse_floor()) == pytest.approx(-4.3963, abs=1e-3)

    def test_value_k4_rho10(self):
        cfg = SystemConfig(M=4, K=4, tau=4, rho_p=10.0)
        assert mse_closed_form(cfg) == pytest.approx(0.37891, abs=5e-6)

    def test_tau_above_k_raises(self):
        # the tau = K value, 0.3789, was returned although the filter reaches 0.1613
        cfg = SystemConfig(M=16, K=4, tau=20, rho_p=10.0)
        assert _iid_filter(dft_pilots(20, 4), cfg)[2] == pytest.approx(0.1613, abs=5e-5)
        with pytest.raises(ValueError, match="tau == K"):
            mse_closed_form(cfg)

    def test_monotone_decreasing_bounded_by_floor(self):
        rhos = np.logspace(-3, 5, 30)
        vals = [
            mse_closed_form(SystemConfig(M=1, K=4, tau=4, rho_p=r)) for r in rhos
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(v > mse_floor() for v in vals)

    def test_sigma_sq_identity_at_tau_k(self):
        for rho in (0.01, 0.3, 2.0, 50.0):
            cfg = SystemConfig(M=4, K=6, tau=6, rho_p=rho)
            assert abs(estimate_variance(cfg) - (1 - mse_closed_form(cfg))) < 1e-12

    def test_estimate_variance_values(self):
        assert estimate_variance(SystemConfig(M=1, K=4, tau=4, rho_p=0.0)) == 0.0
        cfg = SystemConfig(M=1, K=8, tau=8, rho_p=0.1)
        assert estimate_variance(cfg) == pytest.approx(0.2829, abs=5e-5)


class TestBlmmseFlat:
    def test_zero_power_estimate_is_zero(self):
        cfg = SystemConfig(M=4, K=2, tau=4, rho_p=0.0)
        Phi = dft_pilots(4, 2)
        _, r = _quantized_training(cfg, Phi, 5)
        est = blmmse_flat(r, Phi, cfg)
        assert np.allclose(est.H_hat, 0.0)

    def test_orthogonality_of_estimate_and_error(self):
        # E{h_hat (h_hat - h)^H} = 0 for the exactly-modeled LMMSE filter
        cfg = SystemConfig(M=4, K=2, tau=6, rho_p=1.0)
        Phi = dft_pilots(6, 2)
        G, _, _ = blmmse_filter(Phi, cfg)
        rng = np.random.default_rng(6)
        n = 20_000
        acc = np.zeros((8, 8), dtype=complex)
        p_est = np.zeros(8)
        p_err = np.zeros(8)
        for _ in range(n):
            H = crandn(rng, 4, 2)
            r = one_bit_quantize(training_signal(H, Phi, 1.0, rng))
            hh = G @ r
            err = hh - vec(H)
            acc += np.outer(hh, err.conj())
            p_est += np.abs(hh) ** 2
            p_err += np.abs(err) ** 2
        corr = np.abs(acc / n) / np.sqrt(np.outer(p_est / n, p_err / n))
        assert corr.max() < 4 / np.sqrt(n) * 1.5

    def test_predicted_quality_in_range(self):
        # note tau > K estimates can beat the tau = K error floor
        cfg = SystemConfig(M=4, K=2, tau=6, rho_p=2.0)
        Phi = dft_pilots(6, 2)
        est = blmmse_flat(np.ones(24) * (1 + 1j) / np.sqrt(2), Phi, cfg)
        assert 0.0 <= est.sigma_sq <= 1.0
        assert 0.0 <= est.mse <= 1.0


def _attained(G, Phib, C_h):
    """Re tr(G C_r G^H) and the normalized MSE of the estimate G r, r = Q(Phib h + n)
    with h ~ CN(0, C_h) (I for None), from the arcsine law."""
    C_h = np.eye(Phib.shape[1]) if C_h is None else C_h
    C_y = Phib @ C_h @ Phib.conj().T + np.eye(Phib.shape[0])
    C_hr = C_h @ Phib.conj().T * bussgang_gain(C_y)  # E{h r^H}
    var = np.real(np.trace(G @ arcsine_covariance(C_y) @ G.conj().T))
    err = np.real(np.trace(C_h)) - 2.0 * np.real(np.trace(G @ C_hr.conj().T)) + var
    return var, err / np.real(np.trace(C_h))


class TestIidFilterKronecker:
    @settings(max_examples=80, deadline=None)
    @given(
        M=st.integers(1, 6),
        K=st.integers(1, 4),
        extra_tau=st.integers(0, 4),
        log_rho=st.floats(-2.0, 2.0),
        dft=st.booleans(),
        uncorrelated=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_dense_pilot_model_build(
        self, M, K, extra_tau, log_rho, dft, uncorrelated, seed
    ):
        # the i.i.d. filter solved at M = 1 and expanded as G_1 kron I_M
        # against the filter solved on the dense Phi kron sqrt(rho_p) I_M
        tau = K + extra_tau
        cfg = SystemConfig(M=M, K=K, tau=tau, rho_p=10.0**log_rho)
        Phi = dft_pilots(tau, K) if dft else crandn(np.random.default_rng(seed), tau, K)
        build = lmmse_uncorrelated_filter if uncorrelated else blmmse_filter
        G, sigma_sq, mse = build(Phi, cfg)
        Phib = _pilot_model(Phi, cfg)
        G_d, var, mse_d = _bussgang_lmmse(Phib, None, uncorrelated)
        assert G.shape == G_d.shape == (M * K, M * tau)
        assert np.max(np.abs(G - G_d)) <= 1e-12 * max(1.0, np.max(np.abs(G_d)))
        assert abs(sigma_sq - var / (M * K)) <= 1e-12
        assert abs(mse - mse_d) <= 1e-12
        if uncorrelated:
            want_var, want_mse = _attained(G, Phib, None)
            assert abs(sigma_sq - want_var / (M * K)) <= 1e-12
            assert abs(mse - want_mse) <= 1e-12
        else:
            assert mse == 1.0 - sigma_sq

    def test_correlated_channel_keeps_the_dense_build(self):
        cfg = SystemConfig(M=3, K=2, tau=3, rho_p=2.0)
        Phi = dft_pilots(3, 2)
        A = crandn(np.random.default_rng(0), 6, 6)
        C_h = A @ A.conj().T / 6
        Phib = _pilot_model(Phi, cfg)
        for uncorrelated, build in ((False, blmmse_filter), (True, lmmse_uncorrelated_filter)):
            G_d, var, mse_d = _bussgang_lmmse(Phib, C_h, uncorrelated)
            G, sigma_sq, mse = build(Phi, cfg, C_h)
            assert np.array_equal(G, G_d)
            assert sigma_sq == var / 6
            assert mse == mse_d
            # normalized by tr C_h, which is not MK here
            want_var, want_mse = _attained(G, Phib, C_h)
            assert abs(var - want_var) <= 1e-12 * want_var
            assert abs(mse - want_mse) <= 1e-12


def _paired_quality(builds, Phi, cfg, root, n, seed):
    """Check each build's (sigma_sq, mse) against the estimate power and squared
    error that its G realizes on n one-bit training draws, shared by all builds.

    H = root @ W with W i.i.d. CN(0, 1). Each mean, and each build's MSE minus
    the first's, must lie within 4 standard errors of its prediction.
    """
    M, K, tau = cfg.M, cfg.K, cfg.tau
    W, N = crandn_trials(np.random.default_rng(seed), n, (M, K), (M, tau))
    H = W if root is None else root @ W
    R = one_bit_quantize(np.sqrt(cfg.rho_p) * H @ Phi.T + N)
    h = np.swapaxes(H, 1, 2).reshape(n, M * K)  # vec(H) per trial
    r = np.swapaxes(R, 1, 2).reshape(n, M * tau)

    def within(samples, want):
        se = samples.std(ddof=1) / np.sqrt(n)
        return abs(samples.mean() - want) <= 4.0 * se

    errors, predicted = [], []
    for G, sigma_sq, mse in builds:
        h_hat = r @ G.T
        power = np.sum(np.abs(h_hat) ** 2, axis=1) / (M * K)
        err = np.sum(np.abs(h_hat - h) ** 2, axis=1) / (M * K)
        assert within(power, sigma_sq), (power.mean(), sigma_sq)
        assert within(err, mse), (err.mean(), mse)
        errors.append(err)
        predicted.append(mse)
    for err, mse in zip(errors[1:], predicted[1:]):
        assert within(err - errors[0], mse - predicted[0])


class TestPredictedMseIsRealized:
    # sigma_sq and mse of a linear filter are those it attains on one-bit
    # training data: for the white-noise baseline, not its model's belief
    @pytest.mark.parametrize("snr_db", [0.0, 20.0])
    def test_iid_channel_at_fig2_shape(self, snr_db):
        cfg = SystemConfig(M=16, K=4, tau=20, rho_p=10 ** (snr_db / 10))
        Phi = dft_pilots(20, 4)
        builds = [blmmse_filter(Phi, cfg), lmmse_uncorrelated_filter(Phi, cfg)]
        _paired_quality(builds, Phi, cfg, None, 4000, 31)

    def test_correlated_channel(self):
        # fig3's shape and Laplacian covariance at 20 dB
        cfg = SystemConfig(M=16, K=1, tau=2, rho_p=100.0)
        Phi = dft_pilots(2, 1)
        C_h = laplacian_covariance(16, mean_angle=70.0, angle_spread=10.0)
        builds = [blmmse_filter(Phi, cfg, C_h), lmmse_uncorrelated_filter(Phi, cfg, C_h)]
        _paired_quality(builds, Phi, cfg, _psd_root(C_h), 20_000, 32)


def test_singular_output_covariance_falls_back_with_warning():
    # extreme SNR drives normalized correlations to exactly 1 in floating
    # point, making the arcsine covariance singular; the filter must warn
    # and regularize rather than die
    cfg = SystemConfig(M=1, K=1, tau=2, rho_p=1e18)
    Phi = dft_pilots(2, 1)
    r = np.array([1 + 1j, 1 + 1j]) / np.sqrt(2)
    with pytest.warns(RuntimeWarning, match="singular"):
        est = blmmse_flat(r, Phi, cfg)
    assert np.all(np.isfinite(est.H_hat))


class TestLmmseUncorrelated:
    def test_coincides_with_blmmse_at_tau_k(self):
        cfg = SystemConfig(M=4, K=4, tau=4, rho_p=1.7)
        Phi = dft_pilots(4, 4)
        Gb, _, _ = blmmse_filter(Phi, cfg)
        Gu, _, _ = lmmse_uncorrelated_filter(Phi, cfg)
        assert np.allclose(Gb, Gu, atol=1e-12)

    def test_worse_than_blmmse_at_high_snr(self):
        # tau > K at 10 dB: the diagonal quantizer-noise model loses accuracy
        cfg = SystemConfig(M=16, K=4, tau=20, rho_p=10.0)
        Phi = dft_pilots(20, 4)
        Gb, _, _ = blmmse_filter(Phi, cfg)
        Gu, _, _ = lmmse_uncorrelated_filter(Phi, cfg)
        rng = np.random.default_rng(7)
        diff = []
        for _ in range(300):
            H = crandn(rng, 16, 4)
            r = one_bit_quantize(training_signal(H, Phi, 10.0, rng))
            eb = np.sum(np.abs((Gb @ r).reshape(16, 4, order="F") - H) ** 2)
            eu = np.sum(np.abs((Gu @ r).reshape(16, 4, order="F") - H) ** 2)
            diff.append(eu - eb)
        diff = np.array(diff)
        assert diff.mean() > 2 * diff.std(ddof=1) / np.sqrt(len(diff))


class TestLsEstimate:
    def test_recovers_noiseless_unquantized(self):
        cfg = SystemConfig(M=4, K=3, tau=6, rho_p=2.0)
        Phi = dft_pilots(6, 3)
        rng = np.random.default_rng(8)
        H = crandn(rng, 4, 3)
        y_clean = vec(np.sqrt(2.0) * H @ Phi.T)
        est = ls_estimate(y_clean, Phi, cfg)
        assert np.allclose(est.H_hat, H, atol=1e-10)

    def test_deterministic(self):
        cfg = SystemConfig(M=4, K=2, tau=4, rho_p=1.0)
        Phi = dft_pilots(4, 2)
        _, r = _quantized_training(cfg, Phi, 9)
        a = ls_estimate(r, Phi, cfg).H_hat
        b = ls_estimate(r, Phi, cfg).H_hat
        assert np.array_equal(a, b)

    def test_rank_deficient_pilots_rejected(self):
        cfg = SystemConfig(M=2, K=2, tau=4, rho_p=1.0)
        Phi = np.ones((4, 2), dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            ls_estimate(np.ones(8), Phi, cfg)

    @pytest.mark.parametrize("snr_db", [-20, -10, 0, 10, 20])
    def test_never_beats_blmmse(self, snr_db):
        rho = 10 ** (snr_db / 10)
        cfg = SystemConfig(M=8, K=4, tau=8, rho_p=rho)
        Phi = dft_pilots(8, 4)
        G, _, _ = blmmse_filter(Phi, cfg)
        rng = np.random.default_rng(100 + snr_db)
        mse_b = mse_l = 0.0
        for _ in range(300):
            H = crandn(rng, 8, 4)
            r = one_bit_quantize(training_signal(H, Phi, rho, rng))
            mse_b += np.sum(np.abs((G @ r).reshape(8, 4, order="F") - H) ** 2)
            mse_l += np.sum(np.abs(ls_estimate(r, Phi, cfg).H_hat - H) ** 2)
        assert mse_b < mse_l


class TestLogNdtr:
    # the nML objective's log F against scipy's log_ndtr: 16 ulp, or 1e-300
    # absolute where scipy's value is subnormal or zero (z above about 37)
    BRANCHES = np.sqrt(2.0) * np.array([-8.0, -1.0, 1.0, 8.0])  # |t| = 1 and 8

    @staticmethod
    def _assert_close(z):
        got, want = estimators._log_ndtr(z), special.log_ndtr(z)
        assert got.shape == z.shape
        normal = np.abs(want) > 1e-300
        assert np.all(np.abs(got - want)[normal] <= 16 * np.spacing(np.abs(want[normal])))
        assert np.all(np.abs(got - want)[~normal] <= 1e-300)
        assert np.all(got <= 0.0)

    def test_matches_scipy_on_a_dense_grid(self):
        z = np.concatenate(
            [
                np.linspace(-1e4, 1e3, 1_100_001),
                np.linspace(-20.0, 40.0, 600_001),
                (self.BRANCHES[:, None] + 1e-9 * np.arange(-1000, 1001)).ravel(),
            ]
        )
        z.sort()
        self._assert_close(z)
        assert np.all(np.diff(estimators._log_ndtr(z)) >= 0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e4, 1e3), min_size=1, max_size=8))
    def test_matches_scipy_on_any_floats(self, values):
        self._assert_close(np.array(values))

    def test_half_at_zero_and_shape_kept(self):
        got = estimators._log_ndtr(np.zeros((2, 3, 4)))
        assert got.shape == (2, 3, 4)
        assert np.all(got == np.log(0.5))


class TestNml:
    def test_objective_monotone_nondecreasing(self):
        cfg = SystemConfig(M=2, K=2, tau=4, rho_p=1.0)
        Phi = dft_pilots(4, 2)
        _, r = _quantized_training(cfg, Phi, 10)
        est = nml_estimate(r, Phi, cfg)
        tr = est.diagnostics["objective_trace"]
        assert all(b >= a for a, b in zip(tr, tr[1:]))
        assert est.diagnostics["converged"]

    def test_direction_alignment_high_snr(self):
        cfg = SystemConfig(M=1, K=1, tau=8, rho_p=100.0)
        Phi = dft_pilots(8, 1)
        rng = np.random.default_rng(11)
        aligns = []
        for _ in range(100):
            H = crandn(rng, 1, 1)
            r = one_bit_quantize(training_signal(H, Phi, 100.0, rng))
            hh = nml_estimate(r, Phi, cfg).H_hat
            aligns.append(
                np.real(np.vdot(hh, H)) / (np.linalg.norm(H) * np.linalg.norm(hh))
            )
        assert np.mean(aligns) > 0.9

    @pytest.mark.parametrize("snr_db", [10.0, 20.0])
    def test_between_ls_and_blmmse_with_published_radius(self, snr_db):
        # the published norm-ball ||h||^2 <= K reproduces the reference
        # ordering BLMMSE < nML < LS at mid/high SNR
        rho = 10 ** (snr_db / 10)
        cfg = SystemConfig(M=16, K=4, tau=20, rho_p=rho)
        Phi = dft_pilots(20, 4)
        G, _, _ = blmmse_filter(Phi, cfg)
        rng = np.random.default_rng(12)
        mb = ml = mn = 0.0
        n = 25
        for _ in range(n):
            H = crandn(rng, 16, 4)
            r = one_bit_quantize(training_signal(H, Phi, rho, rng))
            mb += np.sum(np.abs((G @ r).reshape(16, 4, order="F") - H) ** 2)
            ml += np.sum(np.abs(ls_estimate(r, Phi, cfg).H_hat - H) ** 2)
            est = nml_estimate(r, Phi, cfg, radius_sq=4.0, max_iters=300)
            mn += np.sum(np.abs(est.H_hat - H) ** 2)
        assert mb < mn < ml

    def test_default_radius_competitive(self):
        # with the full-norm ball MK the solution is never worse than LS
        cfg = SystemConfig(M=8, K=2, tau=8, rho_p=1.0)
        Phi = dft_pilots(8, 2)
        rng = np.random.default_rng(13)
        mn = ml = 0.0
        for _ in range(30):
            H = crandn(rng, 8, 2)
            r = one_bit_quantize(training_signal(H, Phi, 1.0, rng))
            mn += np.sum(np.abs(nml_estimate(r, Phi, cfg).H_hat - H) ** 2)
            ml += np.sum(np.abs(ls_estimate(r, Phi, cfg).H_hat - H) ** 2)
        assert mn < ml

    def test_nonconvergence_reported_not_raised(self):
        # tol = 0 cannot be met, whatever the solver; it stops at the cap
        # (or stalls) and says so
        cfg = SystemConfig(M=2, K=2, tau=4, rho_p=1.0)
        Phi = dft_pilots(4, 2)
        _, r = _quantized_training(cfg, Phi, 14)
        est = nml_estimate(r, Phi, cfg, tol=0.0, max_iters=2)
        assert est.diagnostics["converged"] is False
        assert est.diagnostics["iterations"] <= 2
        assert np.isfinite(est.diagnostics["grad_norm"])

    @pytest.mark.parametrize("radius_sq", [-1.0, float("nan")])
    def test_negative_or_nan_radius_rejected(self, radius_sq):
        # NaN gave the zero estimate after 0 steps, -1 only a sqrt warning
        cfg = SystemConfig(M=2, K=2, tau=4, rho_p=1.0)
        Phi = dft_pilots(4, 2)
        _, r = _quantized_training(cfg, Phi, 10)
        with pytest.raises(ValueError, match="radius_sq"):
            nml_estimate(r, Phi, cfg, radius_sq=radius_sq)
        with pytest.raises(ValueError, match="radius_sq"):
            _nml_solve(r[None], Phi, cfg, radius_sq)


# --------------------------------------------------------------------------
# projected gradient ascent with a doubled step and halving backtracking,
# one trial at a time: the nML solver before the Newton solve, kept as the
# optimality reference the Newton estimates must match or beat


def _ref_nml_objective(r_p, Phi, cfg):
    from scipy.special import log_ndtr

    M, K, tau = cfg.M, cfg.K, cfg.tau
    P = np.sqrt(cfg.rho_p) * Phi
    B = np.block([[P.real, -P.imag], [P.imag, P.real]])
    r = np.asarray(r_p).reshape(-1)
    c = np.sign(np.concatenate([r.real, r.imag])).reshape(2 * tau, M)
    sc = np.sqrt(2.0) * c

    def objective_grad(h):
        z = sc * (B @ h.reshape(2 * K, M))
        logF = log_ndtr(z)
        lam = np.exp(-0.5 * z * z - _LOG_SQRT_2PI - logF)
        grad = np.sqrt(2.0) * (B.T @ (c * lam)).reshape(-1)
        return float(logF.sum()), grad

    return objective_grad


def _ref_nml_estimate(r_p, Phi, cfg, radius_sq=None, tol=1e-6, max_iters=500):
    objective_grad = _ref_nml_objective(r_p, Phi, cfg)
    MK = cfg.M * cfg.K
    if radius_sq is None:
        radius_sq = float(MK)
    radius = np.sqrt(radius_sq)

    def project(h):
        nrm = np.linalg.norm(h)
        return h if nrm <= radius else h * (radius / nrm)

    h = np.zeros(2 * MK)
    obj, grad = objective_grad(h)
    trace = [obj]
    step = 1.0
    grad_norm = np.inf
    converged = False
    for _ in range(max_iters):
        grad_norm = float(np.linalg.norm(project(h + grad) - h))
        if grad_norm < tol:
            converged = True
            break
        step = min(step * 2.0, 1e6)
        while step > 1e-15:
            h_new = project(h + step * grad)
            obj_new, grad_new = objective_grad(h_new)
            if obj_new >= obj:
                break
            step *= 0.5
        else:
            break  # stalled
        h, obj, grad = h_new, obj_new, grad_new
        trace.append(obj)

    h_c = h[:MK] + 1j * h[MK:]
    return unvec(h_c, cfg.M, cfg.K), {
        "converged": converged,
        "iterations": len(trace) - 1,
        "grad_norm": grad_norm,
        "objective_trace": trace,
    }


def _training_stack(cfg, Phi, snr_dbs, seed):
    """(n, M tau) quantized training vectors, trial i drawn at snr_dbs[i]."""
    rng = np.random.default_rng(seed)
    R = []
    for snr_db in snr_dbs:
        H = crandn(rng, cfg.M, cfg.K)
        R.append(one_bit_quantize(training_signal(H, Phi, 10 ** (snr_db / 10), rng)))
    return np.stack(R)


def _real_embedding(H_hat):
    """h = [Re vec(H); Im vec(H)] per trial of an (n, M, K) stack."""
    v = np.swapaxes(H_hat, 1, 2).reshape(len(H_hat), -1)
    return np.concatenate([v.real, v.imag], axis=1)


class TestStackedNml:
    @pytest.mark.parametrize(
        "M, K, tau, rho, opts, n, seed, kinds_seen",
        [
            # converged and capped, on the ball and inside it, in one stack
            (
                4, 2, 4, 10.0, {"radius_sq": 32.0, "tol": 1e-10, "max_iters": 14}, 24, 2,
                {"converged", "capped", "projected", "unprojected"},
            ),
            # tol = 0 cannot be met: each trial stalls or reaches the cap
            (4, 2, 4, 10.0, {"tol": 0.0, "max_iters": 60}, 12, 3, {"stalled", "capped"}),
            (16, 4, 20, 1.0, {"radius_sq": 4.0, "max_iters": 200}, 32, 3, {"converged"}),  # fig2
            (16, 4, 20, 100.0, {"radius_sq": 4.0, "max_iters": 40}, 5, 4, {"converged"}),
            (3, 1, 3, 1.0, {}, 1, 5, {"converged"}),  # a stack of one, default options
            (3, 1, 3, 1.0, {"max_iters": 0}, 3, 6, {"capped"}),
        ],
    )
    def test_equals_per_trial_reference(self, M, K, tau, rho, opts, n, seed, kinds_seen):
        # the stacked solve equals nml_estimate one trial at a time, bit for
        # bit, and each converged estimate is stationary on the ball: with
        # the stop test ||P(h + g) - h|| < tol, g = mu h + e with mu >= 0 and
        # ||e|| < (1 + mu) tol on the ball, and ||g|| < tol inside it
        cfg = SystemConfig(M=M, K=K, tau=tau, rho_p=rho)
        Phi = dft_pilots(tau, K)
        snr_dbs = np.random.default_rng(seed).uniform(-15.0, 30.0, n)
        R = _training_stack(cfg, Phi, snr_dbs, seed)
        traces = []
        H_hat, iterations, converged, grad_norm = _nml_solve(
            R, Phi, cfg, traces=traces, **opts
        )
        assert H_hat.shape == (n, M, K)
        tol = opts.get("tol", 1e-6)
        radius_sq = opts.get("radius_sq", float(M * K))
        h = _real_embedding(H_hat)
        grads = _nml_objective(R, Phi, cfg)(h, np.arange(n))[1](slice(None))[0]
        kinds = set()
        for j in range(n):
            est = nml_estimate(R[j], Phi, cfg, **opts)
            assert np.array_equal(est.H_hat, H_hat[j])
            assert est.diagnostics == {
                "converged": bool(converged[j]),
                "iterations": int(iterations[j]),
                "grad_norm": float(grad_norm[j]),
                "objective_trace": traces[j],
            }
            on_ball = h[j] @ h[j] > radius_sq * (1 - 1e-9)
            kinds.add("projected" if on_ball else "unprojected")
            if converged[j]:
                kinds.add("converged")
                g = grads[j]
                if on_ball:
                    mu = g @ h[j] / (h[j] @ h[j])
                    assert mu > -tol
                    assert np.linalg.norm(g - mu * h[j]) <= (1.0 + abs(mu)) * tol
                else:
                    assert np.linalg.norm(g) < tol
            elif iterations[j] < opts.get("max_iters", 500):
                kinds.add("stalled")
            else:
                kinds.add("capped")
        assert kinds_seen <= kinds

    @pytest.mark.parametrize(
        "M, K, tau, snr_db, radius_sq, seed",
        [
            (16, 4, 20, -10.0, 4.0, 7),  # fig2's shape and radius
            (16, 4, 20, 10.0, 4.0, 8),
            (16, 4, 20, 20.0, 4.0, 9),
            (8, 2, 8, 0.0, None, 10),  # the default radius MK
        ],
    )
    def test_objective_not_below_the_ascents(self, M, K, tau, snr_db, radius_sq, seed):
        cfg = SystemConfig(M=M, K=K, tau=tau, rho_p=10 ** (snr_db / 10))
        Phi = dft_pilots(tau, K)
        R = _training_stack(cfg, Phi, [snr_db] * 2, seed)
        traces = []
        converged = _nml_solve(R, Phi, cfg, radius_sq, traces=traces)[2]
        assert converged.all()
        for j in range(len(R)):
            _, diag = _ref_nml_estimate(R[j], Phi, cfg, radius_sq, max_iters=20_000)
            ref = diag["objective_trace"][-1]
            assert traces[j][-1] >= ref - 1e-12 * abs(ref)


class TestNewtonStep:
    @staticmethod
    def _solve(monkeypatch, cfg, snr_dbs, seed, **opts):
        """_nml_solve on trials drawn at snr_dbs, with the multipliers of each Newton round.

        Each multiplier on the ball is checked to put x(mu) on the sphere.
        """
        Phi = dft_pilots(cfg.tau, cfg.K)
        R = _training_stack(cfg, Phi, snr_dbs, seed)
        radius = np.sqrt(opts.get("radius_sq", cfg.M * cfg.K))
        mus = []

        def recorded(d, b2, radius_):
            mu = _ball_multiplier(d, b2, radius_)
            on = mu > 0
            x_norm = np.sqrt(np.sum(b2[on] / (mu[on, None] + d[on]) ** 2, axis=1))
            assert radius_ == radius and np.all(np.abs(x_norm - radius) <= 1e-12 * radius)
            mus.append(mu)
            return mu

        monkeypatch.setattr(estimators, "_ball_multiplier", recorded)
        return R, Phi, _nml_solve(R, Phi, cfg, **opts), mus

    def test_interior_path(self, monkeypatch):
        # signs drawn at -20 dB and solved at 0 dB with the default radius
        # MK: the likelihood peaks well inside the ball, and every Newton
        # point lies inside it (mu = 0)
        cfg = SystemConfig(M=16, K=4, tau=20, rho_p=1.0)
        R, Phi, out, mus = self._solve(monkeypatch, cfg, [-20.0] * 6, 11)
        H_hat, iterations, converged, _ = out
        assert converged.all() and iterations.max() <= 8
        assert not np.concatenate(mus).any()
        assert np.all(np.sum(np.abs(H_hat) ** 2, axis=(1, 2)) < 0.5 * 64.0)

    def test_boundary_path(self, monkeypatch):
        # radius^2 = K at 30 dB: the estimates lie on the ball, reached by
        # Newton points on it (mu > 0)
        cfg = SystemConfig(M=16, K=4, tau=20, rho_p=1000.0)
        R, Phi, out, mus = self._solve(monkeypatch, cfg, [30.0] * 6, 12, radius_sq=4.0)
        H_hat, _, converged, _ = out
        assert converged.all()
        assert np.all(mus[-1] > 0)
        np.testing.assert_allclose(np.sum(np.abs(H_hat) ** 2, axis=(1, 2)), 4.0, rtol=1e-12)

    def test_mixed_stack(self, monkeypatch):
        # trials drawn at -20 and 30 dB, solved at 0 dB with the default
        # radius: one multiplier solve holds both paths, and the stack
        # equals its trials solved one at a time
        cfg = SystemConfig(M=16, K=4, tau=20, rho_p=1.0)
        R, Phi, out, mus = self._solve(monkeypatch, cfg, [-20.0, 30.0] * 3, 13)
        H_hat, iterations, converged, _ = out
        assert converged.all()
        assert any((mu == 0).any() and (mu > 0).any() for mu in mus)
        for j in range(len(R)):
            est = nml_estimate(R[j], Phi, cfg)
            assert np.array_equal(est.H_hat, H_hat[j])
            assert est.diagnostics["iterations"] == iterations[j]

    def test_multiplier_meets_the_radius(self):
        # rows: interior; on the ball; a zero eigenvalue with b != 0 there,
        # where the first Newton iterate is undefined and bisection takes
        # over; a zero eigenvalue with b = 0 there, whose x(0) is inside
        d = np.array([[1.0, 2.0, 4.0], [1.0, 2.0, 4.0], [0.0, 1.0, 4.0], [0.0, 1.0, 4.0]])
        b2 = np.array([[0.1, 0.1, 0.1], [4.0, 9.0, 1.0], [1e-6, 1.0, 1.0], [0.0, 0.25, 1.0]])
        mu = _ball_multiplier(d, b2, 1.0)
        assert mu[0] == 0.0 and mu[3] == 0.0
        assert mu[1] > 0.0 and mu[2] > 0.0
        for j in (1, 2):
            assert abs(np.sqrt(np.sum(b2[j] / (mu[j] + d[j]) ** 2)) - 1.0) <= 1e-12
        for j in range(len(d)):  # each row on its own, bit for bit
            assert _ball_multiplier(d[j : j + 1], b2[j : j + 1], 1.0)[0] == mu[j]


# --------------------------------------------------------------------------
# reference nML objective on the dense real embedding A of Phi_bar (2M tau x 2MK),
# in the stacked form of _nml_objective: objective(h, rows) -> (objs, derivs(keep)),
# derivs giving the gradients and the M diagonal 2K x 2K blocks of the dense
# Hessian -2 A^T diag(lam (lam + z)) A


def _dense_derivatives(R, Phi, cfg, h, rows):
    """Objectives, gradients and dense 2MK x 2MK Hessians of trials rows at h."""
    Phib = _pilot_model(Phi, cfg)
    A = np.block([[Phib.real, -Phib.imag], [Phib.imag, Phib.real]])
    R = np.asarray(R).reshape(-1, cfg.M * cfg.tau)
    C = np.sign(np.concatenate([R.real, R.imag], axis=1))
    objs, grads, hessians = [], [], []
    for x, c in zip(h, C[rows]):
        z = np.sqrt(2.0) * c * (A @ x)
        logF = stats.norm.logcdf(z)
        lam = np.exp(stats.norm.logpdf(z) - logF)
        objs.append(logF.sum())
        grads.append(np.sqrt(2.0) * (A.T @ (c * lam)))
        # pdf/cdf again, as 1 / Mills' ratio: relative error eps where exp of
        # logpdf - logcdf has lost eps z^2, so that lam + z keeps eps z^2
        lam_z = np.sqrt(2.0 / np.pi) / special.erfcx(-z / np.sqrt(2.0))
        hessians.append(-2.0 * (A.T * (lam_z * (lam_z + z))) @ A)
    return np.array(objs), np.array(grads), np.array(hessians)


def _antenna_blocks(hessians, M, K):
    """The (n, M, 2K, 2K) diagonal blocks of dense Hessians in h's layout.

    h = [Re vec(H); Im vec(H)] puts antenna m's 2K parameters at j M + m.
    """
    return np.einsum("nimjm->nmij", hessians.reshape(-1, 2 * K, M, 2 * K, M))


def _dense_objective(R, Phi, cfg):
    def objective(h, rows):
        objs, grads, hessians = _dense_derivatives(R, Phi, cfg, h, rows)
        blocks = _antenna_blocks(hessians, cfg.M, cfg.K)
        return objs, lambda keep: (grads[keep], blocks[keep])

    return objective


class TestNmlStructuredOperator:
    @settings(max_examples=60, deadline=None)
    @given(
        M=st.integers(1, 6),
        K=st.integers(1, 4),
        extra_tau=st.integers(0, 4),
        log_rho=st.floats(-2.0, 2.0),
        norm_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_objective_and_gradient_match_dense(
        self, M, K, extra_tau, log_rho, norm_frac, seed
    ):
        # random complex (non-DFT) pilots with tau >= K; h anywhere in the
        # default feasible ball ||h||^2 <= MK, where the solver evaluates;
        # three trials, evaluated as rows (2, 0) of the stack
        tau = K + extra_tau
        rho = 10.0**log_rho
        cfg = SystemConfig(M=M, K=K, tau=tau, rho_p=rho)
        rng = np.random.default_rng(seed)
        Phi = crandn(rng, tau, K)
        R = np.stack([_quantized_training(cfg, Phi, rng)[1] for _ in range(3)])
        rows = np.array([2, 0])
        h = rng.standard_normal((2, 2 * M * K))
        h *= np.sqrt(norm_frac * M * K) / np.linalg.norm(h, axis=1, keepdims=True)
        obj_s, derivs = _nml_objective(R, Phi, cfg)(h, rows)
        obj_d, grad_d, _ = _dense_derivatives(R, Phi, cfg, h, rows)
        grad_s = derivs(slice(None))[0]
        assert obj_s.shape == (2,) and grad_s.shape == (2, 2 * M * K)
        for i in range(2):
            assert abs(obj_s[i] - obj_d[i]) <= 1e-12 * abs(obj_d[i])
            err = np.linalg.norm(grad_s[i] - grad_d[i])
            assert err <= 1e-12 * np.linalg.norm(grad_d[i])

    @settings(max_examples=60, deadline=None)
    @given(
        M=st.integers(1, 6),
        K=st.integers(1, 4),
        extra_tau=st.integers(0, 4),
        log_rho=st.floats(-2.0, 2.0),
        norm_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_hessian_blocks_match_dense(self, M, K, extra_tau, log_rho, norm_frac, seed):
        # the same draws as the objective check; the dense Hessian has no
        # entries between antennas, and its diagonal blocks are the
        # structured ones
        tau = K + extra_tau
        cfg = SystemConfig(M=M, K=K, tau=tau, rho_p=10.0**log_rho)
        rng = np.random.default_rng(seed)
        Phi = crandn(rng, tau, K)
        R = np.stack([_quantized_training(cfg, Phi, rng)[1] for _ in range(3)])
        rows = np.array([2, 0])
        h = rng.standard_normal((2, 2 * M * K))
        h *= np.sqrt(norm_frac * M * K) / np.linalg.norm(h, axis=1, keepdims=True)
        hess_s = _nml_objective(R, Phi, cfg)(h, rows)[1](slice(None))[1]
        dense = _dense_derivatives(R, Phi, cfg, h, rows)[2]
        hess_d = _antenna_blocks(dense, M, K)
        assert hess_s.shape == (2, M, 2 * K, 2 * K)
        across = dense.reshape(2, 2 * K, M, 2 * K, M).copy()
        across[:, :, np.arange(M), :, np.arange(M)] = 0.0
        assert not across.any()
        for i in range(2):
            for m in range(M):
                err = np.linalg.norm(hess_s[i, m] - hess_d[i, m])
                assert err <= 1e-12 * np.linalg.norm(hess_d[i, m])

    @pytest.mark.parametrize(
        "M, K, tau, snr_db, dft, seed",
        [
            (16, 4, 20, -20.0, True, 0),
            (16, 4, 20, 0.0, True, 1),
            (16, 4, 20, 20.0, True, 2),
            (8, 3, 5, 5.0, False, 3),
            (5, 2, 2, 10.0, False, 4),
        ],
    )
    def test_solver_matches_dense_oracle(
        self, monkeypatch, M, K, tau, snr_db, dft, seed
    ):
        rho = 10 ** (snr_db / 10)
        cfg = SystemConfig(M=M, K=K, tau=tau, rho_p=rho)
        rng = np.random.default_rng(seed)
        Phi = dft_pilots(tau, K) if dft else crandn(rng, tau, K)
        _, r = _quantized_training(cfg, Phi, rng)
        opts = {"radius_sq": float(K), "max_iters": 200}
        fast = nml_estimate(r, Phi, cfg, **opts)
        monkeypatch.setattr(estimators, "_nml_objective", _dense_objective)
        ref = nml_estimate(r, Phi, cfg, **opts)
        assert fast.diagnostics["iterations"] == ref.diagnostics["iterations"]
        assert fast.diagnostics["converged"] == ref.diagnostics["converged"]
        assert np.max(np.abs(fast.H_hat - ref.H_hat)) <= 1e-10

    def test_rejects_inconsistent_pilots(self):
        cfg = SystemConfig(M=4, K=2, tau=4)
        with pytest.raises(ValueError, match="pilot shape"):
            nml_estimate(np.ones(16), dft_pilots(4, 3), cfg)


def test_ls_filter_matches_dense_pinv():
    # fig2's LS filter pinv(sqrt(rho_p) Phi) kron I_M is the pseudo-inverse of
    # the dense training matrix Phi kron sqrt(rho_p) I_M up to rounding
    cfg = SystemConfig(M=16, K=4, tau=20, rho_p=2.0)
    Phi = dft_pilots(20, 4)
    dense = np.linalg.pinv(_pilot_model(Phi, cfg))
    assert np.max(np.abs(np.kron(_ls_pinv(Phi, cfg), np.eye(16)) - dense)) <= 1e-15
    with pytest.raises(ValueError, match="pilot shape"):
        _ls_pinv(dft_pilots(5, 2), SystemConfig(M=4, K=2, tau=4))


@pytest.mark.parametrize("snr_db", [-20.0, 0.0, 20.0])
@pytest.mark.parametrize("name", ["blmmse", "uncorr", "ls"])
def test_structured_filter_equals_dense_kron_filter_on_a_stack(name, snr_db):
    # fig2's shape: the K x tau filter G applied as R G^T to a stack of training
    # matrices, against the dense G kron I_M applied to each vec(R)
    M, K, tau = 16, 4, 20
    cfg = SystemConfig(M=M, K=K, tau=tau, rho_p=10 ** (snr_db / 10))
    Phi = dft_pilots(tau, K)
    G = {
        "blmmse": _iid_filter(Phi, cfg)[0],
        "uncorr": _iid_filter(Phi, cfg, uncorrelated=True)[0],
        "ls": _ls_pinv(Phi, cfg),
    }[name]
    dense = np.kron(G, np.eye(M))
    if name != "ls":  # the public dense filter is this expansion
        build = blmmse_filter if name == "blmmse" else lmmse_uncorrelated_filter
        assert np.array_equal(build(Phi, cfg)[0], dense)
    H, N = crandn_trials(np.random.default_rng(11), 40, (M, K), (M, tau))
    R = one_bit_quantize(np.sqrt(cfg.rho_p) * H @ Phi.T + N)
    got = R @ G.T
    want = np.stack([unvec(dense @ vec(R_t), M, K) for R_t in R])
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_blmmse_flat_applies_the_m1_filter():
    cfg = SystemConfig(M=6, K=2, tau=5, rho_p=3.0)
    Phi = dft_pilots(5, 2)
    _, r = _quantized_training(cfg, Phi, 4)
    G1, sigma_sq, mse = _iid_filter(Phi, cfg)
    est = blmmse_flat(r, Phi, cfg)
    assert np.array_equal(est.H_hat, unvec(r, 6, 5) @ G1.T)
    assert (est.sigma_sq, est.mse) == (sigma_sq, mse)
    assert mse == 1.0 - sigma_sq
    assert est.sigma_sq == blmmse_filter(Phi, cfg)[1]


@pytest.mark.parametrize("estimate", [blmmse_flat, blmmse_fast, ls_estimate, nml_estimate])
def test_estimators_reject_inconsistent_pilots(estimate):
    # a tau x 3 Phi under K = 4 used to give an M x 3 estimate (LS, fast)
    cfg = SystemConfig(M=4, K=4, tau=4)
    with pytest.raises(ValueError, match="pilot shape"):
        estimate(np.ones(16), dft_pilots(4, 3), cfg)
