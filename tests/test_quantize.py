import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit_mimo import (
    SystemConfig,
    alpha_d,
    alpha_p,
    arcsine_covariance,
    bussgang_gain,
    dft_pilots,
    one_bit_quantize,
    quantizer_noise_cov,
)
from onebit_mimo.channel import crandn
from onebit_mimo.quantize import UNCORR_NOISE_VAR, quantizer_noise_quad

SQ2 = np.sqrt(2.0)


def _random_unit_diag_cov(rng, dim, load=1.0):
    A = crandn(rng, dim, dim)
    C = A @ A.conj().T + load * dim * np.eye(dim)
    d = np.real(np.diag(C))
    return C / np.sqrt(np.outer(d, d))


class TestOneBitQuantize:
    def test_sign_cases(self):
        assert one_bit_quantize(np.array([0.3 - 0.7j]))[0] == (1 - 1j) / SQ2
        assert one_bit_quantize(np.array([-2 + 1e-9j]))[0] == (-1 + 1j) / SQ2

    def test_tie_break_positive(self):
        assert one_bit_quantize(np.array([0.0 + 0.0j]))[0] == (1 + 1j) / SQ2
        assert one_bit_quantize(np.array([0.0 - 0.5j]))[0] == (1 - 1j) / SQ2

    def test_unit_modulus(self):
        rng = np.random.default_rng(0)
        r = one_bit_quantize(crandn(rng, 1000))
        assert np.allclose(np.abs(r), 1.0, atol=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        y = crandn(rng, 500)
        for c in (1e-6, 0.5, 3.0, 1e8):
            assert np.array_equal(one_bit_quantize(c * y), one_bit_quantize(y))


class TestBussgangGain:
    def test_scaled_identity(self):
        c = 2.5
        g = bussgang_gain(c * np.eye(6))
        assert np.allclose(g, np.sqrt(2.0 / (np.pi * c)))

    def test_dft_pilot_gain_value(self):
        # K = 8, rho_p = 0.1: squared gain = (2/pi)/1.8
        cfg = SystemConfig(M=4, K=8, tau=8, rho_p=0.1)
        assert alpha_p(cfg) ** 2 == pytest.approx(0.35368, abs=5e-6)

    def test_regression_oracle(self):
        # least-squares fit of r on y must recover the diagonal gain within 2%
        rng = np.random.default_rng(2)
        A = crandn(rng, 3, 3)
        C = A @ A.conj().T + np.eye(3)
        L = np.linalg.cholesky(C)
        y = L @ crandn(rng, 3, 100_000)
        r = one_bit_quantize(y)
        A_hat = (r @ y.conj().T) @ np.linalg.inv(y @ y.conj().T)
        g = bussgang_gain(C)
        assert np.max(np.abs(np.real(np.diag(A_hat)) - g) / g) < 0.02

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(ValueError):
            bussgang_gain(np.diag([1.0, 0.0]))


class TestArcsineCovariance:
    def test_identity(self):
        assert np.allclose(arcsine_covariance(np.eye(5)), np.eye(5), atol=1e-15)

    def test_half_correlation(self):
        C = np.array([[1.0, 0.5], [0.5, 1.0]])
        R = arcsine_covariance(C)
        assert R[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_exact_unit_diagonal(self):
        rng = np.random.default_rng(3)
        C = _random_unit_diag_cov(rng, 6)
        R = arcsine_covariance(C)
        assert np.array_equal(np.diag(R), np.ones(6, dtype=complex))

    @settings(max_examples=80, deadline=None)
    @given(
        M=st.integers(1, 8),
        rank=st.integers(1, 8),
        log_load=st.floats(-6.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_psd_with_exact_unit_diagonal(self, M, rank, log_load, seed):
        # unnormalized covariances, down to nearly singular ones (rank < M
        # with a small load), and unequal variances per antenna
        rng = np.random.default_rng(seed)
        A = crandn(rng, M, rank)
        scale = rng.uniform(0.1, 10.0, M)
        C = scale[:, None] * (A @ A.conj().T + 10.0**log_load * np.eye(M)) * scale
        R = arcsine_covariance(C)
        assert np.array_equal(np.diag(R), np.ones(M, dtype=complex))
        assert np.allclose(R, R.conj().T, rtol=0.0, atol=1e-14)
        assert np.linalg.eigvalsh((R + R.conj().T) / 2)[0] >= -1e-12 * M

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(4)
        A = crandn(rng, 4, 4)
        C = A @ A.conj().T + 4 * np.eye(4)
        L = np.linalg.cholesky(C)
        x = L @ crandn(rng, 4, 1_000_000)
        emp = one_bit_quantize(x) @ one_bit_quantize(x).conj().T / x.shape[1]
        assert np.max(np.abs(emp - arcsine_covariance(C))) < 0.01

    def test_invalid_correlation_rejected(self):
        bad = np.array([[1.0, 1.2], [1.2, 1.0]])
        with pytest.raises(ValueError):
            arcsine_covariance(bad)


class TestQuantizerNoiseCov:
    def test_identity_input(self):
        C_q = quantizer_noise_cov(np.eye(4))
        assert np.allclose(C_q, (1 - 2 / np.pi) * np.eye(4), atol=1e-15)

    def test_diagonal_is_uncorrelated_variance(self):
        rng = np.random.default_rng(5)
        C = _random_unit_diag_cov(rng, 5)
        C_q = quantizer_noise_cov(C)
        assert np.allclose(np.diag(C_q).real, 1 - 2 / np.pi, atol=1e-14)

    def test_psd_on_random_inputs(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            C = _random_unit_diag_cov(rng, 6, load=rng.uniform(0.2, 3.0))
            C_q = quantizer_noise_cov(C)
            assert np.linalg.eigvalsh(C_q)[0] >= -1e-8
            assert np.linalg.eigvalsh(arcsine_covariance(C))[0] >= -1e-8
            assert np.allclose(C_q, C_q.conj().T)


def _channel_cov_stack(rng, n, M, K, rho):
    H = crandn(rng, n, M, K)
    return rho * H @ np.swapaxes(H.conj(), 1, 2) + np.eye(M)


class TestStackedQuantizerNoise:
    def test_stack_equals_per_matrix_calls_bitwise(self):
        rng = np.random.default_rng(8)
        C = _channel_cov_stack(rng, 5, 7, 3, 0.8)
        C[2] = _random_unit_diag_cov(rng, 7, load=0.3)
        for fn in (quantizer_noise_cov, arcsine_covariance):
            got = fn(C)
            assert got.shape == C.shape
            assert np.array_equal(got, np.stack([fn(c) for c in C]))

    def test_every_matrix_of_a_stack_gets_the_exact_diagonal(self):
        # the unit diagonal of the normalized input is set, not computed:
        # arcsin has infinite slope at 1
        C = _channel_cov_stack(np.random.default_rng(10), 40, 8, 3, 3.7)
        for fn in (quantizer_noise_cov, arcsine_covariance):
            exact = fn(np.eye(1))[0, 0]
            assert np.all(np.diagonal(fn(C), axis1=-2, axis2=-1) == exact)

    @pytest.mark.parametrize(
        "bad, match",
        [
            (np.array([[1.0, 1.2], [1.2, 1.0]]), "exceeds 1 by 2.000e-01"),
            (np.array([[1.0, 0.5j], [-0.5j, -1.0]]), "strictly positive diagonal"),
        ],
    )
    def test_one_invalid_element_rejects_the_stack(self, bad, match):
        C = np.stack([np.eye(2), bad.astype(complex), np.eye(2)])
        with pytest.raises(ValueError, match=match) as single:
            quantizer_noise_cov(bad)
        for fn in (quantizer_noise_cov, lambda c: quantizer_noise_quad(np.ones((3, 1, 2)), c)):
            with pytest.raises(ValueError) as stacked:
                fn(C)
            assert str(stacked.value) == str(single.value)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        M=st.integers(1, 12),
        K=st.integers(1, 6),
        rho_db=st.floats(-30.0, 30.0),
    )
    def test_real_form_matches_complex_product(self, seed, n, M, K, rho_db):
        rng = np.random.default_rng(seed)
        C_y = _channel_cov_stack(rng, n, M, K, 10.0 ** (rho_db / 10.0))
        W = crandn(rng, n, K, M)
        C_q = quantizer_noise_cov(C_y)
        want = np.real(np.sum((W @ C_q) * W.conj(), -1))
        got = quantizer_noise_quad(W, C_y)
        assert got.shape == (n, K)
        # rounding scale of the form: sum_ij |w_i| |C_q,ij| |w_j|
        scale = np.sum((np.abs(W) @ np.abs(C_q)) * np.abs(W), -1)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)

    def test_single_matrix(self):
        rng = np.random.default_rng(9)
        C_y = _channel_cov_stack(rng, 1, 5, 2, 1.0)[0]
        W = crandn(rng, 2, 5)
        want = np.real(np.sum((W @ quantizer_noise_cov(C_y)) * W.conj(), -1))
        np.testing.assert_allclose(quantizer_noise_quad(W, C_y), want, rtol=1e-13)


class TestLowSnrCq:
    def test_scalar_value(self):
        assert UNCORR_NOISE_VAR == pytest.approx(0.36338, abs=5e-6)

    def test_matches_exact_at_low_snr(self):
        rng = np.random.default_rng(7)
        K, rho, dim = 8, 0.01, 6
        E = 0.05 * (crandn(rng, dim, dim))
        E = E + E.conj().T
        np.fill_diagonal(E, 0.0)
        C_y = (1 + K * rho) * np.eye(dim) + E
        diff = np.abs(quantizer_noise_cov(C_y) - UNCORR_NOISE_VAR * np.eye(dim))
        assert diff.max() < 0.02

    def test_distance_grows_with_snr(self):
        rng = np.random.default_rng(8)
        H = crandn(rng, 6, 3)
        dists = []
        for rho in (0.01, 0.1, 1.0, 10.0):
            C_y = rho * H @ H.conj().T + np.eye(6)
            diff = quantizer_noise_cov(C_y) - UNCORR_NOISE_VAR * np.eye(6)
            dists.append(np.linalg.norm(diff))
        assert all(b > a for a, b in zip(dists, dists[1:]))


class TestHardeningGains:
    def test_noise_only(self):
        cfg = SystemConfig(M=1, K=1, tau=1, rho_p=0.0, rho_d=0.0)
        assert alpha_p(cfg) == pytest.approx(np.sqrt(2 / np.pi), abs=1e-12)

    def test_alpha_d_value(self):
        cfg = SystemConfig(M=1, K=8, tau=8, rho_d=0.1)
        assert alpha_d(cfg) == pytest.approx(0.5947, abs=5e-5)

    def test_hardening_approximation(self):
        # for many users the per-antenna gains concentrate around alpha_d
        rng = np.random.default_rng(9)
        H = crandn(rng, 128, 32)
        rho_d = 0.005
        cfg = SystemConfig(M=128, K=32, tau=32, rho_d=rho_d)
        g = bussgang_gain(rho_d * H @ H.conj().T + np.eye(128))
        assert np.max(np.abs(g - alpha_d(cfg))) / alpha_d(cfg) < 0.05


def test_bussgang_residual_uncorrelated_quick():
    # small-N version of the acceptance property
    M, K, tau, rho = 2, 2, 2, 1.5
    Phi = dft_pilots(tau, K)
    Phib = np.kron(Phi, np.sqrt(rho) * np.eye(M))
    C_y = Phib @ Phib.conj().T + np.eye(M * tau)
    a = bussgang_gain(C_y)
    N = 200_000
    rng = np.random.default_rng(10)
    h = crandn(rng, M * K, N)
    y = Phib @ h + crandn(rng, M * tau, N)
    q = one_bit_quantize(y) - a[:, None] * y
    C = np.abs(q @ y.conj().T / N)
    scale = np.outer(
        np.sqrt(np.mean(np.abs(q) ** 2, axis=1)), np.sqrt(np.mean(np.abs(y) ** 2, axis=1))
    )
    assert np.max(C / scale) < 4 / np.sqrt(N)
