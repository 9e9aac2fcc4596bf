import tracemalloc

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
from onebit_mimo.channel import _RSQRT2, crandn
from onebit_mimo.quantize import (
    UNCORR_NOISE_VAR,
    _noise_form,
    _noise_parts,
    _noise_workspace,
    _normalized_parts,
)

SQ2 = np.sqrt(2.0)
EPS = np.finfo(float).eps


def _quad(W, H, rho):
    """Re(w_k^T C_q w_k^*) per row w_k of W, C_q of C_y = rho H H^H + I, on the rate path."""
    return _noise_form(W, _noise_parts(H, rho))


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

    def test_bits_of_complex_division_form(self):
        # the output is written as +-_RSQRT2; it must keep the bits of the
        # (re + 1j*im) / sqrt(2) form, NaN and signed zeros included
        y = np.array([0.3 - 0.7j, -2 + 1e-9j, 0j, complex(-0.0, -0.0), complex(np.nan, -1.0)])
        y = np.concatenate([y, crandn(np.random.default_rng(2), 997)])
        re = np.where(y.real >= 0.0, 1.0, -1.0)
        im = np.where(y.imag >= 0.0, 1.0, -1.0)
        want = (re + 1j * im) / np.sqrt(2.0)
        got = one_bit_quantize(y)
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_edge_values_keep_the_bits_of_the_where_form(self):
        tiny = np.finfo(float).smallest_subnormal
        edge = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, 1e-310, -1e-310, 1.0]
        mixed = np.empty((len(edge), len(edge)), dtype=complex)
        mixed.real, mixed.imag = np.meshgrid(edge, edge)
        for y in (mixed, np.array(edge), mixed.T[::2], mixed.conj()):
            parts = np.ascontiguousarray(y, dtype=complex).view(np.float64)
            want = np.where(parts >= 0.0, _RSQRT2, -_RSQRT2).view(complex).reshape(y.shape)
            got = one_bit_quantize(y)
            assert got.shape == y.shape and got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=100, deadline=None)
    @given(
        x=st.lists(
            st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0.0),
            min_size=2,
            max_size=40,
        )
    )
    def test_complex_division_by_sqrt2_multiplies_by_reciprocal(self, x):
        # crandn_trials and one_bit_quantize rely on this numpy behaviour to
        # keep the bits of (re + 1j*im) / np.sqrt(2.0); signed zeros are the
        # one exception (the division form turns -0.0 into +0.0)
        re, im = np.array(x[::2]), np.array(x[1::2])
        re = re[: im.size]
        old = (re + 1j * im) / np.sqrt(2.0)
        assert np.array_equal((re * _RSQRT2).view(np.uint64), old.real.view(np.uint64))
        assert np.array_equal((im * _RSQRT2).view(np.uint64), old.imag.view(np.uint64))


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

    def test_exactly_hermitian_for_input_hermitian_to_rounding(self):
        # the scaling rounds C_ij and C_ji apart, and arcsin amplifies that
        # gap near +-1 (here past 1e-14 unless the parts are symmetrized)
        rng = np.random.default_rng(34497)
        A = crandn(rng, 5, 1)
        scale = rng.uniform(0.1, 10.0, 5)
        C = scale[:, None] * (A @ A.conj().T + 10.0**-5.5 * np.eye(5)) * scale
        assert not np.array_equal(C, C.conj().T)
        for fn in (arcsine_covariance, quantizer_noise_cov):
            R = fn(C)
            assert np.array_equal(R, R.conj().T)

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


def _excess_slope(C_y):
    """Slope k_ij of arcsin(x) - x at the normalized parts of C_y, summed over
    the real and imaginary part; 0 on the diagonal, which is set exactly."""
    X, Y = _normalized_parts(C_y)
    with np.errstate(divide="ignore"):
        k = 1.0 / np.sqrt(1.0 - X**2) + 1.0 / np.sqrt(1.0 - Y**2) - 2.0
    return np.where(np.eye(X.shape[-1], dtype=bool), 0.0, k)


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
        for fn in (quantizer_noise_cov, arcsine_covariance):
            with pytest.raises(ValueError) as stacked:
                fn(C)
            assert str(stacked.value) == str(single.value)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        stack=st.sampled_from([(), (1,), (3,), (2, 3)]),
        M=st.integers(1, 40),
        K=st.integers(1, 10),
        log_rho=st.floats(-4.0, 12.0),
    )
    def test_real_form_matches_complex_product(self, seed, stack, M, K, log_rho):
        # reference: the complex form on C_y = rho H H^H + I, which the
        # kernel never builds; a single matrix and stacks of any length
        rng = np.random.default_rng(seed)
        rho = 10.0**log_rho
        H = crandn(rng, *stack, M, K)
        W = crandn(rng, *stack, K, M)
        C_y = rho * H @ np.swapaxes(H.conj(), -1, -2) + np.eye(M)
        C_q = quantizer_noise_cov(C_y)
        want = np.real(np.sum((W @ C_q) * W.conj(), -1))
        got = _quad(W, H, rho)
        assert got.shape == (*stack, K)
        assert np.all(np.isfinite(got))
        # rounding scale of the form: sum_ij |w_i| |C_q,ij| |w_j|
        aW = np.abs(W)
        bound = 1e-13 * np.sum((aW @ np.abs(C_q)) * aW, -1)
        if K == 1 and rho > 1e5:
            # a rank-one C_y at high SNR puts normalized parts near +-1, where
            # arcsin amplifies the rounding of its arguments that both sides
            # make: add sum_ij |w_i| k_ij |w_j|, k_ij the slope of the excess
            bound += 4 * EPS * np.sum((aW @ _excess_slope(C_y)) * aW, -1)
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("rho", [0.0, 1e-300, 1e12, 1e300])
    def test_finite_at_the_ends_of_the_snr_range(self, rho):
        rng = np.random.default_rng(11)
        H, W = crandn(rng, 4, 16, 3), crandn(rng, 4, 3, 16)
        got = _quad(W, H, rho)
        assert np.all(np.isfinite(got))
        # rho -> 0: C_q -> (1 - 2/pi) I
        if rho < 1e-200:
            want = UNCORR_NOISE_VAR * np.sum(np.abs(W) ** 2, -1)
            np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_single_matrix(self):
        rng = np.random.default_rng(9)
        H = crandn(rng, 5, 2)
        C_y = H @ H.conj().T + np.eye(5)
        W = crandn(rng, 2, 5)
        want = np.real(np.sum((W @ quantizer_noise_cov(C_y)) * W.conj(), -1))
        np.testing.assert_allclose(_quad(W, H, 1.0), want, rtol=1e-13)


def _shifted_workspace(n, M, offset):
    """A (Z, E) workspace whose Z starts `offset` bytes past a 64-byte boundary."""
    size = n * 2 * M * M
    buf = np.empty(2 * size + 8)
    k = (offset - buf.ctypes.data) % 64 // 8
    Z, E = (buf[k + i : k + i + size].reshape(n, 2 * M, M) for i in (0, size))
    assert Z.ctypes.data % 64 == offset
    return Z, E


class TestNoiseWorkspace:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        M=st.integers(1, 40),
        K=st.integers(1, 10),
        n_max=st.integers(1, 9),
        data=st.data(),
        offset=st.sampled_from([None, 8, 16, 48]),
        log_rho=st.floats(-4.0, 12.0),
    )
    def test_same_bits_as_the_allocating_form(self, seed, M, K, n_max, data, offset, log_rho):
        # partial stacks (n < n_max) and workspaces at any offset from a
        # 64-byte boundary; the NaN fill shows that nothing left in the
        # workspace is read
        rng = np.random.default_rng(seed)
        rho = 10.0**log_rho
        if offset is None:
            work = _noise_workspace(n_max, M)
        else:
            work = _shifted_workspace(n_max, M, offset)
        for w in work:
            w.fill(np.nan)
        for n in (data.draw(st.integers(1, n_max)), n_max):
            H, W = crandn(rng, n, M, K), crandn(rng, n, K, M)
            want = _quad(W, H, rho)
            assert np.array_equal(_noise_form(W, _noise_parts(H, rho, work)), want)

    @pytest.mark.parametrize("n, M", [(1, 1), (3, 5), (7, 33), (32, 32), (1, 256)])
    def test_helper_gives_aligned_contiguous_arrays(self, n, M):
        Z, E = _noise_workspace(n, M)
        for w in (Z, E):
            assert w.shape == (n, 2 * M, M) and w.dtype == np.float64
            assert w.flags.c_contiguous and w.flags.writeable
        assert not np.shares_memory(Z, E)

    @pytest.mark.parametrize(
        "n_max, M_work, H_shape",
        [
            (3, 6, (4, 6, 2)),  # too few rows
            (4, 5, (4, 6, 2)),  # (2M, M) of another M
            (4, 7, (4, 6, 2)),
        ],
    )
    def test_wrong_workspace_raises(self, n_max, M_work, H_shape):
        # numpy's out= refuses an array of the wrong shape
        rng = np.random.default_rng(3)
        H = crandn(rng, *H_shape)
        W = np.swapaxes(H.conj(), -1, -2)
        with pytest.raises(ValueError):
            _noise_form(W, _noise_parts(H, 1.0, _noise_workspace(n_max, M_work)))

    def test_any_workspace_layout_gives_the_same_bits(self):
        # the unit diagonal is set through views of Z itself, not of a
        # reshaped copy, so Fortran order or strided views take it as a
        # C-contiguous workspace does
        n, M, K = 3, 6, 2
        rng = np.random.default_rng(3)
        H, W = crandn(rng, n, M, K), crandn(rng, n, K, M)
        want = _quad(W, H, 0.7)
        fortran = tuple(np.asfortranarray(w) for w in _noise_workspace(n, M))
        strided = tuple(np.empty((2 * n, 2 * M, 2 * M))[::2, :, ::2] for _ in range(2))
        for work in (fortran, strided, (fortran[0], strided[1])):
            for w in work:
                w.fill(np.nan)
            assert np.array_equal(_noise_form(W, _noise_parts(H, 0.7, work)), want)

    def test_workspace_keeps_stack_sized_arrays_off_the_heap(self):
        # n = 8, M = 64: one (n, 2M, M) float64 array is 512 KiB, and the
        # allocating form needs two of them at once
        n, M, K = 8, 64, 8
        rng = np.random.default_rng(5)
        H, W = crandn(rng, n, M, K), crandn(rng, n, K, M)
        work = _noise_workspace(n, M)
        one = n * 2 * M * M * 8
        peaks = []
        for w in (work, None):
            tracemalloc.start()
            try:
                _noise_form(W, _noise_parts(H, 0.5, w))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < one < 2 * one < peaks[1]


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
