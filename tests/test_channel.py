import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit_mimo import (
    SystemConfig,
    dft_pilots,
    gen_iid_channel,
    laplacian_covariance,
    training_signal,
    unvec,
    vec,
)
from onebit_mimo.channel import _psd_root, crandn, crandn_trials


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(0)
    X = crandn(rng, 5, 3)
    assert np.array_equal(unvec(vec(X), 5, 3), X)
    # column-major: vec stacks columns
    assert np.array_equal(vec(X)[:5], X[:, 0])


@pytest.mark.parametrize("tau,K", [(4, 2), (64, 17), (1024, 128)])
def test_dft_pilots_orthogonality(tau, K):
    Phi = dft_pilots(tau, K)
    G = Phi.T @ Phi.conj()
    assert np.max(np.abs(G - tau * np.eye(K))) / tau < 1e-12
    assert np.allclose(np.abs(Phi), 1.0, atol=1e-14)


def test_dft_pilots_trivial_and_errors():
    assert np.allclose(dft_pilots(1, 1), [[1.0]])
    with pytest.raises(ValueError):
        dft_pilots(2, 3)


def test_iid_channel_moments():
    cfg = SystemConfig(M=2, K=2, tau=2)
    draws = np.stack([gen_iid_channel(cfg, s) for s in range(100_000)])
    assert np.max(np.abs(draws.mean(axis=0))) < 0.02

    cfg = SystemConfig(M=16, K=2, tau=2)
    rng = np.random.default_rng(1)
    H = crandn(rng, 16, 2 * 10_000)
    norm = np.mean(np.sum(np.abs(H) ** 2, axis=0)) / 16
    assert abs(norm - 1.0) < 0.03


def test_iid_channel_deterministic():
    cfg = SystemConfig(M=4, K=3, tau=3)
    assert np.array_equal(gen_iid_channel(cfg, 123), gen_iid_channel(cfg, 123))
    assert not np.array_equal(gen_iid_channel(cfg, 123), gen_iid_channel(cfg, 124))


class TestLaplacianCovariance:
    def test_scalar_case(self):
        assert np.allclose(laplacian_covariance(1, 10.0, 10.0), [[1.0]])

    def test_hermitian_unit_diagonal_psd(self):
        C = laplacian_covariance(16, 30.0, 10.0)
        assert np.array_equal(C, C.conj().T)
        assert np.allclose(np.diag(C).real, 1.0, atol=1e-12)
        assert np.linalg.eigvalsh(C)[0] > -1e-8

    def test_wide_spread_approaches_identity(self):
        C = laplacian_covariance(8, 0.0, 180.0)
        off = np.abs(C - np.eye(8))
        assert off.max() < 0.1

    def test_narrow_spread_strongly_correlated(self):
        C = laplacian_covariance(8, 0.0, 2.0)
        assert abs(C[0, 1]) > 0.9

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            laplacian_covariance(0, 0.0, 10.0)
        with pytest.raises(ValueError):
            laplacian_covariance(4, 0.0, -1.0)
        with pytest.raises(ValueError):
            laplacian_covariance(4, 90.0, 10.0)
        with pytest.raises(ValueError, match="mean_angle must lie strictly inside"):
            laplacian_covariance(4, True, 10.0)  # ran at 1 degree


def _midpoint_first_column(M, mean_angle, angle_spread, n_nodes):
    # c_d = sum_i w_i e^{j pi d u_i} on n_nodes midpoints of [-1, 1], by powers
    # of e^{j pi u}, so that no M x n_nodes steering matrix is formed
    u0 = np.sin(np.deg2rad(mean_angle))
    scale = np.cos(np.deg2rad(mean_angle)) * np.deg2rad(angle_spread) / np.sqrt(2.0)
    u = -1.0 + (np.arange(n_nodes) + 0.5) * (2.0 / n_nodes)
    term = np.exp(-np.abs(u - u0) / scale).astype(complex)
    term /= term.sum()
    step = np.exp(1j * np.pi * u)
    c = np.empty(M, dtype=complex)
    for d in range(M):
        c[d] = term.sum()
        term *= step
    return c


class TestLaplacianClosedForm:
    @pytest.mark.parametrize(
        "M, mean_angle, angle_spread", [(16, 70.0, 10.0), (64, 70.0, 10.0), (16, 0.0, 1.0)]
    )
    def test_matches_a_fine_midpoint_rule(self, M, mean_angle, angle_spread):
        C = laplacian_covariance(M, mean_angle, angle_spread)
        ref = _midpoint_first_column(M, mean_angle, angle_spread, 1_440_000)
        assert np.max(np.abs(C[:, 0] - ref)) < 1e-9

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        M=st.integers(1, 64),
        angle_spread=st.floats(-12.0, np.log10(180.0)).map(lambda e: 10.0**e),
        mean_angle=st.floats(-89.9, 89.9),
    )
    def test_finite_hermitian_toeplitz_unit_diagonal_psd(self, M, angle_spread, mean_angle):
        C = laplacian_covariance(M, mean_angle, angle_spread)
        assert np.all(np.isfinite(C))
        assert np.array_equal(C, C.conj().T)
        assert np.array_equal(C[1:, 1:], C[:-1, :-1])
        assert np.all(np.diag(C) == 1.0)
        assert np.linalg.eigvalsh(C)[0] >= -1e-12

    def test_vanishing_spread_tends_to_one_steering_vector(self):
        # every weight of a midpoint rule underflowed here, and C was NaN
        a = np.exp(1j * np.pi * np.sin(np.deg2rad(70.0)) * np.arange(16))
        C = laplacian_covariance(16, 70.0, 1e-9)
        assert np.allclose(C, np.outer(a, a.conj()), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("angle_spread", [np.nan, np.inf, -np.inf, 0.0, -1e-300, True])
    def test_spread_must_be_positive_and_finite(self, angle_spread):
        with pytest.raises(ValueError, match="angle_spread must be positive and finite"):
            laplacian_covariance(4, 0.0, angle_spread)

    @pytest.mark.parametrize("M", [2.5, 4.0, "4", None, True])
    def test_M_must_be_an_integer(self, M):
        # M = 2.5 gave a 3 x 3 matrix, M = True a 1 x 1 one
        with pytest.raises(ValueError, match="M must be an integer >= 1"):
            laplacian_covariance(M, 0.0, 10.0)

    def test_numpy_integer_M_accepted(self):
        C = laplacian_covariance(np.int64(4), 10.0, 5.0)
        assert np.array_equal(C, laplacian_covariance(4, 10.0, 5.0))


class TestCorrelatedChannel:
    # fig3 draws its correlated channels as _psd_root(C) @ crandn(rng, M, K)
    def test_empirical_covariance(self):
        M = 8
        C = laplacian_covariance(M, 20.0, 15.0)
        H = _psd_root(C) @ crandn(np.random.default_rng(6), M, 10_000)
        emp = H @ H.conj().T / H.shape[1]
        assert np.linalg.norm(emp - C) < 0.05 * M

    def test_non_psd_rejected(self):
        bad = np.diag([1.0, -0.5])
        with pytest.raises(np.linalg.LinAlgError):
            _psd_root(bad)


class TestSignals:
    def test_training_zero_power_is_noise(self):
        H = np.ones((4, 2), dtype=complex)
        Phi = dft_pilots(2, 2)
        ys = np.stack([training_signal(H, Phi, 0.0, s) for s in range(4000)])
        assert abs(np.mean(np.abs(ys) ** 2) - 1.0) < 0.05
        assert np.max(np.abs(ys.mean(axis=0))) < 0.1

    def test_training_deterministic(self):
        rng = np.random.default_rng(2)
        H = crandn(rng, 4, 2)
        Phi = dft_pilots(4, 2)
        assert np.array_equal(
            training_signal(H, Phi, 2.0, 9), training_signal(H, Phi, 2.0, 9)
        )

    def test_training_covariance_diagonal(self):
        # tau = K DFT pilots: cov(y_p) = (K rho_p + 1) I on the diagonal
        M, K, rho = 2, 4, 1.5
        Phi = dft_pilots(K, K)
        rng = np.random.default_rng(3)
        ys = np.stack(
            [training_signal(crandn(rng, M, K), Phi, rho, rng) for _ in range(10_000)]
        )
        d = np.mean(np.abs(ys) ** 2, axis=0)
        assert np.max(np.abs(d / (K * rho + 1.0) - 1.0)) < 0.03


def test_signal_dimension_mismatch():
    H = np.ones((4, 2), dtype=complex)
    with pytest.raises(ValueError):
        training_signal(H, dft_pilots(4, 3), 1.0, 0)


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize(
    "shapes", [[(3, 2), (3, 5)], [(6,)], [(2, 3, 2), (1, 1), (4, 1)], [(64, 8), (64, 80)]]
)
def test_crandn_trials_equals_per_trial_calls_bitwise(n, shapes):
    # crandn is the (re + 1j*im) / sqrt(2) form; crandn_trials multiplies by
    # the reciprocal instead, which must keep every bit
    got = crandn_trials(np.random.default_rng(21), n, *shapes)
    rng = np.random.default_rng(21)
    want = [[] for _ in shapes]
    for _ in range(n):
        for stack, shape in zip(want, shapes):
            stack.append(crandn(rng, *shape))
    assert len(got) == len(shapes)
    for g, w in zip(got, want):
        assert g.shape == (n, *w[0].shape)
        assert np.array_equal(g.view(np.uint64), np.stack(w).view(np.uint64))
