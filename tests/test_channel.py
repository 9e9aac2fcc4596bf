import numpy as np
import pytest

from onebit_mimo import (
    SystemConfig,
    data_signal,
    dft_pilots,
    gen_correlated_channel,
    gen_iid_channel,
    laplacian_covariance,
    training_signal,
    unvec,
    vec,
)
from onebit_mimo.channel import crandn, crandn_trials


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


class TestCorrelatedChannel:
    def test_identity_cov_matches_iid_stats(self):
        H = gen_correlated_channel(np.eye(8), 2000, seed=5)
        assert abs(np.mean(np.abs(H) ** 2) - 1.0) < 0.03
        assert np.max(np.abs(H.mean(axis=1))) < 0.05

    def test_empirical_covariance(self):
        M = 8
        C = laplacian_covariance(M, 20.0, 15.0)
        H = gen_correlated_channel(C, 10_000, seed=6)
        emp = H @ H.conj().T / H.shape[1]
        assert np.linalg.norm(emp - C) < 0.05 * M

    def test_deterministic(self):
        C = laplacian_covariance(4, 0.0, 30.0)
        assert np.array_equal(
            gen_correlated_channel(C, 3, seed=7), gen_correlated_channel(C, 3, seed=7)
        )

    def test_non_psd_rejected(self):
        bad = np.diag([1.0, -0.5])
        with pytest.raises(np.linalg.LinAlgError):
            gen_correlated_channel(bad, 2, seed=0)


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

    def test_data_zero_symbols_is_noise(self):
        H = np.ones((8, 2), dtype=complex)
        y = data_signal(H, np.zeros(2), 5.0, 11)
        n = crandn(np.random.default_rng(11), 8)
        assert np.array_equal(y, n)

    def test_data_direct_substitution(self):
        H = np.array([[1.0 + 0j]])
        y = data_signal(H, np.array([1.0]), 4.0, 13)
        n = crandn(np.random.default_rng(13), 1)
        assert np.allclose(y - n, [2.0])

    def test_data_covariance(self):
        rng = np.random.default_rng(4)
        H = crandn(rng, 3, 2)
        rho = 0.8
        ys = np.stack(
            [data_signal(H, crandn(rng, 2), rho, rng) for _ in range(20_000)]
        )
        emp = ys.T @ ys.conj() / ys.shape[0]
        target = rho * H @ H.conj().T + np.eye(3)
        assert np.max(np.abs(emp - target)) < 0.1


def test_signal_dimension_mismatch():
    H = np.ones((4, 2), dtype=complex)
    with pytest.raises(ValueError):
        training_signal(H, dft_pilots(4, 3), 1.0, 0)
    with pytest.raises(ValueError):
        data_signal(H, np.ones(3), 1.0, 0)


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("shapes", [[(3, 2), (3, 5)], [(6,)], [(2, 3, 2), (1, 1), (4, 1)]])
def test_crandn_trials_equals_per_trial_calls_bitwise(n, shapes):
    got = crandn_trials(np.random.default_rng(21), n, *shapes)
    rng = np.random.default_rng(21)
    want = [[] for _ in shapes]
    for _ in range(n):
        for stack, shape in zip(want, shapes):
            stack.append(crandn(rng, *shape))
    assert len(got) == len(shapes)
    for g, w in zip(got, want):
        assert g.shape == (n, *w[0].shape)
        assert np.array_equal(g, np.stack(w))
