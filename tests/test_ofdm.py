import numpy as np
import pytest
from scipy.linalg import circulant

from onebit_mimo import OfdmConfig, SystemConfig, blmmse_ofdm, dft_pilots, one_bit_quantize
from onebit_mimo import estimators
from onebit_mimo.channel import crandn, vec
from onebit_mimo.estimators import blmmse_flat
from onebit_mimo.quantize import arcsine_covariance, bussgang_gain
from onebit_mimo.ofdm import (
    _pilot_matrix,
    _stacked_pilots,
    gen_tap_channel,
    ofdm_blmmse_filter,
    ofdm_training_signal,
    qpsk_pilots,
    td_pilot_matrix,
    uniform_tap_covariance,
)


def test_ofdm_config_invariants():
    OfdmConfig(N_c=64, N_cp=16, L=4)
    with pytest.raises(ValueError):
        OfdmConfig(N_c=64, N_cp=2, L=4)  # CP shorter than L-1
    with pytest.raises(ValueError):
        OfdmConfig(N_c=8, N_cp=16, L=4)  # CP longer than the symbol
    with pytest.raises(ValueError):
        OfdmConfig(N_c=8, N_cp=4, L=0)


def test_circulant_first_column_is_ifft():
    x = qpsk_pilots(16, 1, 0)[:, 0]
    P = td_pilot_matrix(x)
    e1 = np.zeros(16)
    e1[0] = 1.0
    assert np.allclose(P @ e1, np.fft.ifft(x) * 4.0, atol=1e-14)
    # truncation keeps the leading columns
    assert np.array_equal(td_pilot_matrix(x, 3), P[:, :3])


@pytest.mark.parametrize("L", [0, -1, 5, 6])
def test_pilot_matrix_rejects_a_tap_count_outside_the_symbol(L):
    # used to return 4 columns for L = 6 and 3 for L = -1
    x = qpsk_pilots(4, 1, 0)[:, 0]
    with pytest.raises(ValueError, match=rf"^need 1 <= L <= 4, got L={L}$"):
        td_pilot_matrix(x, L)
    assert td_pilot_matrix(x, 1).shape == (4, 1) and td_pilot_matrix(x, 4).shape == (4, 4)


@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_circulant_index_build_matches_scipy(n):
    x = qpsk_pilots(n, 1, n)[:, 0]
    assert np.array_equal(td_pilot_matrix(x), circulant(np.fft.ifft(x) * np.sqrt(n)))


def test_qpsk_pilots_unit_modulus():
    p = qpsk_pilots(32, 3, 1)
    assert np.allclose(np.abs(p), 1.0, atol=1e-14)


def test_identifiability_guard():
    cfg = SystemConfig(M=2, K=2, tau=8, rho_p=1.0)
    ofdm = OfdmConfig(N_c=8, N_cp=7, L=8)
    with pytest.raises(ValueError):
        blmmse_ofdm(np.zeros(16), qpsk_pilots(8, 2, 0), ofdm, cfg)


def test_training_signal_checks_its_pilots_and_taps():
    # used to fail in a numpy broadcast, and to accept 4 taps for L = 2
    ofdm = OfdmConfig(N_c=8, N_cp=3, L=2)
    with pytest.raises(ValueError, match=r"^pilots have 12 rows but ofdm.N_c = 8$"):
        ofdm_training_signal(gen_tap_channel(2, 2, 2, 0), qpsk_pilots(12, 2, 0), ofdm, 1.0, 1)
    with pytest.raises(ValueError, match=r"^taps have 4 taps but ofdm.L = 2$"):
        ofdm_training_signal(gen_tap_channel(2, 1, 4, 0), qpsk_pilots(8, 1, 0), ofdm, 1.0, 1)
    with pytest.raises(ValueError, match=r"^pilots have 3 columns but K = 2$"):
        ofdm_training_signal(gen_tap_channel(2, 2, 2, 0), qpsk_pilots(8, 3, 0), ofdm, 1.0, 1)


@pytest.mark.parametrize("M, K, L, N_c", [(1, 1, 1, 4), (3, 2, 4, 16), (2, 3, 2, 8)])
def test_training_signal_is_the_flat_model_on_the_taps(M, K, L, N_c):
    # antenna-major sqrt(rho_p) H Phi_L^T + N with the K*L taps as users
    ofdm = OfdmConfig(N_c=N_c, N_cp=L - 1, L=L)
    pilots = qpsk_pilots(N_c, K, 1)
    taps = gen_tap_channel(M, K, L, 2)
    Phi_L = _pilot_matrix(pilots, ofdm, K)
    want = np.sqrt(0.7) * taps.reshape(M, K * L) @ Phi_L.T + crandn(
        np.random.default_rng(3), M, N_c
    )
    got = ofdm_training_signal(taps, pilots, ofdm, 0.7, np.random.default_rng(3))
    assert np.array_equal(got, want.reshape(-1))
    assert np.array_equal(ofdm_training_signal(taps, pilots, ofdm, 0.7, 3), got)


def test_flat_degeneration():
    # L = 1, N_cp = 0, N_c = tau with pilots whose IFFT equals a DFT pilot
    # matrix: the tap estimator must reduce to the flat estimator
    M, K, tau, rho = 4, 2, 8, 3.0
    cfg = SystemConfig(M=M, K=K, tau=tau, rho_p=rho)
    ofdm = OfdmConfig(N_c=tau, N_cp=0, L=1)
    Phi = dft_pilots(tau, K)
    pilots_fd = np.fft.fft(Phi, axis=0) / np.sqrt(tau)

    rng = np.random.default_rng(5)
    H = crandn(rng, M, K)
    Y = np.sqrt(rho) * H @ Phi.T + crandn(rng, M, tau)
    est_flat = blmmse_flat(one_bit_quantize(vec(Y)), Phi, cfg).H_hat
    # the time-domain path stacks antennas, not columns
    taps = blmmse_ofdm(one_bit_quantize(Y.reshape(-1)), pilots_fd, ofdm, cfg)
    est_ofdm = taps.reshape(M, K, 1)[:, :, 0]
    assert np.max(np.abs(est_flat - est_ofdm)) < 1e-8


def test_arcsine_beats_forced_diagonal_quantizer_noise():
    # at the default prior, the one gen_tap_channel draws from
    M, K, L, N_c, rho = 4, 2, 4, 64, 10.0
    cfg = SystemConfig(M=M, K=K, tau=N_c, T=200, rho_p=rho)
    ofdm = OfdmConfig(N_c=N_c, N_cp=L - 1, L=L)
    pilots = qpsk_pilots(N_c, K, 7)
    G_full, mse_full = ofdm_blmmse_filter(pilots, ofdm, cfg)
    G_diag, mse_diag = ofdm_blmmse_filter(pilots, ofdm, cfg, diagonal_quantizer_noise=True)
    C_h = uniform_tap_covariance(M, K, L)
    assert np.array_equal(G_full, ofdm_blmmse_filter(pilots, ofdm, cfg, C_h)[0])
    # exact second-order predictions already order the two filters
    assert mse_full < mse_diag

    rng = np.random.default_rng(21)
    n = 2000
    e_full, e_diag = np.empty(n), np.empty(n)
    for i in range(n):
        taps = gen_tap_channel(M, K, L, rng)
        r = one_bit_quantize(ofdm_training_signal(taps, pilots, ofdm, rho, rng))
        h = taps.reshape(-1)
        e_full[i] = np.sum(np.abs(G_full @ r - h) ** 2)
        e_diag[i] = np.sum(np.abs(G_diag @ r - h) ** 2)
    e_full /= M * K  # total tap power is M*K (profile sums to 1)
    e_diag /= M * K
    diffs = e_diag - e_full
    # paired Monte Carlo: the arcsine filter wins significantly
    assert diffs.mean() > 2 * diffs.std(ddof=1) / np.sqrt(n)
    # and each filter's mse is the error it attains: every mean within 4
    # standard errors
    assert e_full.mean() == pytest.approx(mse_full, rel=0.1)
    for samples, want in ((e_full, mse_full), (e_diag, mse_diag), (diffs, mse_diag - mse_full)):
        se = samples.std(ddof=1) / np.sqrt(n)
        assert abs(samples.mean() - want) <= 4.0 * se, (samples.mean(), want, se)


def test_tap_profile_and_channel_power():
    taps = gen_tap_channel(3, 2, 5, 0)
    assert taps.shape == (3, 2, 5)
    many = gen_tap_channel(200, 50, 4, 1)
    assert np.mean(np.sum(np.abs(many) ** 2, axis=2)) == pytest.approx(1.0, rel=0.05)


def _default_prior_model(pilots, ofdm, cfg):
    """Phi_bar, C_h = I/L, C_y and the cross-covariance E{h r^H} of the default prior."""
    Phib = _stacked_pilots(pilots, ofdm, cfg)
    C_h = np.eye(Phib.shape[1]) / ofdm.L
    C_y = Phib @ C_h @ Phib.conj().T + np.eye(Phib.shape[0])
    return Phib, C_h, C_y, C_h @ Phib.conj().T * bussgang_gain(C_y)


def test_singular_solve_falls_back_to_ridge(monkeypatch):
    M, K, L, N_c, rho = 2, 2, 2, 8, 3.0
    cfg = SystemConfig(M=M, K=K, tau=N_c, rho_p=rho)
    ofdm = OfdmConfig(N_c=N_c, N_cp=L - 1, L=L)
    pilots = qpsk_pilots(N_c, K, 3)
    # reference: the arcsine-law filter of the prior I/L solved with a 1e-10 ridge
    Phib, _, C_y, B = _default_prior_model(pilots, ofdm, cfg)
    C_r = arcsine_covariance(C_y) + 1e-10 * np.eye(Phib.shape[0])
    G_ref = np.linalg.solve(C_r, B.conj().T).conj().T

    solve = np.linalg.solve
    calls = []

    def fail_once(C, rhs):
        calls.append(C.shape)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(C, rhs)

    monkeypatch.setattr(np.linalg, "solve", fail_once)
    with pytest.warns(RuntimeWarning, match="ridge"):
        G, mse = ofdm_blmmse_filter(pilots, ofdm, cfg)
    assert len(calls) == 2
    assert np.all(np.isfinite(G)) and np.isfinite(mse)
    np.testing.assert_allclose(G, G_ref, rtol=1e-12, atol=0.0)


def test_arcsine_filter_mse_reuses_the_solved_covariance(monkeypatch):
    # for G = B C_r^{-1}, tr(G C_r G^H) = tr(G B^H): the MSE needs no second C_r
    M, K, L, N_c, rho = 2, 2, 2, 8, 3.0
    cfg = SystemConfig(M=M, K=K, tau=N_c, rho_p=rho)
    ofdm = OfdmConfig(N_c=N_c, N_cp=L - 1, L=L)
    pilots = qpsk_pilots(N_c, K, 5)
    G, mse = ofdm_blmmse_filter(pilots, ofdm, cfg)
    _, C_h, C_y, B = _default_prior_model(pilots, ofdm, cfg)
    trace_prior = float(np.real(np.trace(C_h)))
    cross = float(np.real(np.sum(G * B.conj())))
    assert mse == 1.0 - cross / trace_prior
    # the same value as the MSE recomputed with a fresh arcsine covariance
    quad = float(np.real(np.sum((G @ arcsine_covariance(C_y)) * G.conj())))
    assert mse == pytest.approx((trace_prior - 2.0 * cross + quad) / trace_prior, abs=1e-12)

    # one arcsine covariance per filter build, for either quantizer-noise model
    calls = []

    def counted(C):
        calls.append(C.shape)
        return arcsine_covariance(C)

    monkeypatch.setattr(estimators, "arcsine_covariance", counted)
    for diagonal in (False, True):
        calls.clear()
        ofdm_blmmse_filter(pilots, ofdm, cfg, diagonal_quantizer_noise=diagonal)
        assert len(calls) == 1
