"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines as they complete.
"""

import numpy as np
import pytest

from onebit_mimo import (
    OfdmConfig,
    SystemConfig,
    antenna_ratio,
    arcsine_covariance,
    blmmse_flat,
    dft_pilots,
    laplacian_covariance,
    one_bit_quantize,
    optimize_allocation,
    power_scaling_limit,
    rate_lemma1,
    rate_mrc_closed,
    rate_zf_closed,
    se_at_allocation,
    se_surface,
    training_signal,
)
from onebit_mimo.channel import crandn, vec
from onebit_mimo.estimators import (
    blmmse_fast,
    blmmse_filter,
    lmmse_uncorrelated_filter,
    ls_estimate,
    mse_closed_form,
)
from onebit_mimo.mc import run_blocks
from onebit_mimo.ofdm import (
    gen_tap_channel,
    ofdm_blmmse_filter,
    ofdm_training_signal,
    qpsk_pilots,
)
from onebit_mimo.quantize import bussgang_gain
from onebit_mimo.rates import ergodic_rate_mc, mrc_moments, zf_moments


def _report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _empirical_fast_mse(M, K, rho_p, n_trials, seed):
    cfg = SystemConfig(M=M, K=K, tau=K, rho_p=rho_p)
    Phi = dft_pilots(K, K)

    def block(rng, n):
        tot = 0.0
        for _ in range(n):
            H = crandn(rng, M, K)
            r = one_bit_quantize(training_signal(H, Phi, rho_p, rng))
            tot += np.sum(np.abs(blmmse_fast(r, Phi, cfg).H_hat - H) ** 2)
        return tot

    return sum(run_blocks(n_trials, block, seed)) / (n_trials * M * K)


def test_criterion_1_mse_floor():
    # tau = K = 4, rho_p = +40 dB, M = 16: empirical MSE within 0.05 dB of the
    # -4.3963 dB quantization floor
    mse = _empirical_fast_mse(M=16, K=4, rho_p=1e4, n_trials=10_000, seed=101)
    mse_db = 10 * np.log10(mse)
    _report(
        "1 (MSE floor)",
        abs(mse_db - (-4.3963)) < 0.05,
        f"empirical {mse_db:.4f} dB vs floor -4.3963 dB",
    )


def test_criterion_2_closed_form_mse():
    details = []
    ok = True
    for snr_db in (-10.0, 0.0, 10.0):
        rho = 10 ** (snr_db / 10)
        emp = _empirical_fast_mse(M=16, K=4, rho_p=rho, n_trials=10_000, seed=202)
        ref = mse_closed_form(SystemConfig(M=16, K=4, tau=4, rho_p=rho))
        rel = abs(emp - ref) / ref
        ok &= rel < 0.02
        details.append(f"{snr_db:+.0f}dB rel {rel * 100:.2f}%")
    _report("2 (closed-form MSE)", ok, "; ".join(details))


def test_criterion_3_estimator_ordering():
    # fig2_mse setting: M=16, K=4, tau=20 over -20..20 dB. Paired trials:
    # every estimator filters the same quantized observations.
    M, K, tau = 16, 4, 20
    n_trials = 600
    strict_ok = True
    order_ok = True
    details = []
    for i, snr_db in enumerate(range(-20, 25, 5)):
        rho = 10 ** (snr_db / 10)
        cfg = SystemConfig(M=M, K=K, tau=tau, rho_p=rho)
        Phi = dft_pilots(tau, K)
        Gb, _, _ = blmmse_filter(Phi, cfg)
        Gu, _, _ = lmmse_uncorrelated_filter(Phi, cfg)

        def block(rng, n):
            out = np.empty((n, 3))
            for t in range(n):
                H = crandn(rng, M, K)
                r = one_bit_quantize(training_signal(H, Phi, rho, rng))
                out[t, 0] = np.sum(np.abs((Gb @ r).reshape(M, K, order="F") - H) ** 2)
                out[t, 1] = np.sum(np.abs((Gu @ r).reshape(M, K, order="F") - H) ** 2)
                out[t, 2] = np.sum(np.abs(ls_estimate(r, Phi, cfg).H_hat - H) ** 2)
            return out

        samples = np.vstack(run_blocks(n_trials, block, (303, i))) / (M * K)
        mse = samples.mean(axis=0)
        d_bu = samples[:, 1] - samples[:, 0]  # uncorr - blmmse
        d_ul = samples[:, 2] - samples[:, 1]  # ls - uncorr
        se_bu = d_bu.std(ddof=1) / np.sqrt(n_trials)
        se_ul = d_ul.std(ddof=1) / np.sqrt(n_trials)
        order_ok &= d_bu.mean() > -3 * se_bu and d_ul.mean() > -3 * se_ul
        if snr_db >= 10:
            strict_ok &= d_bu.mean() > 2 * se_bu
        details.append(f"{snr_db:+d}dB b={mse[0]:.3f} u={mse[1]:.3f} l={mse[2]:.3f}")
    _report(
        "3 (estimator MSE ordering, fig2_mse setting)",
        order_ok and strict_ok,
        "; ".join(details[::4]) + f"; ordering={order_ok} strict@>=10dB={strict_ok}",
    )


def test_criterion_4_spatial_correlation_gap():
    # fig3_corr_mse setting: M=16, K=1, tau=2, Laplacian 10 deg spread at 20 dB.
    # The mean arrival angle is a free parameter; an oblique arrival
    # (70 deg) gives the strongly correlated array response the comparison
    # targets. Threshold 0.5 dB.
    M, K, tau, rho = 16, 1, 2, 100.0
    cfg = SystemConfig(M=M, K=K, tau=tau, rho_p=rho)
    Phi = dft_pilots(tau, K)
    Cm = laplacian_covariance(M, mean_angle=70.0, angle_spread=10.0)
    Gb, _, _ = blmmse_filter(Phi, cfg, Cm)
    Gu, _, _ = lmmse_uncorrelated_filter(Phi, cfg, Cm)
    eigval, eigvec = np.linalg.eigh(Cm)
    root = eigvec * np.sqrt(np.clip(eigval, 0.0, None))

    def block(rng, n):
        out = np.empty((n, 2))
        for t in range(n):
            H = root @ crandn(rng, M, K)
            r = one_bit_quantize(training_signal(H, Phi, rho, rng))
            out[t, 0] = np.sum(np.abs((Gb @ r).reshape(M, K, order="F") - H) ** 2)
            out[t, 1] = np.sum(np.abs((Gu @ r).reshape(M, K, order="F") - H) ** 2)
        return out

    samples = np.vstack(run_blocks(4000, block, 404)) / (M * K)
    gap_db = 10 * np.log10(samples[:, 1].mean() / samples[:, 0].mean())
    _report(
        "4 (spatial-correlation estimator gap)",
        gap_db >= 0.5,
        f"BLMMSE beats uncorrelated variant by {gap_db:.3f} dB at 20 dB",
    )


def test_criterion_5_rate_gap():
    cfg = SystemConfig(M=128, K=8, tau=8, rho_p=0.1, rho_d=0.1)
    pref = (cfg.T - cfg.tau) / cfg.T * cfg.K
    details = []
    ok = True
    # one pass for both receivers; each report is the one-receiver call's, bit for bit
    reports = ergodic_rate_mc(cfg, ("mrc", "zf"), n_trials=2500, seed=505)
    for mc, (rec, closed, tol) in zip(
        reports, (("mrc", rate_mrc_closed, 0.3), ("zf", rate_zf_closed, 0.6))
    ):
        gap = abs(mc.sum_spectral_efficiency - pref * closed(cfg))
        ok &= gap <= tol
        details.append(f"{rec} gap {gap:.3f} (tol {tol})")
    _report("5 (MC vs closed-form rate gap at -10 dB)", ok, "; ".join(details))


def test_criterion_6_se_surface_identity():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(400):
        K = int(rng.integers(1, 12))
        M = int(rng.integers(K + 1, 300))
        T = int(rng.integers(K + 2, 400))
        tau = int(rng.integers(K, T))
        P = float(10 ** rng.uniform(-1, 3))
        gamma = float(rng.uniform(0.01, 0.99))
        rho = P / T
        cfg = SystemConfig(M=M, K=K, tau=tau, T=T)
        for rec in ("mrc", "zf"):
            direct = se_at_allocation(gamma, tau, rho, cfg, rec, "one-bit")
            coeff = se_surface(gamma, tau, rho, cfg, rec)
            if direct > 0:
                worst = max(worst, abs(coeff - direct) / direct)
    _report(
        "6 (rational SE surface identity)",
        worst <= 1e-9,
        f"max relative deviation {worst:.2e} over 400 random points, both receivers",
    )


def test_criterion_7_power_scaling():
    # E_u is free in this criterion; -10 dB keeps the O(K E_u / sqrt(M))
    # case-II convergence inside 1% at M = 1e5 (at E_u = 0 dB it is ~2.6%).
    K = tau = 8
    T = 200
    E_u = 0.1
    pref = (T - tau) / T * K
    lim_cfg = SystemConfig(M=1, K=K, tau=tau, T=T, rho_p=10.0)
    lim1 = power_scaling_limit("I", lim_cfg, E_u)
    lim2 = power_scaling_limit("II", lim_cfg, E_u)
    M = 10**5
    c1 = SystemConfig(M=M, K=K, tau=tau, T=T, rho_p=10.0, rho_d=E_u / M)
    r2 = E_u / np.sqrt(M)
    c2 = SystemConfig(M=M, K=K, tau=tau, T=T, rho_p=r2, rho_d=r2)
    rels = []
    for closed in (rate_mrc_closed, rate_zf_closed):
        rels.append(abs(pref * closed(c1) - lim1) / lim1)
        rels.append(abs(pref * closed(c2) - lim2) / lim2)
    coincide = abs(
        pref * rate_mrc_closed(c1) - pref * rate_zf_closed(c1)
    ) / lim1 < 0.01 and abs(
        pref * rate_mrc_closed(c2) - pref * rate_zf_closed(c2)
    ) / lim2 < 0.01
    _report(
        "7 (power-scaling limits)",
        max(rels) < 0.01 and coincide,
        f"max relative gap at M=1e5: {max(rels) * 100:.2f}% (cases I & II, MRC & ZF)",
    )


def test_criterion_8_optimal_training_length():
    cfg = SystemConfig(M=128, K=8, tau=8, T=200)
    rho = 10 ** (-15 / 10)
    taus = {}
    for system in ("one-bit", "conventional"):
        for rec in ("mrc", "zf"):
            taus[(system, rec)] = optimize_allocation(rho, cfg, rec, system).tau_star
    ok = (
        taus[("one-bit", "mrc")] > 8
        and taus[("one-bit", "zf")] > 8
        and taus[("conventional", "mrc")] == 8
        and taus[("conventional", "zf")] == 8
    )
    _report(
        "8 (optimal training length)",
        ok,
        f"one-bit tau*: mrc={taus[('one-bit', 'mrc')]}, zf={taus[('one-bit', 'zf')]}; "
        f"conventional tau* = K = 8 for both",
    )


def test_criterion_9_antenna_ratio():
    K = 8
    cfg = SystemConfig(M=128, K=K, tau=K, T=200)
    kb = antenna_ratio(10 ** (-20 / 10), cfg, "mrc", mode="benchmark")
    ko = antenna_ratio(10 ** (-10 / 10), cfg, "mrc", mode="optimized")
    kz = antenna_ratio(10.0, cfg, "zf", mode="optimized")
    ok = 2.4 <= kb <= 2.55 and 2.0 <= ko <= 2.45 and (kz > 4 or np.isinf(kz))
    _report(
        "9 (antenna ratio)",
        ok,
        f"benchmark MRC {kb:.3f} in [2.4, 2.55]; optimized MRC {ko:.3f} in "
        f"[2.0, 2.45]; ZF at +10 dB {kz:.1f} > 4",
    )


class TestCriterion10Properties:
    def test_bussgang_residual_uncorrelated(self):
        M, K, tau, rho = 2, 2, 2, 1.5
        Phi = dft_pilots(tau, K)
        Phib = np.kron(Phi, np.sqrt(rho) * np.eye(M))
        C_y = Phib @ Phib.conj().T + np.eye(M * tau)
        a = bussgang_gain(C_y)
        N = 10**6
        rng = np.random.default_rng(1010)
        h = crandn(rng, M * K, N)
        y = Phib @ h + crandn(rng, M * tau, N)
        q = one_bit_quantize(y) - a[:, None] * y
        qs = np.sqrt(np.mean(np.abs(q) ** 2, axis=1))

        def max_corr(x):
            xs = np.sqrt(np.mean(np.abs(x) ** 2, axis=1))
            return np.max(np.abs(q @ x.conj().T / N) / np.outer(qs, xs))

        c_y, c_h = max_corr(y), max_corr(h)
        bound = 4 / np.sqrt(N)
        _report(
            "10a (Bussgang residual uncorrelated)",
            c_y < bound and c_h < bound,
            f"max |corr(q,y)|={c_y:.2e}, max |corr(q,h)|={c_h:.2e} < {bound:.0e}",
        )

    def test_arcsine_law_monte_carlo(self):
        rng = np.random.default_rng(1011)
        A = crandn(rng, 4, 4)
        C = A @ A.conj().T + 4 * np.eye(4)
        L = np.linalg.cholesky(C)
        x = L @ crandn(rng, 4, 10**6)
        r = one_bit_quantize(x)
        err = np.max(np.abs(r @ r.conj().T / x.shape[1] - arcsine_covariance(C)))
        _report(
            "10b (arcsine law vs empirical)",
            err < 0.01,
            f"max entrywise deviation {err:.4f} < 0.01 over 1e6 draws",
        )

    def test_fast_path_equivalence(self):
        worst = 0.0
        for seed in range(5):
            cfg = SystemConfig(M=8, K=4, tau=4, rho_p=2.5)
            Phi = dft_pilots(4, 4)
            rng = np.random.default_rng(seed)
            H = crandn(rng, 8, 4)
            r = one_bit_quantize(training_signal(H, Phi, 2.5, rng))
            fast = blmmse_fast(r, Phi, cfg).H_hat
            flat = blmmse_flat(r, Phi, cfg).H_hat
            worst = max(worst, np.linalg.norm(fast - flat) / np.linalg.norm(fast))
        _report(
            "10c (fast path == general path at tau=K)",
            worst < 1e-10,
            f"max relative deviation {worst:.2e}",
        )

    def test_ofdm_flat_degeneration(self):
        from onebit_mimo import blmmse_ofdm

        M, K, tau, rho = 4, 2, 8, 3.0
        cfg = SystemConfig(M=M, K=K, tau=tau, rho_p=rho)
        ofdm = OfdmConfig(N_c=tau, N_cp=0, L=1)
        Phi = dft_pilots(tau, K)
        pilots_fd = np.fft.fft(Phi, axis=0) / np.sqrt(tau)
        rng = np.random.default_rng(1013)
        H = crandn(rng, M, K)
        Y = np.sqrt(rho) * H @ Phi.T + crandn(rng, M, tau)
        flat = blmmse_flat(one_bit_quantize(vec(Y)), Phi, cfg).H_hat
        taps = blmmse_ofdm(one_bit_quantize(Y.reshape(-1)), pilots_fd, ofdm, cfg)
        dev = np.max(np.abs(flat - taps.reshape(M, K, 1)[:, :, 0]))
        _report(
            "10d (OFDM single-tap degeneration)",
            dev < 1e-8,
            f"max absolute deviation {dev:.2e}",
        )

    def test_moment_form_rate_identities(self):
        worst = 0.0
        rng = np.random.default_rng(1014)
        for _ in range(50):
            K = int(rng.integers(2, 12))
            M = int(rng.integers(K + 1, 256))
            tau = int(rng.integers(K, 40))
            cfg = SystemConfig(
                M=M,
                K=K,
                tau=tau,
                rho_p=float(10 ** rng.uniform(-2, 1)),
                rho_d=float(10 ** rng.uniform(-2, 1)),
            )
            m = abs(rate_lemma1(cfg, mrc_moments(cfg)) - rate_mrc_closed(cfg))
            z = abs(rate_lemma1(cfg, zf_moments(cfg)) - rate_zf_closed(cfg))
            worst = max(worst, m / max(rate_mrc_closed(cfg), 1e-12))
            worst = max(worst, z / max(rate_zf_closed(cfg), 1e-12))
        _report(
            "10e (moment-form vs closed-form rate identity)",
            worst < 1e-12,
            f"max relative deviation {worst:.2e} over 50 random configurations",
        )

    def test_ofdm_arcsine_beats_diagonal(self):
        M, K, L, N_c, rho = 4, 2, 4, 64, 10.0
        cfg = SystemConfig(M=M, K=K, tau=N_c, rho_p=rho)
        ofdm = OfdmConfig(N_c=N_c, N_cp=L - 1, L=L)
        pilots = qpsk_pilots(N_c, K, 7)
        C_h = np.eye(M * K * L) / L
        G_f, mse_f = ofdm_blmmse_filter(pilots, ofdm, cfg, C_h)
        G_d, mse_d = ofdm_blmmse_filter(
            pilots, ofdm, cfg, C_h, diagonal_quantizer_noise=True
        )
        rng = np.random.default_rng(1015)
        diffs = np.empty(400)
        for i in range(400):
            taps = gen_tap_channel(M, K, L, rng)
            r = one_bit_quantize(ofdm_training_signal(taps, pilots, ofdm, rho, rng))
            h = taps.reshape(-1)
            diffs[i] = np.sum(np.abs(G_d @ r - h) ** 2) - np.sum(
                np.abs(G_f @ r - h) ** 2
            )
        t = diffs.mean() / (diffs.std(ddof=1) / np.sqrt(len(diffs)))
        _report(
            "10f (OFDM arcsine vs diagonal quantizer noise)",
            mse_f < mse_d and t > 2,
            f"predicted {mse_f:.4f} < {mse_d:.4f}; paired-trial t-stat {t:.1f}",
        )
