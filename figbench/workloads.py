"""Workload table: which figure sweeps one benchmark pass runs, and why.

Each figure entry is the text of a config file (the CLI's ``key = value``
format) without ``seed``/``output``, which the worker fills in. The MC work
unit is one Monte Carlo trial; the design unit is one allocation solve.
"""

from __future__ import annotations

DEFAULT_SEED = 0  # the seed the committed reference CSVs were made with

WORKLOADS = {
    "estimation": {
        "why": "fig2 nML plus fig3 paired-trial MSE loops; rates and allocation idle",
        "figures": {
            # 10 trials fit one 256-trial block, so fig2 never starts the pool
            "fig2_mse": "m = 16\nk = 4\ntau = 20\nsnr_db = -20:5:20\n"
            "nml_max_iters = 200\nn_trials = 10\n",
            # 4 blocks per SNR: the pool runs
            "fig3_corr_mse": "m = 16\nk = 1\ntau = 2\nsnr_db = -10:5:30\nn_trials = 1024\n",
        },
    },
    "rates-small-m": {
        "why": "fig4 at M=32: sub-ms trials where call overhead, RNG and the pool dominate",
        "figures": {
            "fig4_se_vs_snr": "m = 32\nk = 8\ntau = 8\nsnr_db = -20, -10, 0\nn_trials = 768\n",
        },
    },
    "design": {
        "why": "fig5-fig9 closed forms: allocation scans only, no RNG, seed-free",
        "figures": {
            # coherence intervals of 50-100 symbols keep each figure under a
            # second (a solve scans every tau up to T), so a run times each
            # figure many times
            "fig5_power_eff": "k = 8\ntau = 8\n",
            "fig6_bit_energy": "m = 128\nk = 8\nt = 50\nrho_db = -10, 0\n",
            "fig7_opt_tau": "m = 128\nk = 8\nt = 50, 100\nrho_db = -15, -6\n",
            "fig8_se_vs_m": "m = 100, 400\nk = 8\nt = 50\nrho_db = -10\n",
            "fig9_kappa": "m_conv = 128\nk = 8\nt = 50\nrho_db = -10\n",
        },
        # allocation solves (_optimize_numeric calls) one pass makes, counted
        # on the reference code; fixed so that the unit does not change when
        # a solver needs fewer calls
        "units": 58,
    },
}

MC_FIGURES = {"fig2_mse": 1, "fig3_corr_mse": 1, "fig4_se_vs_snr": 2}  # MC runs per grid point
