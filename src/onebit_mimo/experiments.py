"""Figure-reproduction experiments: registry, runner, CSV and manifest output.

Each registered experiment maps a parameter sweep to a rectangular result
table. Runs are pure functions of (resolved parameters, seed): rerunning a
manifest reproduces the CSV byte for byte. Monte Carlo metrics always carry
a standard-error column (prefix ``se_``).
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .allocation import _optimize_numeric, antenna_ratio, power_scaling_limit
from .channel import crandn_trials, dft_pilots, laplacian_covariance
from .config import PowerBudget, SystemConfig, db_to_linear
from .estimators import (
    _nml_solve,
    _pilot_model,
    blmmse_filter,
    lmmse_uncorrelated_filter,
)
from .mc import run_blocks, trial_stacks
from .quantize import one_bit_quantize
from .rates import ergodic_rate_mc, rate_mrc_closed, rate_zf_closed

__all__ = [
    "ExperimentSpec",
    "ResultTable",
    "FIGURES",
    "figure_ids",
    "run_experiment",
    "emit_manifest",
]


@dataclass
class ExperimentSpec:
    """One experiment run: figure, resolved sweep parameters, trials, seed, output."""

    figure_id: str
    sweep: dict = field(default_factory=dict)
    n_trials: int = 0  # 0 = figure default
    seed: int = 0
    output_path: str = ""

    def resolved(self) -> "ExperimentSpec":
        if self.figure_id not in FIGURES:
            raise ValueError(
                f"unknown figure {self.figure_id!r}; choose from {figure_ids()}"
            )
        fig = FIGURES[self.figure_id]
        sweep = dict(fig.defaults)
        unknown = set(self.sweep) - set(fig.defaults)
        if unknown:
            raise ValueError(
                f"unknown parameter(s) for {self.figure_id}: {sorted(unknown)}"
            )
        sweep.update(self.sweep)
        return ExperimentSpec(
            figure_id=self.figure_id,
            sweep=sweep,
            n_trials=self.n_trials or fig.default_trials,
            seed=self.seed,
            output_path=self.output_path or f"{self.figure_id}.csv",
        )


@dataclass
class ResultTable:
    columns: list
    rows: list

    def column(self, name: str) -> np.ndarray:
        i = self.columns.index(name)
        return np.array([row[i] for row in self.rows])


@dataclass(frozen=True)
class FigureDef:
    runner: object
    defaults: dict
    default_trials: int
    description: str
    m_exceeds_k: bool = False  # evaluates the ZF closed form, defined for M > K only
    t_exceeds_k: bool = False  # optimizes tau over [K, T], which needs T > K


def _aslist(v) -> list:
    return v if isinstance(v, list) else [v]


def _float(x) -> str:
    return f"{x:.15g}"


def write_csv(table: ResultTable, path: str | Path) -> None:
    """RFC-4180-style CSV, LF newlines, 15-significant-digit floats."""
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(table.columns)
        for row in table.rows:
            w.writerow(_float(v) for v in row)


def write_plot_stub(table: ResultTable, csv_path: str | Path) -> Path:
    """Gnuplot-style description of how to plot the CSV columns."""
    csv_path = Path(csv_path)
    stub = csv_path.with_suffix(".gp")
    lines = [
        f"# plot recipe for {csv_path.name}",
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set grid",
    ]
    x = table.columns[0]
    ys = [c for c in table.columns[1:] if not c.startswith("se_")]
    plots = ", ".join(
        f"'{csv_path.name}' using '{x}':'{y}' with linespoints" for y in ys
    )
    lines.append(f"plot {plots}")
    stub.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return stub


def emit_manifest(spec: ExperimentSpec, table: ResultTable, path: str | Path) -> Path:
    """Reproducibility record: resolved parameters, seed, versions, columns."""
    path = Path(path)
    params = dict(spec.sweep)
    linear = {}
    for key, val in params.items():
        if key.endswith("_db"):
            if isinstance(val, list):
                linear[key.removesuffix("_db")] = [db_to_linear(v) for v in val]
            else:
                linear[key.removesuffix("_db")] = db_to_linear(val)
    stderr_cols = [c for c in table.columns if c.startswith("se_")]
    manifest = {
        "figure": spec.figure_id,
        "parameters": params,
        "parameters_linear": linear,
        "seed": spec.seed,
        "n_trials": spec.n_trials,
        "output": str(spec.output_path),
        "columns": table.columns,
        "stderr_columns": stderr_cols,
        "max_stderr": {c: float(np.max(table.column(c))) for c in stderr_cols},
        "versions": {
            "onebit_mimo": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return path


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    """Execute a registered figure experiment; writes CSV, plot stub, manifest."""
    spec = spec.resolved()
    table = FIGURES[spec.figure_id].runner(spec)
    write_csv(table, spec.output_path)
    write_plot_stub(table, spec.output_path)
    emit_manifest(spec, table, Path(spec.output_path).with_suffix(".manifest.json"))
    return table


# --------------------------------------------------------------------------
# estimator MSE experiments (paired trials: every estimator sees the same
# quantized observations)


def _mse_point(cfg, Phi, filters, nml_opts, n_trials, seed, root=None):
    """Mean and standard error of the normalized MSE per estimator.

    Channels are root @ CN(0, I) draws (root None: i.i.d.); the linear
    filters, and nML unless nml_opts is None, see the same observations.
    Trials are evaluated in stacks (:func:`mc.trial_stacks`), with the draws
    of one trial at a time; nML solves a whole stack at once
    (:func:`estimators._nml_solve`).
    """
    if n_trials < 2:
        raise ValueError(f"n_trials must be >= 2 for a standard error, got {n_trials}")
    M, K, tau = cfg.M, cfg.K, cfg.tau
    names = list(filters)
    if nml_opts is not None:
        names.append("nml")

    def block(rng, n):
        acc = {name: np.empty(n) for name in names}
        for s in trial_stacks(n, M):
            H, N = crandn_trials(rng, s.stop - s.start, (M, K), (M, tau))
            if root is not None:
                H = root @ H
            R = one_bit_quantize(np.sqrt(cfg.rho_p) * H @ Phi.T + N)
            r = np.swapaxes(R, 1, 2).reshape(-1, M * tau, 1)  # vec(R) per trial
            h = np.swapaxes(H, 1, 2).reshape(-1, M * K)
            for name, G in filters.items():
                err = (G @ r)[..., 0] - h
                acc[name][s] = np.sum(np.abs(err) ** 2, axis=1) / (M * K)
            if nml_opts is not None:
                H_hat = _nml_solve(r[..., 0], Phi, cfg, **nml_opts)[0]
                acc["nml"][s] = np.sum(np.abs(H_hat - H) ** 2, axis=(1, 2)) / (M * K)
        return acc

    blocks = run_blocks(n_trials, block, seed)
    out = {}
    for name in names:
        samples = np.concatenate([b[name] for b in blocks])
        out[name] = (
            float(samples.mean()),
            float(samples.std(ddof=1) / np.sqrt(len(samples))),
        )
    return out


def _ls_filter(Phi, cfg):
    return np.linalg.pinv(_pilot_model(Phi, cfg))


def _mse_table(names, points) -> ResultTable:
    """Table of snr_db, mse_<name>..., se_mse_<name>... per (snr_db, result) pair."""
    cols = ["snr_db"] + [f"mse_{n}" for n in names] + [f"se_mse_{n}" for n in names]
    rows = [[s] + [r[n][0] for n in names] + [r[n][1] for n in names] for s, r in points]
    return ResultTable(cols, rows)


def fig2_mse(spec: ExperimentSpec) -> ResultTable:
    p = spec.sweep
    points = []
    for i, snr_db in enumerate(_aslist(p["snr_db"])):
        rho = db_to_linear(snr_db)
        cfg = SystemConfig(M=p["m"], K=p["k"], tau=p["tau"], T=p["t"], rho_p=rho)
        Phi = dft_pilots(cfg.tau, cfg.K)
        filters = {
            "blmmse": blmmse_filter(Phi, cfg)[0],
            "ls": _ls_filter(Phi, cfg),
            "uncorr": lmmse_uncorrelated_filter(Phi, cfg)[0],
        }
        # the published nML curve constrains the squared norm to K
        nml_opts = {"radius_sq": float(p["k"]), "max_iters": p["nml_max_iters"]}
        res = _mse_point(cfg, Phi, filters, nml_opts, spec.n_trials, (spec.seed, i))
        points.append((snr_db, res))
    return _mse_table(("blmmse", "ls", "nml", "uncorr"), points)


def fig3_corr_mse(spec: ExperimentSpec) -> ResultTable:
    p = spec.sweep
    Cm = laplacian_covariance(p["m"], p["mean_angle_deg"], p["spread_deg"])
    C_h = np.kron(np.eye(p["k"]), Cm)
    eigval, eigvec = np.linalg.eigh(Cm)
    root = eigvec * np.sqrt(np.clip(eigval, 0.0, None))
    points = []
    for i, snr_db in enumerate(_aslist(p["snr_db"])):
        rho = db_to_linear(snr_db)
        cfg = SystemConfig(M=p["m"], K=p["k"], tau=p["tau"], T=p["t"], rho_p=rho)
        Phi = dft_pilots(cfg.tau, cfg.K)
        filters = {
            "blmmse": blmmse_filter(Phi, cfg, C_h)[0],
            "uncorr": lmmse_uncorrelated_filter(Phi, cfg, C_h)[0],
        }
        res = _mse_point(cfg, Phi, filters, None, spec.n_trials, (spec.seed, i), root)
        points.append((snr_db, res))
    return _mse_table(("blmmse", "uncorr"), points)


# --------------------------------------------------------------------------
# rate experiments


def fig4_se_vs_snr(spec: ExperimentSpec) -> ResultTable:
    p = spec.sweep
    rows = []
    i = 0
    for m in _aslist(p["m"]):
        for snr_db in _aslist(p["snr_db"]):
            rho = db_to_linear(snr_db)
            cfg = SystemConfig(
                M=m, K=p["k"], tau=p["tau"], T=p["t"], rho_p=rho, rho_d=rho
            )
            mc_mrc = ergodic_rate_mc(cfg, "mrc", spec.n_trials, (spec.seed, i))
            mc_zf = ergodic_rate_mc(cfg, "zf", spec.n_trials, (spec.seed, i + 1))
            i += 2
            pref = (cfg.T - cfg.tau) / cfg.T * cfg.K
            rows.append(
                [
                    m,
                    snr_db,
                    mc_mrc.sum_spectral_efficiency,
                    pref * rate_mrc_closed(cfg),
                    mc_zf.sum_spectral_efficiency,
                    pref * rate_zf_closed(cfg),
                    mc_mrc.stderr,
                    mc_zf.stderr,
                ]
            )
    cols = [
        "m",
        "snr_db",
        "sumse_mrc_mc",
        "sumse_mrc_closed",
        "sumse_zf_mc",
        "sumse_zf_closed",
        "se_sumse_mrc_mc",
        "se_sumse_zf_mc",
    ]
    return ResultTable(cols, rows)


def fig5_power_eff(spec: ExperimentSpec) -> ResultTable:
    p = spec.sweep
    K, tau, T = p["k"], p["tau"], p["t"]
    E_u = db_to_linear(p["e_u_db"])
    rho_p1 = db_to_linear(p["rho_p_case1_db"])
    pref = (T - tau) / T * K
    lim_cfg = SystemConfig(M=1, K=K, tau=tau, T=T, rho_p=rho_p1)
    lim1 = power_scaling_limit("I", lim_cfg, E_u)
    lim2 = power_scaling_limit("II", lim_cfg, E_u)
    rows = []
    for m in _aslist(p["m"]):
        c1 = SystemConfig(M=m, K=K, tau=tau, T=T, rho_p=rho_p1, rho_d=E_u / m)
        r2 = E_u / np.sqrt(m)
        c2 = SystemConfig(M=m, K=K, tau=tau, T=T, rho_p=r2, rho_d=r2)
        rows.append(
            [
                m,
                pref * rate_mrc_closed(c1),
                pref * rate_zf_closed(c1),
                pref * rate_mrc_closed(c2),
                pref * rate_zf_closed(c2),
                lim1,
                lim2,
            ]
        )
    cols = [
        "m",
        "sumse_case1_mrc",
        "sumse_case1_zf",
        "sumse_case2_mrc",
        "sumse_case2_zf",
        "limit_case1",
        "limit_case2",
    ]
    return ResultTable(cols, rows)


def fig6_bit_energy(spec: ExperimentSpec) -> ResultTable:
    p = spec.sweep
    K, T = p["k"], p["t"]
    rows = []
    for m in _aslist(p["m"]):
        for rho_db in _aslist(p["rho_db"]):
            rho = db_to_linear(rho_db)
            P = rho * T
            row = [m, rho_db]
            for rec in ("mrc", "zf"):
                closed = rate_mrc_closed if rec == "mrc" else rate_zf_closed
                bench_cfg = SystemConfig(M=m, K=K, tau=K, T=T, rho_p=rho, rho_d=rho)
                se_b = (T - K) / T * K * closed(bench_cfg)
                se_o, _, _ = _optimize_numeric(P, T, m, K, rec, "one-bit", 200, T)
                row += [se_b, P / se_b, se_o, P / se_o]
            rows.append(row)
    cols = [
        "m",
        "rho_db",
        "sumse_benchmark_mrc",
        "zeta_benchmark_mrc",
        "sumse_optimal_mrc",
        "zeta_optimal_mrc",
        "sumse_benchmark_zf",
        "zeta_benchmark_zf",
        "sumse_optimal_zf",
        "zeta_optimal_zf",
    ]
    return ResultTable(cols, rows)


def fig7_opt_tau(spec: ExperimentSpec) -> ResultTable:
    p = spec.sweep
    K, m = p["k"], p["m"]
    rows = []
    for t in _aslist(p["t"]):
        for rho_db in _aslist(p["rho_db"]):
            P = db_to_linear(rho_db) * t
            row = [t, rho_db]
            for system in ("one-bit", "conventional"):
                for rec in ("mrc", "zf"):
                    _, _, tau = _optimize_numeric(P, t, m, K, rec, system, 200, t)
                    row.append(tau)
            rows.append(row)
    cols = [
        "t",
        "rho_db",
        "tau_onebit_mrc",
        "tau_onebit_zf",
        "tau_conv_mrc",
        "tau_conv_zf",
    ]
    return ResultTable(cols, rows)


def fig8_se_vs_m(spec: ExperimentSpec) -> ResultTable:
    p = spec.sweep
    K, T = p["k"], p["t"]
    P = db_to_linear(p["rho_db"]) * T
    rows = []
    for m in _aslist(p["m"]):
        row = [m]
        for system in ("one-bit", "conventional"):
            for rec in ("mrc", "zf"):
                se, _, _ = _optimize_numeric(P, T, m, K, rec, system, 200, T)
                row.append(se)
        rows.append(row)
    cols = ["m", "sumse_onebit_mrc", "sumse_onebit_zf", "sumse_conv_mrc", "sumse_conv_zf"]
    return ResultTable(cols, rows)


def fig9_kappa(spec: ExperimentSpec) -> ResultTable:
    p = spec.sweep
    K, T, m_conv = p["k"], p["t"], p["m_conv"]
    cfg = SystemConfig(M=m_conv, K=K, tau=K, T=T)
    rows = []
    for rho_db in _aslist(p["rho_db"]):
        budget = PowerBudget(rho=db_to_linear(rho_db), T=T)
        row = [rho_db]
        for rec in ("mrc", "zf"):
            for mode in ("benchmark", "optimized"):
                kappa = antenna_ratio(budget, cfg, rec, m_conv, mode=mode)
                row.append(kappa)
                row.append(np.ceil(kappa * m_conv) if np.isfinite(kappa) else np.inf)
        rows.append(row)
    cols = [
        "rho_db",
        "kappa_benchmark_mrc",
        "m_one_benchmark_mrc",
        "kappa_optimized_mrc",
        "m_one_optimized_mrc",
        "kappa_benchmark_zf",
        "m_one_benchmark_zf",
        "kappa_optimized_zf",
        "m_one_optimized_zf",
    ]
    return ResultTable(cols, rows)


def _span(a, b, step):
    return [round(a + i * step, 10) for i in range(int(round((b - a) / step)) + 1)]


FIGURES = {
    "fig2_mse": FigureDef(
        fig2_mse,
        {
            "m": 16,
            "k": 4,
            "tau": 20,
            "t": 200,
            "snr_db": _span(-20, 20, 5),
            "nml_max_iters": 200,
        },
        150,
        "channel-estimator MSE vs SNR (BLMMSE, LS, nML, uncorrelated-noise LMMSE)",
    ),
    "fig3_corr_mse": FigureDef(
        fig3_corr_mse,
        {
            "m": 16,
            "k": 1,
            "tau": 2,
            "t": 200,
            "snr_db": _span(-10, 30, 5),
            "spread_deg": 10.0,
            "mean_angle_deg": 70.0,
        },
        2000,
        "estimator MSE vs SNR over a spatially correlated (Laplacian) channel",
    ),
    "fig4_se_vs_snr": FigureDef(
        fig4_se_vs_snr,
        {"m": [32, 64, 128], "k": 8, "tau": 8, "t": 200, "snr_db": _span(-20, 0, 2)},
        1000,
        "sum spectral efficiency vs SNR: MC lower bound and closed forms",
        m_exceeds_k=True,
    ),
    "fig5_power_eff": FigureDef(
        fig5_power_eff,
        {
            "m": [int(x) for x in np.unique(np.logspace(1.5, 4, 40).astype(int))],
            "k": 8,
            "tau": 8,
            "t": 200,
            "e_u_db": 0.0,
            "rho_p_case1_db": 10.0,
        },
        1,
        "power-scaling laws: SE vs M for rho_d = E_u/M and rho = E_u/sqrt(M)",
        m_exceeds_k=True,
    ),
    "fig6_bit_energy": FigureDef(
        fig6_bit_energy,
        {"m": [128, 256], "k": 8, "t": 200, "rho_db": _span(-20, 10, 2)},
        1,
        "bit energy vs sum SE, benchmark vs optimal allocation",
        m_exceeds_k=True,
        t_exceeds_k=True,
    ),
    "fig7_opt_tau": FigureDef(
        fig7_opt_tau,
        {"m": 128, "k": 8, "t": _span(50, 500, 25), "rho_db": [-15.0, -6.0]},
        1,
        "optimal training length vs coherence interval",
        m_exceeds_k=True,
        t_exceeds_k=True,
    ),
    "fig8_se_vs_m": FigureDef(
        fig8_se_vs_m,
        {"m": _span(50, 600, 50), "k": 8, "t": 200, "rho_db": -10.0},
        1,
        "sum SE vs antenna count, one-bit vs conventional, optimal allocation",
        m_exceeds_k=True,
        t_exceeds_k=True,
    ),
    "fig9_kappa": FigureDef(
        fig9_kappa,
        {"m_conv": 128, "k": 8, "t": 200, "rho_db": _span(-20, 10, 5)},
        1,
        "antenna ratio kappa for equal SE, benchmark and optimized modes",
        m_exceeds_k=True,
        t_exceeds_k=True,
    ),
}


def figure_ids() -> list:
    return sorted(FIGURES)
