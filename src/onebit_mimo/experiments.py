"""Figure-reproduction experiments: registry, grid runner, CSV and manifest output.

Each registered figure is a point function over a parameter grid: its sweep
keys are the parameters whose default is a list, and each grid point maps to
one row of the result table. Runs are pure functions of (resolved parameters,
seed): rerunning a manifest reproduces the CSV byte for byte. Monte Carlo
metrics always carry a standard-error column (prefix ``se_``).
"""

from __future__ import annotations

import csv
import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .allocation import antenna_ratio, bit_energy, optimize_allocation, power_scaling_limit
from .channel import _psd_root, dft_pilots, laplacian_covariance
from .config import SystemConfig, db_to_linear
from .estimators import (
    _iid_filter,
    _ls_pinv,
    _nml_solve,
    blmmse_filter,
    lmmse_uncorrelated_filter,
)
from .mc import training_trials
from .rates import _closed_se, ergodic_rate_mc

__all__ = [
    "ExperimentSpec",
    "SpecError",
    "ResultTable",
    "FIGURES",
    "figure_ids",
    "run_experiment",
    "emit_manifest",
]


# the largest |_db| value, closed-form M and allocation T that validate accepts
_DB_LIMIT = 300
_M_LIMIT = 10**12
_T_LIMIT = 10**4


class SpecError(ValueError):
    """An ExperimentSpec that breaks an invariant of its figure.

    ``keys`` names the offending key first, then the key it was checked
    against, e.g. ``("tau", "k")``.
    """

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


@dataclass
class ExperimentSpec:
    """One experiment run: figure, resolved sweep parameters, trials, seed, output."""

    figure_id: str
    sweep: dict = field(default_factory=dict)
    n_trials: int = 0  # 0 = figure default
    seed: int = 0
    output_path: str = ""

    def resolved(self) -> "ExperimentSpec":
        """The spec with its figure's defaults filled in; SpecError if it is invalid."""
        sweep = _checked_sweep(self)
        return ExperimentSpec(
            figure_id=self.figure_id,
            sweep=sweep,
            n_trials=self.n_trials or FIGURES[self.figure_id].default_trials,
            seed=self.seed,
            output_path=_checked_output(self.output_path or f"{self.figure_id}.csv"),
        )


def _checked_sweep(spec: ExperimentSpec) -> dict:
    """The spec's sweep over its figure's defaults, checked against every invariant."""
    fid = spec.figure_id
    if not isinstance(fid, str) or fid not in FIGURES:
        msg = f"unknown figure {fid!r}; choose from {', '.join(figure_ids())}"
        raise SpecError(msg, "figure_id")
    fig = FIGURES[fid]
    for key, val in spec.sweep.items():
        if key not in fig.defaults:
            msg = f"unknown parameter {key!r} for {fid} (expected one of {sorted(fig.defaults)})"
            raise SpecError(msg, key)
        if val == []:
            raise SpecError(f"{key} takes at least one value, got []", key)
        for v in _aslist(val):
            # abs(v) compares an int beyond the float range without converting it
            if not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
                msg = f"{key} must be a finite number in float range, got {v!r}"
                raise SpecError(msg, key)
            if key.endswith("_db") and not -_DB_LIMIT <= v <= _DB_LIMIT:
                msg = f"{key} must be between -{_DB_LIMIT} and {_DB_LIMIT} dB, got {v!r}"
                raise SpecError(msg, key)
    if not isinstance(spec.seed, int):
        raise SpecError(f"seed must be an integer, got {spec.seed!r}", "seed")
    if spec.seed < 0:  # numpy's SeedSequence takes nonnegative entropy only
        raise SpecError(f"seed must be a nonnegative integer, got {spec.seed}", "seed")
    n = spec.n_trials
    if not isinstance(n, int) or n < 0:
        raise SpecError(f"n_trials must be a nonnegative integer, got {n!r}", "n_trials")
    monte_carlo = fig.default_trials > 1
    if monte_carlo and n == 1:
        raise SpecError(
            f"n_trials = 1 leaves no standard error; "
            f"{fid} is a Monte Carlo figure and needs n_trials >= 2",
            "n_trials",
        )
    p = {**fig.defaults, **spec.sweep}
    # k, tau and t count users, pilots and symbols; Monte Carlo figures draw m antennas too
    for name in ("m", "k", "tau", "t") if monte_carlo else ("k", "tau", "t"):
        why = f"; {fid} is a Monte Carlo figure" if name == "m" else ""
        for v in _aslist(p.get(name, [])):
            if not isinstance(v, int):
                raise SpecError(f"{name} must be an integer, got {v!r}{why}", name)
    iters = p.get("nml_max_iters", 1)
    if not isinstance(iters, int) or iters < 1:
        msg = f"nml_max_iters must be an integer >= 1, got {iters!r}"
        raise SpecError(msg, "nml_max_iters")
    for key, val in spec.sweep.items():
        if isinstance(val, list) and key not in fig.grid:
            msg = f"{key} takes one value, got a list; {fid} sweeps only {', '.join(fig.grid)}"
            raise SpecError(msg, key)
    # fig3's Laplacian angular spectrum (channel.laplacian_covariance)
    if p.get("spread_deg", 1) <= 0:
        raise SpecError(f"spread_deg must be > 0, got {p['spread_deg']!r}", "spread_deg")
    if not -90 < p.get("mean_angle_deg", 0) < 90:
        msg = f"mean_angle_deg must lie strictly inside (-90, 90), got {p['mean_angle_deg']!r}"
        raise SpecError(msg, "mean_angle_deg")

    # order rules (key, bound, why): each value of key is >= 1 or >= each value of the
    # bound key, > it where a why is given; one key's rules are checked value by value
    rules = [("k", 1, ""), ("tau", "k", ""), ("t", "tau", "")]
    if "tau" not in fig.defaults:  # an allocation figure: it optimizes tau over [K, T]
        rules.append(("t", "k", f"{fid} optimizes tau in [K, T], which needs T > K"))
    for name in ("m", "m_conv"):
        rules.append((name, 1, ""))
        if fig.m_exceeds_k:
            rules.append((name, "k", f"{fid} evaluates the ZF closed form, which needs M > K"))
    for key, group in itertools.groupby(rules, lambda rule: rule[0]):
        for a, (_, bound, why) in itertools.product(_aslist(p.get(key, [])), group):
            for b in [1] if bound == 1 else _aslist(p.get(bound, [])):
                if a < b or (why and a == b):
                    if bound == 1:
                        raise SpecError(f"{key} must be >= 1", key)
                    rule = f"violates {bound} <= {key} ({bound} = {b})"
                    rule = f"must exceed {bound} ({b}); {why}" if why else rule
                    raise SpecError(f"{key} ({a}) {rule}", key, bound)
    # upper bounds (key, limit, why): the closed forms overflow as M nears the float
    # maximum, and an allocation figure's run time grows with the tau it scans
    limits = [] if monte_carlo else [(name, _M_LIMIT, "") for name in ("m", "m_conv")]
    if "tau" not in fig.defaults:
        limits.append(("t", _T_LIMIT, f"; {fid} scans every tau in [K, T]"))
    for key, limit, why in limits:
        for v in _aslist(p.get(key, [])):
            if v > limit:
                raise SpecError(f"{key} must be at most {limit:,}, got {v!r}{why}", key)
    return p


def _output_files(output_path) -> tuple[Path, Path, Path]:
    """The CSV, plot stub and manifest that a run with this output path writes."""
    out = Path(output_path)
    return out, out.with_suffix(".gp"), out.with_suffix(".manifest.json")


def _checked_output(output_path):
    """The output path, if the run's CSV, plot stub and manifest can be written there."""
    out = Path(output_path)
    if out.name in ("", "..") or out.is_dir():  # 'x/..' is one once write_csv makes x
        problem = "is a directory"
    elif not (parent := next(p for p in out.parents if p.exists())).is_dir():
        problem = f"lies under {parent}, which is a file"
    elif out == _output_files(out)[1]:
        problem = "is also the name of its plot stub; give it a suffix other than .gp"
    elif dirs := [str(path) for path in _output_files(out)[1:] if path.is_dir()]:
        problem = f"would write over the directory {dirs[0]}"
    else:
        return output_path
    raise SpecError(f"output {output_path} {problem}", "output_path")


@dataclass
class ResultTable:
    columns: list
    rows: list

    def column(self, name: str) -> np.ndarray:
        i = self.columns.index(name)
        return np.array([row[i] for row in self.rows])


@dataclass(frozen=True)
class FigureDef:
    point: object  # (params, n_trials, seed) -> {column: value} of one grid point
    defaults: dict
    default_trials: int
    description: str
    m_exceeds_k: bool = False  # evaluates the ZF closed form, defined for M > K only

    @property
    def grid(self) -> list:
        """Sweep keys: the keys whose default is a list, in declaration order."""
        return [key for key, val in self.defaults.items() if isinstance(val, list)]


def _aslist(v) -> list:
    return v if isinstance(v, list) else [v]


def _linear_params(params: dict) -> dict:
    """Linear value of each ``<name>_db`` parameter, or of each element of its list."""
    return {
        key.removesuffix("_db"): (
            [db_to_linear(v) for v in val] if isinstance(val, list) else db_to_linear(val)
        )
        for key, val in params.items()
        if key.endswith("_db")
    }


def write_csv(table: ResultTable, path: str | Path) -> None:
    """RFC-4180-style CSV, LF newlines, 15-significant-digit floats."""
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(table.columns)
        for row in table.rows:
            w.writerow(f"{v:.15g}" for v in row)


def write_plot_stub(table: ResultTable, csv_path: str | Path) -> Path:
    """Gnuplot-style description of how to plot the CSV columns."""
    csv_path, stub, _ = _output_files(csv_path)
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
    stderr_cols = [c for c in table.columns if c.startswith("se_")]
    manifest = {
        "figure": spec.figure_id,
        "parameters": params,
        "parameters_linear": _linear_params(params),
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
    """Execute a registered figure experiment; writes CSV, plot stub, manifest.

    Grid point i, the i-th combination of sweep values (the first sweep key
    varies slowest), is evaluated with seed (spec.seed, i) and gives the row:
    its sweep values, then the point's columns.
    """
    spec = spec.resolved()
    fig = FIGURES[spec.figure_id]
    table = ResultTable(fig.grid, [])
    axes = [_aslist(spec.sweep[key]) for key in fig.grid]
    for i, values in enumerate(itertools.product(*axes)):
        params = {**spec.sweep, **dict(zip(fig.grid, values))}
        point = fig.point(params, spec.n_trials, (spec.seed, i))
        table.columns = [*fig.grid, *point]
        table.rows.append([*values, *point.values()])
    out, _, manifest = _output_files(spec.output_path)
    write_csv(table, out)
    write_plot_stub(table, out)
    emit_manifest(spec, table, manifest)
    return table


# --------------------------------------------------------------------------
# figure points: each maps one grid point's parameters to {column: value}


_RECEIVERS = ("mrc", "zf")
_SYSTEMS = {"onebit": "one-bit", "conv": "conventional"}  # column tag: allocation system


def _mse_point(cfg, Phi, filters, nml_opts, n_trials, seed, root=None):
    """Mean and standard error of the normalized MSE per estimator.

    The trials of :func:`mc.training_trials` (channels root @ CN(0, I),
    i.i.d. for root None) give the same observations to each linear filter
    and, unless nml_opts is None, to nML, which solves a whole stack at once
    (:func:`estimators._nml_solve`). A K x tau filter G stands for G kron I_M
    and is applied to the training matrices as H_hat = R G^T; any other
    filter is a dense MK x M tau matrix applied to vec(R).
    """
    M, K, tau = cfg.M, cfg.K, cfg.tau
    names = [*filters, *([] if nml_opts is None else ["nml"])]

    def mse(H, R):
        r = np.swapaxes(R, 1, 2).reshape(-1, M * tau, 1)  # vec(R) per trial
        h = np.swapaxes(H, 1, 2).reshape(-1, M * K)
        sq = []
        for G in filters.values():
            if G.shape == (K, tau):
                err = np.swapaxes(R @ G.T, 1, 2).reshape(-1, M * K) - h
            else:
                err = (G @ r)[..., 0] - h
            sq.append(np.sum(np.abs(err) ** 2, axis=1))
        if nml_opts is not None:
            H_hat = _nml_solve(r[..., 0], Phi, cfg, **nml_opts)[0]
            sq.append(np.sum(np.abs(H_hat - H) ** 2, axis=(1, 2)))
        return np.stack(sq, axis=1) / (M * K)

    samples = np.concatenate(training_trials(cfg, Phi, n_trials, seed, mse, root))
    return {
        name: (float(x.mean()), float(x.std(ddof=1) / np.sqrt(len(x))))
        for name, x in zip(names, samples.T)
    }


def _mse_columns(res) -> dict:
    """Columns mse_<name>..., then se_mse_<name>..., of a _mse_point result, by name."""
    return {
        f"{pre}mse_{n}": res[n][j] for j, pre in enumerate(("", "se_")) for n in sorted(res)
    }


def fig2_mse(p, n_trials, seed) -> dict:
    rho = db_to_linear(p["snr_db"])
    cfg = SystemConfig(M=p["m"], K=p["k"], tau=p["tau"], T=p["tau"], rho_p=rho)
    Phi = dft_pilots(cfg.tau, cfg.K)
    filters = {
        "blmmse": _iid_filter(Phi, cfg)[0],
        "ls": _ls_pinv(Phi, cfg),
        "uncorr": _iid_filter(Phi, cfg, uncorrelated=True)[0],
    }
    # the published nML curve constrains the squared norm to K
    nml_opts = {"radius_sq": float(p["k"]), "max_iters": p["nml_max_iters"]}
    return _mse_columns(_mse_point(cfg, Phi, filters, nml_opts, n_trials, seed))


def fig3_corr_mse(p, n_trials, seed) -> dict:
    Cm = laplacian_covariance(p["m"], p["mean_angle_deg"], p["spread_deg"])
    C_h = np.kron(np.eye(p["k"]), Cm)
    rho = db_to_linear(p["snr_db"])
    cfg = SystemConfig(M=p["m"], K=p["k"], tau=p["tau"], T=p["tau"], rho_p=rho)
    Phi = dft_pilots(cfg.tau, cfg.K)
    filters = {
        "blmmse": blmmse_filter(Phi, cfg, C_h)[0],
        "uncorr": lmmse_uncorrelated_filter(Phi, cfg, C_h)[0],
    }
    return _mse_columns(_mse_point(cfg, Phi, filters, None, n_trials, seed, _psd_root(Cm)))


def fig4_se_vs_snr(p, n_trials, seed) -> dict:
    rho = db_to_linear(p["snr_db"])
    cfg = SystemConfig(M=p["m"], K=p["k"], tau=p["tau"], T=p["t"], rho_p=rho, rho_d=rho)
    base, i = seed
    # both receivers on the same draws; (base, 2i), not (base, i), keeps the
    # MRC columns on the stream they have been published with
    reports = ergodic_rate_mc(cfg, _RECEIVERS, n_trials, (base, 2 * i))
    out, se = {}, {}
    for rec, mc in zip(_RECEIVERS, reports):
        out[f"sumse_{rec}_mc"] = mc.sum_spectral_efficiency
        out[f"sumse_{rec}_closed"] = _closed_se(cfg, rec)
        se[f"se_sumse_{rec}_mc"] = mc.stderr
    return out | se


def fig5_power_eff(p, n_trials, seed) -> dict:
    m, K, tau, T = p["m"], p["k"], p["tau"], p["t"]
    E_u = db_to_linear(p["e_u_db"])
    rho_p1 = db_to_linear(p["rho_p_case1_db"])
    r2 = E_u / np.sqrt(m)
    cases = {
        "case1": SystemConfig(M=m, K=K, tau=tau, T=T, rho_p=rho_p1, rho_d=E_u / m),
        "case2": SystemConfig(M=m, K=K, tau=tau, T=T, rho_p=r2, rho_d=r2),
    }
    lim_cfg = SystemConfig(M=1, K=K, tau=tau, T=T, rho_p=rho_p1)
    return {
        f"sumse_{case}_{rec}": _closed_se(cfg, rec)
        for case, cfg in cases.items()
        for rec in _RECEIVERS
    } | {
        "limit_case1": power_scaling_limit("I", lim_cfg, E_u),
        "limit_case2": power_scaling_limit("II", lim_cfg, E_u),
    }


def fig6_bit_energy(p, n_trials, seed) -> dict:
    m, K, T = p["m"], p["k"], p["t"]
    rho = db_to_linear(p["rho_db"])
    bench_cfg = SystemConfig(M=m, K=K, tau=K, T=T, rho_p=rho, rho_d=rho)
    out = {}
    for rec in _RECEIVERS:
        sol = optimize_allocation(rho, bench_cfg, rec)
        se_b = _closed_se(bench_cfg, rec)
        out |= {f"sumse_benchmark_{rec}": se_b, f"zeta_benchmark_{rec}": bit_energy(sol, se_b)}
        out |= {f"sumse_optimal_{rec}": sol.se_star, f"zeta_optimal_{rec}": bit_energy(sol)}
    return out


def _optimal(p, column: str, field: str) -> dict:
    """One field of the optimal allocation per system and receiver (fig7, fig8)."""
    m, K, T = p["m"], p["k"], p["t"]
    rho, cfg = db_to_linear(p["rho_db"]), SystemConfig(M=m, K=K, tau=K, T=T)
    return {
        f"{column}_{name}_{rec}": getattr(optimize_allocation(rho, cfg, rec, system), field)
        for name, system in _SYSTEMS.items()
        for rec in _RECEIVERS
    }


def fig7_opt_tau(p, n_trials, seed) -> dict:
    return _optimal(p, "tau", "tau_star")


def fig8_se_vs_m(p, n_trials, seed) -> dict:
    return _optimal(p, "sumse", "se_star")


def fig9_kappa(p, n_trials, seed) -> dict:
    m_conv = p["m_conv"]
    cfg = SystemConfig(M=m_conv, K=p["k"], tau=p["k"], T=p["t"])
    rho = db_to_linear(p["rho_db"])
    out = {}
    for rec in _RECEIVERS:
        for mode in ("benchmark", "optimized"):
            kappa = antenna_ratio(rho, cfg, rec, mode=mode)
            out[f"kappa_{mode}_{rec}"] = kappa
            out[f"m_one_{mode}_{rec}"] = np.ceil(kappa * m_conv)
    return out


def _span(a, b, step):
    # floor, so that no value passes b; 1e-9 keeps b when (b - a) / step rounds
    # just below an integer, as 0.3 / 0.1 = 2.9999999999999996 does
    return [round(a + i * step, 10) for i in range(int((b - a) / step + 1e-9) + 1)]


FIGURES = {
    "fig2_mse": FigureDef(
        fig2_mse,
        {
            "m": 16,
            "k": 4,
            "tau": 20,
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
            "m": sorted({int(x) for x in np.logspace(1.5, 4, 40).astype(int)}),
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
    ),
    "fig7_opt_tau": FigureDef(
        fig7_opt_tau,
        {"m": 128, "k": 8, "t": _span(50, 500, 25), "rho_db": [-15.0, -6.0]},
        1,
        "optimal training length vs coherence interval",
        m_exceeds_k=True,
    ),
    "fig8_se_vs_m": FigureDef(
        fig8_se_vs_m,
        {"m": _span(50, 600, 50), "k": 8, "t": 200, "rho_db": -10.0},
        1,
        "sum SE vs antenna count, one-bit vs conventional, optimal allocation",
        m_exceeds_k=True,
    ),
    "fig9_kappa": FigureDef(
        fig9_kappa,
        {"m_conv": 128, "k": 8, "t": 200, "rho_db": _span(-20, 10, 5)},
        1,
        "antenna ratio kappa for equal SE, benchmark and optimized modes",
        m_exceeds_k=True,
    ),
}


def figure_ids() -> list:
    return sorted(FIGURES)
