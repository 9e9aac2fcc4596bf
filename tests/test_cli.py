import csv
import dataclasses
import json
import math
import os
import re
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebit_mimo import (
    SystemConfig,
    dft_pilots,
    ergodic_rate_mc,
    laplacian_covariance,
    one_bit_quantize,
    vec,
)
from onebit_mimo.channel import crandn
from onebit_mimo.cli import ConfigError, _parse_value, main, validate_config
from onebit_mimo import experiments, mc
from onebit_mimo.estimators import (
    _iid_filter,
    _nml_solve,
    blmmse_filter,
    lmmse_uncorrelated_filter,
    nml_estimate,
)
from onebit_mimo.experiments import (
    _M_LIMIT,
    _T_LIMIT,
    FIGURES,
    ExperimentSpec,
    SpecError,
    _mse_point,
    figure_ids,
    run_experiment,
)
from onebit_mimo.mc import run_blocks, trial_stacks


def _write(tmp_path, text, name="cfg.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestConfigParsing:
    def test_defaults_applied(self, tmp_path):
        p = _write(tmp_path, "figure = fig2_mse\n")
        spec = validate_config(p)
        assert "t" not in spec.sweep  # estimation has no coherence interval
        assert spec.sweep["m"] == 16
        assert spec.n_trials == 150
        assert spec.output_path == "fig2_mse.csv"

    def test_range_and_list_values(self, tmp_path):
        p = _write(
            tmp_path,
            "figure = fig4_se_vs_snr\nsnr_db = -20:5:-10\nm = 32, 64\nseed = 5\n",
        )
        spec = validate_config(p)
        assert spec.sweep["snr_db"] == [-20, -15, -10]
        assert spec.sweep["m"] == [32, 64]
        assert spec.seed == 5

    def test_comments_and_blank_lines(self, tmp_path):
        p = _write(tmp_path, "# a comment\n\nfigure = fig5_power_eff  # trailing\n")
        assert validate_config(p).figure_id == "fig5_power_eff"

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        # the line was cut at its first '#', so the run wrote run, run.gp and
        # run.manifest.json; a '#' starts a comment only after whitespace
        out = tmp_path / "run#1.csv"
        p = _write(tmp_path, f"figure = fig5_power_eff\nm = 16, 32\noutput = {out}\t# here\n")
        assert main(["run", str(p)]) == 0
        names = {"cfg.txt", "run#1.csv", "run#1.gp", "run#1.manifest.json"}
        assert {f.name for f in tmp_path.iterdir()} == names
        assert json.loads((tmp_path / "run#1.manifest.json").read_text())["output"] == str(out)

    def test_tau_constraint_names_violation(self, tmp_path):
        p = _write(tmp_path, "figure = fig2_mse\nk = 8\ntau = 4\n")
        with pytest.raises(ConfigError, match=r"cfg.txt:3: tau \(4\) violates k <= tau"):
            validate_config(p)

    def test_t_constraint(self, tmp_path):
        p = _write(tmp_path, "figure = fig4_se_vs_snr\ntau = 20\nt = 10\n")
        with pytest.raises(ConfigError, match="violates tau <= t"):
            validate_config(p)

    @pytest.mark.parametrize("figure", ["fig2_mse", "fig3_corr_mse"])
    def test_estimation_figures_reject_t(self, tmp_path, figure):
        # their points never read a coherence interval
        p = _write(tmp_path, f"figure = {figure}\nseed = 1\nt = 200\n")
        with pytest.raises(ConfigError, match=r"cfg.txt:3: unknown parameter 't'"):
            validate_config(p)

    def test_unknown_figure(self, tmp_path):
        p = _write(tmp_path, "figure = fig99\n")
        with pytest.raises(ConfigError, match="unknown figure"):
            validate_config(p)

    def test_unknown_key_with_line(self, tmp_path):
        p = _write(tmp_path, "figure = fig2_mse\nbogus = 3\n")
        with pytest.raises(ConfigError, match="cfg.txt:2: unknown parameter 'bogus'"):
            validate_config(p)

    def test_duplicate_key(self, tmp_path):
        p = _write(tmp_path, "figure = fig2_mse\nm = 4\nm = 8\n")
        with pytest.raises(ConfigError, match="cfg.txt:3: duplicate key"):
            validate_config(p)

    def test_malformed_line(self, tmp_path):
        p = _write(tmp_path, "figure fig2_mse\n")
        with pytest.raises(ConfigError, match="cfg.txt:1"):
            validate_config(p)

    # 4000 dB overflows db_to_linear: validate used to die in an OverflowError,
    # and it now lies past the dB range
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "-10, nan", "0:1:inf", "0, 4000"])
    def test_nonfinite_value_rejected(self, tmp_path, text):
        p = _write(tmp_path, f"figure = fig2_mse\nsnr_db = {text}\n")
        rule = "must be between -300 and 300 dB" if text == "0, 4000" else "finite"
        with pytest.raises(ConfigError, match=f"cfg.txt:2: .*{rule}"):
            validate_config(p)

    @pytest.mark.parametrize("text", [",", " , ,"])
    def test_empty_list_rejected(self, tmp_path, text):
        # used to write a CSV with no rows, then die in the manifest's max_stderr
        p = _write(tmp_path, f"figure = fig2_mse\nsnr_db = {text}\n")
        with pytest.raises(ConfigError, match="cfg.txt:2: list .* has no values"):
            validate_config(p)

    def test_single_trial_rejected_for_monte_carlo_figure(self, tmp_path):
        p = _write(tmp_path, "figure = fig2_mse\nseed = 3\nn_trials = 1\n")
        with pytest.raises(ConfigError, match="cfg.txt:3: n_trials = 1"):
            validate_config(p)
        # closed-form figures run one trial by default
        p = _write(tmp_path, "figure = fig5_power_eff\nn_trials = 1\n")
        assert validate_config(p).n_trials == 1

    @pytest.mark.parametrize(
        "figure, text, line, name",
        [
            ("fig2_mse", "m = 16.5", 2, "m"),
            ("fig2_mse", "k = 2.0", 2, "k"),
            ("fig2_mse", "tau = 20.0", 2, "tau"),
            ("fig3_corr_mse", "m = 8.0", 2, "m"),
            ("fig4_se_vs_snr", "tau = 8.0", 2, "tau"),
            ("fig4_se_vs_snr", "m = 32, 64.0", 2, "m"),  # every list element
            ("fig4_se_vs_snr", "m = 30:0.5:31", 2, "m"),  # a float range
        ],
    )
    def test_monte_carlo_sizes_must_be_integers(self, tmp_path, figure, text, line, name):
        # these used to validate and then die at run with a TypeError
        p = _write(tmp_path, f"figure = {figure}\n{text}\nn_trials = 2\n")
        with pytest.raises(ConfigError, match=rf"cfg.txt:{line}: {name} must be an integer"):
            validate_config(p)

    def test_closed_form_figures_keep_real_sizes(self, tmp_path):
        p = _write(tmp_path, "figure = fig5_power_eff\nm = 100.5, 200\n")
        assert validate_config(p).sweep["m"] == [100.5, 200]

    @pytest.mark.parametrize(
        "figure, text",
        [
            ("fig7_opt_tau", "t = 100.5"),
            ("fig7_opt_tau", "t = 50, 100.5"),  # every list element
            ("fig9_kappa", "t = 100.5"),
            ("fig5_power_eff", "t = 200.0"),
            ("fig4_se_vs_snr", "t = 200.0"),
        ],
    )
    def test_coherence_interval_must_be_an_integer(self, tmp_path, figure, text):
        # t counts symbols: t = 100.5 used to run fig7 and fig9 to a CSV
        p = _write(tmp_path, f"figure = {figure}\nseed = 1\n{text}\n")
        with pytest.raises(ConfigError, match=r"cfg.txt:3: t must be an integer, got "):
            validate_config(p)

    @pytest.mark.parametrize("value", ["-3", "0", "2.5", "1, 2"])
    def test_nml_max_iters_must_be_a_positive_integer(self, tmp_path, value):
        # -3 used to run zero-iteration solves (every H_hat = 0); 2.5 died at run
        p = _write(tmp_path, f"figure = fig2_mse\nseed = 1\nnml_max_iters = {value}\n")
        with pytest.raises(ConfigError, match="cfg.txt:3: nml_max_iters must be an integer >= 1"):
            validate_config(p)
        p = _write(tmp_path, "figure = fig2_mse\nnml_max_iters = 1\n")
        assert validate_config(p).sweep["nml_max_iters"] == 1

    @pytest.mark.parametrize(
        "figure, text, message",
        [
            # linear 0.0: passed validate, then PowerBudget failed at run
            ("fig9_kappa", "rho_db = -4000", "rho_db must be between -300 and 300 dB, got -4000"),
            ("fig2_mse", "snr_db = 0, -4000", "snr_db must be between -300 and 300 dB, got -4000"),
            # an int beyond the float range: an OverflowError traceback
            ("fig2_mse", "m = 1" + "0" * 400, "m must be a finite number in float range"),
            # passed validate, then laplacian_covariance failed at run
            ("fig3_corr_mse", "spread_deg = 0", "spread_deg must be > 0"),
            ("fig3_corr_mse", "spread_deg = -5.0", "spread_deg must be > 0"),
            ("fig3_corr_mse", "mean_angle_deg = 90", "mean_angle_deg must lie strictly inside"),
            ("fig3_corr_mse", "mean_angle_deg = -90.0", "mean_angle_deg must lie strictly inside"),
            ("fig3_corr_mse", "mean_angle_deg = 120", "mean_angle_deg must lie strictly inside"),
            # 3000 dB is finite in linear scale; each ran into overflow warnings, then:
            # an OverflowError in power_scaling_limit
            ("fig5_power_eff", "e_u_db = 3000", "e_u_db must be between -300 and 300 dB"),
            ("fig8_se_vs_m", "rho_db = 3000", "rho_db must be between -300 and 300 dB"),  # nan SE
            ("fig7_opt_tau", "rho_db = 3000", "rho_db must be between -300 and 300 dB"),  # tau = T
            ("fig9_kappa", "rho_db = 3000", "rho_db must be between -300 and 300 dB"),  # ZF kappa inf
            ("fig2_mse", "snr_db = 3000", "snr_db must be between -300 and 300 dB"),  # nML overflow
            # inf SE cells from rates._sinr, an overflowing antenna_ratio search, and
            # 'config OK' then a ValueError from np.arange at run
            ("fig8_se_vs_m", "m = 1.7e308", "m must be at most 1,000,000,000,000, got 1.7e"),
            ("fig9_kappa", "m_conv = 1.7e308", "m_conv must be at most 1,000,000,000,000, got"),
            ("fig7_opt_tau", "t = 1" + "0" * 30, "t must be at most 10,000, got 1" + "0" * 30),
            # a MemoryError traceback from the 4e15 block sizes of mc.run_blocks
            ("fig4_se_vs_snr", "n_trials = 1" + "0" * 18, "n_trials must be at most 1,000,000"),
        ],
    )
    def test_value_that_failed_at_run_is_rejected_at_its_line(
        self, tmp_path, capsys, figure, text, message
    ):
        p = _write(tmp_path, f"figure = {figure}\nseed = 1\n{text}\n")
        with pytest.raises(ConfigError, match=f"cfg.txt:3: {message}"):
            validate_config(p)
        assert main(["validate", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {p}:3: {message}")

    def test_fig3_angles_inside_their_ranges_validate(self, tmp_path):
        p = _write(tmp_path, "figure = fig3_corr_mse\nspread_deg = 0.5\nmean_angle_deg = -89.5\n")
        spec = validate_config(p)
        assert (spec.sweep["spread_deg"], spec.sweep["mean_angle_deg"]) == (0.5, -89.5)

    def test_m_not_above_k_rejected_for_zf_closed_form_figures(self, tmp_path):
        p = _write(tmp_path, "figure = fig4_se_vs_snr\nm = 8\nk = 8\nn_trials = 2\n")
        with pytest.raises(ConfigError, match=r"cfg.txt:2: m \(8\) must exceed k \(8\)"):
            validate_config(p)
        p = _write(tmp_path, "figure = fig5_power_eff\nm = 100, 8, 1000\n")
        with pytest.raises(ConfigError, match=r"cfg.txt:2: m \(8\) must exceed k \(8\)"):
            validate_config(p)
        # a k line pointing past the default m list is reported at the k line
        p = _write(tmp_path, "figure = fig6_bit_energy\nk = 128\n")
        with pytest.raises(ConfigError, match=r"cfg.txt:2: m \(128\) must exceed k"):
            validate_config(p)
        # the MSE figures evaluate no ZF closed form
        p = _write(tmp_path, "figure = fig2_mse\nm = 4\nk = 4\ntau = 4\n")
        assert validate_config(p).sweep["m"] == 4

    def test_m_not_above_k_rejected_for_allocation_figures(self, tmp_path):
        # fig8 used to validate, warn in log2 and write sumse_*_zf = 0
        p = _write(tmp_path, "figure = fig8_se_vs_m\nm = 4, 8, 50\nk = 8\n")
        with pytest.raises(ConfigError, match=r"cfg.txt:2: m \(4\) must exceed k \(8\)"):
            validate_config(p)
        p = _write(tmp_path, "figure = fig7_opt_tau\nk = 8\nm = 8\n")
        with pytest.raises(ConfigError, match=r"cfg.txt:3: m \(8\) must exceed k \(8\)"):
            validate_config(p)
        p = _write(tmp_path, "figure = fig9_kappa\nm_conv = 6\n")
        with pytest.raises(ConfigError, match=r"cfg.txt:2: m_conv \(6\) must exceed k \(8\)"):
            validate_config(p)
        # the default m_conv = 128 against a k line
        p = _write(tmp_path, "figure = fig9_kappa\nt = 500\nk = 128\n")
        with pytest.raises(ConfigError, match=r"cfg.txt:3: m_conv \(128\) must exceed k"):
            validate_config(p)
        p = _write(tmp_path, "figure = fig9_kappa\nm_conv = 9\n")
        assert validate_config(p).sweep["m_conv"] == 9

    def test_coherence_interval_must_exceed_k_for_allocation_figures(self, tmp_path):
        # fig7 with t < k used to validate and return tau* > T with -inf SE
        p = _write(tmp_path, "figure = fig7_opt_tau\nk = 8\nt = 4\n")
        with pytest.raises(ConfigError, match=r"cfg.txt:3: t \(4\) must exceed k \(8\)"):
            validate_config(p)
        p = _write(tmp_path, "figure = fig7_opt_tau\nt = 50, 8, 100\n")
        with pytest.raises(ConfigError, match=r"cfg.txt:2: t \(8\) must exceed k \(8\)"):
            validate_config(p)
        # the default t = 200 against a k line
        p = _write(tmp_path, "figure = fig6_bit_energy\nm = 300\nk = 200\n")
        with pytest.raises(ConfigError, match=r"cfg.txt:3: t \(200\) must exceed k"):
            validate_config(p)
        for fig in ("fig8_se_vs_m", "fig9_kappa"):
            p = _write(tmp_path, f"figure = {fig}\nt = 8\n")
            with pytest.raises(ConfigError, match=r"cfg.txt:2: t \(8\) must exceed k"):
                validate_config(p)
        p = _write(tmp_path, "figure = fig7_opt_tau\nt = 9\n")
        assert validate_config(p).sweep["t"] == 9
        # figures with a tau key keep the tau <= t check only
        p = _write(tmp_path, "figure = fig4_se_vs_snr\nt = 8\nn_trials = 2\n")
        assert validate_config(p).sweep["t"] == 8

    def test_range_types(self):
        # ints only when start, step and stop are all integer literals
        assert _parse_value("0:0.5:2") == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert all(type(v) is float for v in _parse_value("0:0.5:2"))
        assert all(type(v) is float for v in _parse_value("0:1:2.0"))
        ints = _parse_value("-20:5:20")
        assert ints == list(range(-20, 21, 5))
        assert all(type(v) is int for v in ints)
        # the last value never passes the stop, and a stop that the steps
        # reach up to rounding is kept
        assert _parse_value("0:4:6") == [0, 4]
        assert _parse_value("0:0.6:1") == [0.0, 0.6]
        assert _parse_value("0:0.1:0.3") == [0.0, 0.1, 0.2, 0.3]
        assert len(_parse_value("0:1:99999")) == experiments._RANGE_MAX

    # 0:1e-12:1 used to build its 10^12 values before any check, and
    # 0:1e-11:1e-10 gave 0.0 six times and 1e-10 five times
    @pytest.mark.parametrize(
        "text, rule",
        [
            ("0:1e-12:1", "more than 100000 values"),
            ("0:1e-7:1", "more than 100000 values"),
            ("0:1:100000", "more than 100000 values"),
            ("0:5e-324:1", "more than 100000 values"),
            ("-1e308:1:1e308", "more than 100000 values"),
            ("0:1e-11:1e-10", "strictly increasing"),
            ("1e16:1:1.0000000000000008e16", "strictly increasing"),
            pytest.param("0:1:1" + "0" * 400, "too large", id="int-stop-past-float"),
        ],
    )
    def test_range_refused_at_its_line(self, tmp_path, text, rule):
        p = _write(tmp_path, f"figure = fig4_se_vs_snr\nn_trials = 2\nsnr_db = {text}\n")
        with pytest.raises(ConfigError, match=f"cfg.txt:3: .*{rule}"):
            validate_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such config"):
            validate_config(tmp_path / "absent.txt")

    def test_config_path_that_is_a_directory(self, tmp_path, capsys):
        # used to end in an IsADirectoryError traceback with exit 1
        with pytest.raises(ConfigError, match=f"^{tmp_path}: cannot read the config file: "):
            validate_config(tmp_path)
        assert main(["validate", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path}: ")

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        # used to end in a UnicodeDecodeError traceback with exit 1
        p = tmp_path / "cfg.txt"
        # a Latin-1 degree sign in a comment
        p.write_bytes("figure = fig3_corr_mse\nspread_deg = 10  # 10\u00b0\n".encode("latin-1"))
        with pytest.raises(ConfigError, match=r"cfg.txt: not UTF-8 text \(byte 44:"):
            validate_config(p)
        assert main(["run", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {p}: not UTF-8 text")

    @pytest.mark.parametrize(
        "figure, text, line, name",
        [
            ("fig2_mse", "k = 0\ntau = 4", 2, "k"),
            ("fig2_mse", "tau = 4\nm = 0", 3, "m"),
            ("fig9_kappa", "rho_db = 0\nt = 50\nm_conv = 0", 4, "m_conv"),
        ],
    )
    def test_sizes_must_be_at_least_one(self, tmp_path, figure, text, line, name):
        p = _write(tmp_path, f"figure = {figure}\n{text}\n")
        with pytest.raises(ConfigError, match=rf"^{p}:{line}: {name} must be >= 1$"):
            validate_config(p)

    @pytest.mark.parametrize(
        "figure, text, line, key",
        [
            # fig2 used to validate, then die in SystemConfig with a TypeError
            ("fig2_mse", "k = 2\ntau = 4\nm = 4, 8", 4, "m"),
            ("fig5_power_eff", "e_u_db = 0, 3", 2, "e_u_db"),
            ("fig4_se_vs_snr", "k = 2, 4\nm = 32", 2, "k"),
            ("fig7_opt_tau", "m = 100:50:200", 2, "m"),
            ("fig9_kappa", "m_conv = 100, 200", 2, "m_conv"),
        ],
    )
    def test_list_rejected_for_a_key_that_does_not_sweep(
        self, tmp_path, figure, text, line, key
    ):
        p = _write(tmp_path, f"figure = {figure}\n{text}\nn_trials = 2\n")
        with pytest.raises(ConfigError, match=rf"cfg.txt:{line}: {key} takes one value"):
            validate_config(p)

    def test_seed_and_n_trials_errors_carry_their_line(self, tmp_path):
        p = _write(tmp_path, "figure = fig5_power_eff\nseed = abc\n")
        with pytest.raises(ConfigError, match="cfg.txt:2: seed must be an integer, got 'abc'$"):
            validate_config(p)
        p = _write(tmp_path, "figure = fig5_power_eff\nn_trials = -2\n")
        with pytest.raises(ConfigError, match="cfg.txt:2: n_trials must be a nonnegative"):
            validate_config(p)

    def test_negative_seed_rejected_at_its_line(self, tmp_path):
        # used to pass validate, then fail at run inside numpy's SeedSequence
        p = _write(tmp_path, "figure = fig4_se_vs_snr\nm = 16\nk = 2\ntau = 2\nseed = -3\n")
        with pytest.raises(
            ConfigError, match="cfg.txt:5: seed must be a nonnegative integer, got -3$"
        ):
            validate_config(p)

    @pytest.mark.parametrize("output", ["2026:10:20.csv", "1e3"])
    def test_output_keeps_its_text(self, tmp_path, monkeypatch, output):
        # parsed like a sweep value, a colon path failed as a range
        # ("could not convert string to float") and 1e3 became 1000.0
        monkeypatch.chdir(tmp_path)
        spec = validate_config(_write(tmp_path, f"figure = fig7_opt_tau\noutput = {output}\n"))
        assert spec.output_path == output

    def test_figure_and_figure_id_are_one_key(self, tmp_path):
        p = _write(tmp_path, "figure = fig2_mse\nfigure_id = fig5_power_eff\n")
        with pytest.raises(ConfigError, match="cfg.txt:2: duplicate key 'figure_id'"):
            validate_config(p)
        p = _write(tmp_path, "figure_id = fig99\n")
        with pytest.raises(ConfigError, match="cfg.txt:1: unknown figure 'fig99'"):
            validate_config(p)


ROOT = Path(__file__).parents[1]
# the benchmark's figure configs, read without importing (or compiling) figbench
WORKLOADS = runpy.run_path(str(ROOT / "figbench" / "workloads.py"))["WORKLOADS"]
CONFIGS = [
    pytest.param(path.read_text(encoding="utf-8"), id=path.name)
    for path in sorted((ROOT / "configs").glob("*.cfg"))
] + [
    pytest.param(f"figure = {figure}\nseed = 0\n{body}", id=f"{name}-{figure}")
    for name, workload in WORKLOADS.items()
    for figure, body in workload["figures"].items()
]


@pytest.mark.parametrize("text", CONFIGS)
def test_shipped_config_validates(tmp_path, text):
    # every config the repo ships or benchmarks, so that renaming or removing
    # a key they set fails here rather than in a benchmark run
    assert validate_config(_write(tmp_path, text)).figure_id in FIGURES


def _value_text(val) -> str:
    # a trailing comma keeps a one-element list a list
    return ", ".join(map(repr, val)) + "," if isinstance(val, list) else repr(val)


def _config_text(spec) -> str:
    """A resolved spec as config text."""
    lines = [
        f"figure = {spec.figure_id}",
        f"seed = {spec.seed}",
        f"n_trials = {spec.n_trials}",
        f"output = {spec.output_path}",
    ]
    lines += [f"{key} = {_value_text(val)}" for key, val in spec.sweep.items()]
    return "\n".join(lines) + "\n"


_NUMBER = st.one_of(
    st.integers(-40, 40), st.floats(-40, 40, allow_nan=False, allow_subnormal=False)
)
# values every figure accepts for its sweep keys (k = 8 at most by default)
_SWEEP_VALUES = {
    "snr_db": _NUMBER,
    "rho_db": _NUMBER,
    "m": st.integers(9, 400),
    "t": st.integers(9, 400),
}


@st.composite
def _configs(draw):
    figure = draw(st.sampled_from(sorted(FIGURES)))
    fig = FIGURES[figure]
    lines = [f"figure = {figure}", f"seed = {draw(st.integers(0, 2**32))}"]
    if fig.default_trials > 1:
        lines.append(f"n_trials = {draw(st.integers(2, 5000))}")
    if draw(st.booleans()):
        lines.append(f"output = out{draw(st.integers(0, 99))}.csv")
    for key in fig.grid:
        values = st.lists(_SWEEP_VALUES[key], min_size=1, max_size=4)
        val = draw(st.one_of(st.none(), _SWEEP_VALUES[key], values))
        if val is not None:
            lines.append(f"{key} = {_value_text(val)}")
    return "\n".join(lines) + "\n"


# the closed-form figures (fig5-fig9), and the columns where a value that
# cannot be reached is written as inf (fig6's bit energy, fig9's antenna ratio)
_CLOSED_FORM = sorted(fid for fid, fig in FIGURES.items() if fig.default_trials == 1)
_INF_COLUMNS = ("zeta_", "kappa_", "m_one_")


_DB_KEYS = {
    fid: [key for key in fig.defaults if key.endswith("_db")] for fid, fig in FIGURES.items()
}


@st.composite
def _closed_form_configs(draw):
    """A fig5-fig9 config, and whether a value of it lies past a bound of rules 5, 16, 17."""
    figure = draw(st.sampled_from(_CLOSED_FORM))
    k = draw(st.sampled_from([1, 2, 8, 16]))
    # the last two entries of m, of t and of the dB values lie past a bound; fig5
    # scans no tau, so its t has no bound
    m = draw(st.sampled_from([k + 1, k + 2, 64, 10**6, _M_LIMIT, _M_LIMIT + 1, 1.7e308]))
    t = st.integers(k, k + 3)
    if figure != "fig5_power_eff":
        t = st.one_of(t, st.sampled_from([_T_LIMIT + 1, 10**30]))
    t = draw(t)
    lines = [f"figure = {figure}", f"k = {k}", f"t = {t}"]
    lines.append(f"m_conv = {m!r}" if figure == "fig9_kappa" else f"m = {m!r}")
    if figure == "fig5_power_eff":
        lines.append(f"tau = {k}")
    db = st.one_of(st.sampled_from([-300, 300, 300.5, -3000]), st.floats(-300.0, 300.0))
    dbs = {key: draw(db) for key in _DB_KEYS[figure]}
    lines += [f"{key} = {v!r}" for key, v in dbs.items()]
    past = m > _M_LIMIT or t > _T_LIMIT or any(abs(v) > 300 for v in dbs.values())
    return "\n".join(lines) + "\n", past


def _finite_but_for_documented_inf(path):
    """Assert that the CSV has rows and that each cell is finite, or inf in a column
    where inf marks a value that cannot be reached."""
    header, *rows = csv.reader(path.read_text(encoding="utf-8").splitlines())
    assert rows
    for row in rows:
        for name, cell in zip(header, row):
            if not math.isfinite(float(cell)):
                assert cell == "inf" and name.startswith(_INF_COLUMNS), (name, cell)


class TestClosedFormConfigSpace:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(drawn=_closed_form_configs())
    def test_rejected_at_a_line_or_finite_but_for_documented_inf(self, tmp_path_factory, drawn):
        # small and huge M, T just above K and SNRs at +-300 dB: a config is
        # either refused with a file:line message or gives a finite CSV without
        # a warning, except for the inf that marks a value that cannot be
        # reached; a value past a bound is always refused
        text, past = drawn
        tmp = tmp_path_factory.mktemp("cf")
        p = _write(tmp, text + f"output = {tmp / 'out.csv'}\n")
        try:
            spec = validate_config(p)
        except ConfigError as e:
            assert re.match(rf"{re.escape(str(p))}:\d+: ", str(e)), str(e)
            return
        assert not past, text
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(spec)
        assert not caught, [str(w.message) for w in caught]
        _finite_but_for_documented_inf(tmp / "out.csv")

    @pytest.mark.parametrize("db", [-300, 300])
    @pytest.mark.parametrize("figure", _CLOSED_FORM)
    def test_finite_at_every_bound(self, tmp_path, figure, db):
        # the largest M and T and the dB ends that validate accepts, together;
        # T sits at its bound here, as the draws above keep it small
        m = "m_conv" if figure == "fig9_kappa" else "m"
        sweep = {m: _M_LIMIT, "k": 8, "t": _T_LIMIT, **dict.fromkeys(_DB_KEYS[figure], db)}
        if figure == "fig5_power_eff":
            sweep["tau"] = 8
        spec = ExperimentSpec(figure, sweep, output_path=str(tmp_path / "out.csv"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(spec)
        assert not caught, [str(w.message) for w in caught]
        _finite_but_for_documented_inf(tmp_path / "out.csv")


# fig2-fig4 at small sizes and extreme values; the one warning a run may give
# is the training filter's documented ridge fallback (estimators._hermitian_solve)
_MONTE_CARLO = sorted(fid for fid, fig in FIGURES.items() if fig.default_trials > 1)
_RIDGE_WARNING = "quantized-output covariance is numerically singular"


@st.composite
def _monte_carlo_configs(draw, figure):
    # the last entries of tau, m, n_trials, fig4's t offset and the SNRs break a rule
    k = draw(st.sampled_from([1, 2, 4]))
    tau = draw(st.sampled_from([k, k + 1, 2 * k + 3, k - 1]))
    m = draw(st.sampled_from([16, k + 1, 1, k]))
    db = st.one_of(st.sampled_from([-300, 0, 300, 300.5, -3000]), st.floats(-300.0, 300.0))
    lines = [
        f"figure = {figure}",
        f"m = {m}",
        f"k = {k}",
        f"tau = {tau}",
        f"n_trials = {draw(st.sampled_from([2, 3, 4, 1]))}",
        f"snr_db = {draw(db)!r}, {draw(db)!r}",
    ]
    if figure == "fig2_mse":
        lines.append(f"nml_max_iters = {draw(st.sampled_from([1, 2, 200]))}")
    if figure == "fig3_corr_mse":
        spread = st.one_of(st.sampled_from([1e-12, 1e-9, 180.0]), st.floats(1e-12, 180.0))
        angle = st.one_of(st.sampled_from([-89.9999, 89.9999]), st.floats(-89.9999, 89.9999))
        lines += [f"spread_deg = {draw(spread)!r}", f"mean_angle_deg = {draw(angle)!r}"]
    if figure == "fig4_se_vs_snr":
        lines.append(f"t = {tau + draw(st.sampled_from([1, 60, 0, -1]))}")
    return "\n".join(lines) + "\n"


class TestMonteCarloConfigSpace:
    @pytest.mark.parametrize("figure", _MONTE_CARLO)
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_rejected_at_a_line_or_finite(self, tmp_path_factory, figure, data):
        # M and K down to 1, tau = K, T = tau, two to four trials, SNRs at
        # +-300 dB, spreads down to 1e-12 degrees and angles next to +-90:
        # a config is either refused with a file:line message or gives a CSV
        # whose every cell is finite; an SNR past +-300 dB is always refused
        text = data.draw(_monte_carlo_configs(figure), label="config")
        tmp = tmp_path_factory.mktemp("mc")
        p = _write(tmp, text + f"output = {tmp / 'out.csv'}\n")
        try:
            spec = validate_config(p)
        except ConfigError as e:
            assert re.match(rf"{re.escape(str(p))}:\d+: ", str(e)), str(e)
            return
        assert all(abs(v) <= 300 for v in spec.sweep["snr_db"]), text
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(spec)
        for w in caught:
            assert w.category is RuntimeWarning and _RIDGE_WARNING in str(w.message), w
        rows = list(csv.reader((tmp / "out.csv").read_text(encoding="utf-8").splitlines()))[1:]
        assert len(rows) == 2 and np.all(np.isfinite(np.array(rows, dtype=float)))


class TestConfigRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(text=_configs())
    def test_written_spec_validates_to_itself(self, tmp_path_factory, text):
        tmp = tmp_path_factory.mktemp("rt")
        spec = validate_config(_write(tmp, text))
        again = validate_config(_write(tmp, _config_text(spec), "again.cfg"))
        assert again == spec
        assert repr(again) == repr(spec)  # 5 and 5.0 are equal but not the same value


class TestRunExperiment:
    @pytest.mark.parametrize(
        "figure, sweep, key",
        [
            ("fig2_mse", {"m": [4, 8], "k": 2, "tau": 4, "snr_db": [0]}, "m"),
            ("fig5_power_eff", {"e_u_db": [0, 3]}, "e_u_db"),
        ],
    )
    def test_list_rejected_for_a_key_that_does_not_sweep(self, tmp_path, figure, sweep, key):
        # the library path gets the check and message of validate_config
        spec = ExperimentSpec(figure, sweep, 2, output_path=str(tmp_path / "x.csv"))
        with pytest.raises(ValueError, match=rf"^{key} takes one value, got a list; {figure}"):
            run_experiment(spec)
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "figure, sweep, message",
        [
            # zero-iteration solves: every nML estimate was 0
            ("fig2_mse", {"nml_max_iters": 0}, "nml_max_iters must be an integer >= 1"),
            ("fig6_bit_energy", {"t": 8}, "t (8) must exceed k (8)"),  # ZeroDivisionError
            ("fig2_mse", {"m": 16.5}, "m must be an integer, got 16.5"),  # TypeError
            ("fig5_power_eff", {"e_u_db": float("nan")}, "e_u_db must be a finite number"),
            # failed only after the first grid point's MRC Monte Carlo
            ("fig4_se_vs_snr", {"m": 8}, "m (8) must exceed k (8)"),
            # OverflowError after the earlier grid points had run
            ("fig2_mse", {"snr_db": [0, 4000]}, "snr_db must be between -300 and 300 dB, got 4000"),
            # ValueError from PowerBudget, OverflowError, laplacian_covariance
            ("fig9_kappa", {"rho_db": -4000}, "rho_db must be between -300 and 300 dB, got -4000"),
            ("fig2_mse", {"m": 10**400}, "m must be a finite number in float range"),
            ("fig3_corr_mse", {"spread_deg": 0.0}, "spread_deg must be > 0, got 0.0"),
            # closed-form figures ran with these: fig7 at k = 8.5 reported tau = 8 < K
            ("fig7_opt_tau", {"k": 8.5}, "k must be an integer, got 8.5"),
            ("fig5_power_eff", {"k": 2.5}, "k must be an integer, got 2.5"),
            ("fig5_power_eff", {"tau": 8.5}, "tau must be an integer, got 8.5"),
            ("fig5_power_eff", {"m": 10**12 + 1}, "m must be at most 1,000,000,000,000"),
            ("fig6_bit_energy", {"t": 10**4 + 1}, "t must be at most 10,000, got 10001; fig6"),
        ],
    )
    def test_library_path_applies_the_config_checks(self, tmp_path, figure, sweep, message):
        out = tmp_path / "x.csv"
        spec = ExperimentSpec(figure, sweep, 2, output_path=str(out))
        with pytest.raises(SpecError) as lib:
            run_experiment(spec)
        assert str(lib.value).startswith(message)
        assert not out.exists()
        # the CLI message is the library's, after the path:line prefix
        p = _write(tmp_path, _config_text(spec))
        with pytest.raises(ConfigError) as cli:
            validate_config(p)
        assert str(cli.value) == f"{p}:5: {lib.value}"

    @pytest.mark.parametrize(
        "figure, fields, message",
        [
            # a bool passed as an integer: k = True died at the first grid point with
            # "K must be an integer, got True", and seed = True wrote "seed": true
            ("fig7_opt_tau", {"sweep": {"k": True}}, "k must be a finite number in float"),
            ("fig2_mse", {"sweep": {"m": True}}, "m must be a finite number in float range"),
            ("fig5_power_eff", {"sweep": {"tau": True}}, "tau must be a finite number in"),
            ("fig7_opt_tau", {"sweep": {"t": True}}, "t must be a finite number in float"),
            ("fig2_mse", {"sweep": {"nml_max_iters": True}}, "nml_max_iters must be a finite"),
            ("fig5_power_eff", {"seed": True}, "seed must be an integer, got True"),
            ("fig5_power_eff", {"n_trials": True}, "n_trials must be a nonnegative integer"),
            # a bare numpy scalar failed in `val == []` with numpy's "truth value" message
            ("fig4_se_vs_snr", {"sweep": {"m": np.int64(8)}}, "m (8) must exceed k (8)"),
            ("fig2_mse", {"sweep": {"snr_db": np.float64(400)}}, "snr_db must be between -300"),
        ],
    )
    def test_library_path_names_the_key_of_a_value_no_config_file_holds(
        self, tmp_path, figure, fields, message
    ):
        out = tmp_path / "x.csv"
        spec = ExperimentSpec(figure, **{"n_trials": 2, **fields}, output_path=str(out))
        with pytest.raises(SpecError) as lib:
            run_experiment(spec)
        assert str(lib.value).startswith(message)
        assert lib.value.keys[0] == message.split()[0]
        assert not out.exists()

    def test_numpy_numbers_write_the_bytes_of_python_numbers(self, tmp_path):
        # numpy ints in a list were refused as "not a finite number", and a
        # numpy seed or n_trials failed in emit_manifest as not JSON serializable
        out = tmp_path / "x.csv"
        files = [out, *(out.with_suffix(s) for s in (".gp", ".manifest.json"))]
        written = []
        for m, snr, n, seed in (
            ([32, 64], 0.0, 4, 7),
            ([np.int64(32), np.int32(64)], np.float64(0.0), np.int64(4), np.uint8(7)),
        ):
            spec = ExperimentSpec("fig4_se_vs_snr", {"m": m, "snr_db": snr}, n, seed, str(out))
            run_experiment(spec)
            written.append([f.read_bytes() for f in files])
        assert written[0] == written[1]

    @pytest.mark.parametrize(
        "output, message",
        [
            # the plot stub used to overwrite the CSV, and the run reported success
            ("res.gp", "is also the name of its plot stub"),
            # write_csv used to raise IsADirectoryError after every grid point had run
            ("taken", "is a directory"),
            # the plot stub's write used to fail after the CSV was written
            ("busy.csv", "would write over the directory"),
            # NotADirectoryError after the run
            ("note.txt/res.csv", "lies under"),
        ],
    )
    def test_unwritable_output_rejected_before_any_work(
        self, tmp_path, monkeypatch, capsys, output, message
    ):
        (tmp_path / "taken").mkdir()
        (tmp_path / "busy.gp").mkdir()
        (tmp_path / "note.txt").write_text("a file\n", encoding="utf-8")
        out = str(tmp_path / output)
        p = _write(tmp_path, f"figure = fig7_opt_tau\nt = 60\noutput = {out}\n")
        before = sorted(tmp_path.rglob("*"))

        def no_work(*args):
            raise AssertionError("a grid point ran")

        fig = FIGURES["fig7_opt_tau"]
        monkeypatch.setitem(FIGURES, "fig7_opt_tau", dataclasses.replace(fig, point=no_work))
        with pytest.raises(SpecError, match=f"^output {out} {message}") as lib:
            run_experiment(ExperimentSpec("fig7_opt_tau", {"t": 60}, output_path=out))
        assert lib.value.keys == ("output_path",)
        # validate and run report it at the output line
        with pytest.raises(ConfigError) as cli:
            validate_config(p)
        assert str(cli.value) == f"{p}:3: {lib.value}"
        assert main(["run", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {p}:3: {lib.value}\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_negative_seed_rejected_before_any_work(self, tmp_path):
        out = tmp_path / "x.csv"
        sweep = {"m": 16, "k": 2, "tau": 2, "snr_db": [0]}
        spec = ExperimentSpec("fig4_se_vs_snr", sweep, 4, seed=-1, output_path=str(out))
        with pytest.raises(SpecError, match="^seed must be a nonnegative integer, got -1$"):
            run_experiment(spec)
        assert not out.exists()

    def test_empty_sweep_list_rejected(self, tmp_path):
        # used to write a CSV with a header and no rows
        out = tmp_path / "x.csv"
        spec = ExperimentSpec("fig5_power_eff", {"m": []}, output_path=str(out))
        with pytest.raises(SpecError, match=r"^m takes at least one value, got \[\]$"):
            run_experiment(spec)
        assert not out.exists()

    def test_csv_byte_identical_rerun(self, tmp_path):
        spec = ExperimentSpec(
            figure_id="fig5_power_eff",
            sweep={"m": [64, 256, 1024]},
            seed=3,
            output_path=str(tmp_path / "a.csv"),
        )
        run_experiment(spec)
        first = (tmp_path / "a.csv").read_bytes()
        run_experiment(spec)
        assert (tmp_path / "a.csv").read_bytes() == first

    def test_csv_format(self, tmp_path):
        out = tmp_path / "fig5.csv"
        spec = ExperimentSpec(
            figure_id="fig5_power_eff", sweep={"m": [100]}, output_path=str(out)
        )
        run_experiment(spec)
        raw = out.read_bytes()
        assert b"\r" not in raw  # LF newlines only
        lines = raw.decode().strip().split("\n")
        header = lines[0].split(",")
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(header)  # rectangular, no missing cells
            for c in cells:
                float(c)

    def test_float_precision_15_digits(self, tmp_path):
        out = tmp_path / "f.csv"
        spec = ExperimentSpec(
            figure_id="fig5_power_eff", sweep={"m": [123]}, output_path=str(out)
        )
        table = run_experiment(spec)
        cell = out.read_text().strip().split("\n")[1].split(",")[1]
        assert float(cell) == pytest.approx(table.rows[0][1], rel=1e-14)
        assert len(cell.replace(".", "").replace("-", "").lstrip("0")) >= 14

    def test_mc_figure_has_stderr_columns_and_manifest(self, tmp_path):
        out = tmp_path / "fig3.csv"
        spec = ExperimentSpec(
            figure_id="fig3_corr_mse",
            sweep={"snr_db": [20.0], "m": 8},
            n_trials=40,
            seed=9,
            output_path=str(out),
        )
        table = run_experiment(spec)
        assert "se_mse_blmmse" in table.columns
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["n_trials"] == 40
        assert manifest["figure"] == "fig3_corr_mse"
        # every swept parameter is recorded, with dB -> linear round trip
        for key in ("m", "k", "tau", "snr_db", "spread_deg", "mean_angle_deg"):
            assert key in manifest["parameters"]
        assert manifest["parameters_linear"]["snr"] == [pytest.approx(100.0)]
        assert manifest["stderr_columns"] == ["se_mse_blmmse", "se_mse_uncorr"]
        assert manifest["max_stderr"]["se_mse_blmmse"] > 0

    def test_manifest_rerun_reproduces_csv(self, tmp_path):
        out = tmp_path / "fig7.csv"
        spec = ExperimentSpec(
            figure_id="fig7_opt_tau",
            sweep={"t": [60, 80], "rho_db": [-10.0]},
            seed=4,
            output_path=str(out),
        )
        run_experiment(spec)
        raw = out.read_bytes()
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        respec = ExperimentSpec(
            figure_id=manifest["figure"],
            sweep=manifest["parameters"],
            n_trials=manifest["n_trials"],
            seed=manifest["seed"],
            output_path=str(out),
        )
        run_experiment(respec)
        assert out.read_bytes() == raw

    def test_mse_point_draws_channels_through_root(self):
        # the paired-trial loop of fig3, written out: H = root @ CN(0, I)
        M, K, tau, rho = 4, 1, 2, 10.0
        cfg = SystemConfig(M=M, K=K, tau=tau, rho_p=rho)
        Phi = dft_pilots(tau, K)
        root = np.linalg.cholesky(laplacian_covariance(M, 70.0, 10.0) + 1e-9 * np.eye(M))
        G = blmmse_filter(Phi, cfg)[0]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(3, 1, 0)))
        mse = np.empty(5)
        for t in range(5):
            H = root @ crandn(rng, M, K)
            r = vec(one_bit_quantize(np.sqrt(rho) * H @ Phi.T + crandn(rng, M, tau)))
            mse[t] = np.sum(np.abs((G @ r).reshape(M, K, order="F") - H) ** 2) / (M * K)
        got = _mse_point(cfg, Phi, {"g": G}, None, 5, (3, 1), root)
        assert got == {"g": (mse.mean(), mse.std(ddof=1) / np.sqrt(5))}

    @staticmethod
    def _ref_mse_point(cfg, Phi, filters, nml_opts, n_trials, seed, root, ref_iterations):
        # _mse_point as it ran before trials were stacked: one trial at a time,
        # nML by nml_estimate, whose iteration counts are recorded
        M, K, tau = cfg.M, cfg.K, cfg.tau
        names = list(filters) + ([] if nml_opts is None else ["nml"])

        def block(rng, n):
            acc = {name: np.empty(n) for name in names}
            for t in range(n):
                H = crandn(rng, M, K)
                if root is not None:
                    H = root @ H
                Y = np.sqrt(cfg.rho_p) * H @ Phi.T + crandn(rng, M, tau)
                r = vec(one_bit_quantize(Y))
                for name, G in filters.items():
                    err = (G @ r).reshape(M, K, order="F") - H
                    acc[name][t] = np.sum(np.abs(err) ** 2) / (M * K)
                if nml_opts is not None:
                    est = nml_estimate(r, Phi, cfg, **nml_opts)
                    ref_iterations.append(est.diagnostics["iterations"])
                    acc["nml"][t] = np.sum(np.abs(est.H_hat - H) ** 2) / (M * K)
            return acc

        blocks = run_blocks(n_trials, block, seed)
        out = {}
        for name in names:
            samples = np.concatenate([b[name] for b in blocks])
            out[name] = (samples.mean(), samples.std(ddof=1) / np.sqrt(len(samples)))
        return out

    @pytest.mark.parametrize(
        "M, K, tau, n_trials, nml, correlated",
        [
            (6, 2, 5, 30, True, False),  # one partial stack, nML per trial
            (12, 2, 5, 300, False, False),  # a full stack splits block 1: partial in both
            (6, 2, 5, 300, False, True),
            (16, 1, 2, 70, False, True),  # fig3's shape
        ],
    )
    def test_mse_point_matches_per_trial_reference(
        self, monkeypatch, M, K, tau, n_trials, nml, correlated
    ):
        step = max(1, mc._STACK_ELEMS // (M * M))
        blocks = [256] * (n_trials // 256) + [n_trials % 256]
        assert all(b % step for b in blocks)  # every block ends on a partial stack
        if M == 12:  # the case that splits a block
            assert len(trial_stacks(256, M)) > 1
        cfg = SystemConfig(M=M, K=K, tau=tau, rho_p=2.0)
        Phi = dft_pilots(tau, K)
        root = None
        if correlated:
            root = np.linalg.cholesky(laplacian_covariance(M, 70.0, 10.0) + 1e-9 * np.eye(M))
        filters = {
            "blmmse": blmmse_filter(Phi, cfg)[0],
            "uncorr": lmmse_uncorrelated_filter(Phi, cfg)[0],
        }
        nml_opts = {"radius_sq": float(K), "max_iters": 60} if nml else None
        got_iterations, iterations = [], []

        def recorded(*args, **kwargs):
            out = _nml_solve(*args, **kwargs)
            got_iterations.extend(out[1].tolist())
            return out

        monkeypatch.setattr(experiments, "_nml_solve", recorded)
        got = _mse_point(cfg, Phi, filters, nml_opts, n_trials, (2, 5), root)
        want = self._ref_mse_point(
            cfg, Phi, filters, nml_opts, n_trials, (2, 5), root, iterations
        )
        assert got.keys() == want.keys()
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=0.0)
        assert got_iterations == iterations
        assert len(iterations) == (n_trials if nml else 0)

    def test_mse_point_applies_k_by_tau_filters_as_their_kron_expansion(self):
        # fig2 passes its i.i.d. filters unexpanded (K x tau); _mse_point applies
        # them as R G^T, the dense G kron I_M applied to vec(R) per trial
        cfg = SystemConfig(M=16, K=4, tau=20, rho_p=2.0)
        Phi = dft_pilots(20, 4)
        G = _iid_filter(Phi, cfg)[0]
        got = _mse_point(cfg, Phi, {"g": G}, None, 300, (1, 2))
        want = _mse_point(cfg, Phi, {"g": np.kron(G, np.eye(16))}, None, 300, (1, 2))
        np.testing.assert_allclose(got["g"], want["g"], rtol=1e-14, atol=0.0)

    # closed-form columns at the figbench `rates-small-m` (fig4) and `design`
    # configs, as CSV text; figbench compares them to 1e-12 and 1e-9 only.
    # fig4's closed columns do not depend on the trial count.
    CLOSED_FORM = {
        "fig4_se_vs_snr": (
            {"m": 32, "k": 8, "tau": 8, "snr_db": [-20, -10, 0]},
            ["sumse_mrc_closed", "sumse_zf_closed"],
            """\
0.0981214653846678,0.0738360932174877
3.07801955129032,2.57008999608383
9.13615207544893,9.76099059146986
""",
        ),
        "fig5_power_eff": (
            {"k": 8, "tau": 8},
            None,
            """\
31,3.06077879697251,2.53586926586272,4.82721397287918,4.28028012989636,3.73030343876734,16.01156446456
36,3.13893059469798,2.68936750284133,5.17652796309057,4.73961173818385,3.73030343876734,16.01156446456
42,3.21158457395355,2.82842118601682,5.54456638932478,5.2070371369525,3.73030343876734,16.01156446456
49,3.27661040027369,2.95001007907232,5.91896745699331,5.66742547299136,3.73030343876734,16.01156446456
57,3.33346243615737,3.05417329572281,6.29076358360086,6.11146939596934,3.73030343876734,16.01156446456
66,3.38249297686921,3.14244886737389,6.65383355504495,6.53403040613571,3.73030343876734,16.01156446456
76,3.42447608861265,3.21691901526176,7.0042601905511,6.93274909442935,3.73030343876734,16.01156446456
88,3.46316934459504,3.28466109010775,7.36806026050434,7.33830465796111,3.73030343876734,16.01156446456
102,3.49752806794631,3.34411081642997,7.73264191330975,7.73715676235363,3.73030343876734,16.01156446456
119,3.52897192588377,3.39794713069027,8.10991990642844,8.14285566086527,3.73030343876734,16.01156446456
138,3.55538059807318,3.44274813450626,8.46786115409082,8.52191871843446,3.73030343876734,16.01156446456
160,3.57844491103764,3.48157027708374,8.81959196387186,8.88951659284719,3.73030343876734,16.01156446456
185,3.59823344290219,3.51465427275666,9.15823501563805,9.23938992809023,3.73030343876734,16.01156446456
215,3.61609261896155,3.54433654581406,9.5009456962763,9.58990057521878,3.73030343876734,16.01156446456
249,3.63126996443425,3.56943139607832,9.82723200063446,9.9206783090342,3.73030343876734,16.01156446456
289,3.64465949814154,3.59147165604904,10.1489914873942,10.2444087527082,3.73030343876734,16.01156446456
335,3.65618378432738,3.61036807684166,10.4581416934427,10.5534433089076,3.73030343876734,16.01156446456
388,3.66613262564629,3.62662686208463,10.755342168161,10.8489193399367,3.73030343876734,16.01156446456
450,3.6748412852179,3.64081774292605,11.044612469551,11.1352006471562,3.73030343876734,16.01156446456
522,3.68239208200201,3.65309090861788,11.3231946366476,11.409859891703,3.73030343876734,16.01156446456
605,3.68889140357151,3.66363204827669,11.589045670155,11.6711610941784,3.73030343876734,16.01156446456
701,3.69450774311097,3.67272405143033,11.8432497163203,11.9204034844901,3.73030343876734,16.01156446456
813,3.69939777348325,3.68062743747421,12.0878384457017,12.159760727238,3.73030343876734,16.01156446456
942,3.70359949913393,3.68740884963922,12.3197504680623,12.3863871314104,3.73030343876734,16.01156446456
1092,3.70724473744601,3.69328500115052,12.5414218444779,12.6027855686049,3.73030343876734,16.01156446456
1266,3.71039687293155,3.69836094855109,12.7523700671228,12.8085789257785,3.73030343876734,16.01156446456
1467,3.71311166998118,3.70272869338827,12.9520260570387,13.0032858534048,3.73030343876734,16.01156446456
1701,3.71546718113267,3.70651543912838,13.142170979394,13.1886986421491,3.73030343876734,16.01156446456
1971,3.71749250015081,3.70976917068629,13.3214133532083,13.3635004850369,3.73030343876734,16.01156446456
2285,3.71924768653568,3.71258728768024,13.4915140165174,13.5294363938498,3.73030343876734,16.01156446456
2648,3.72075934582548,3.71501318027312,13.6517768518946,13.6858451286863,3.73030343876734,16.01156446456
3070,3.72206834659668,3.7171129383921,13.8034408409209,13.8339457878178,3.73030343876734,16.01156446456
3558,3.72319566411954,3.71892058292941,13.9460525701164,13.9732992986375,3.73030343876734,16.01156446456
4124,3.72416955430556,3.72048170392819,14.0804412499984,14.1047145053126,3.73030343876734,16.01156446456
4780,3.72501015362457,3.72182878756919,14.2068658419277,14.2284399795511,3.73030343876734,16.01156446456
5541,3.72573623406062,3.72299207159061,14.3257939539915,14.3449260936322,3.73030343876734,16.01156446456
6422,3.72636211634544,3.72399461577055,14.4373562997338,14.4542916617773,3.73030343876734,16.01156446456
7443,3.72690227308855,3.72485968906333,14.542054597699,14.5570180408594,3.73030343876734,16.01156446456
8627,3.72736869040534,3.72560655155727,14.6402994533912,14.6534972367578,3.73030343876734,16.01156446456
10000,3.72777135526929,3.72625124280483,14.7324168530109,14.744038320518,3.73030343876734,16.01156446456
""",
        ),
        "fig6_bit_energy": (
            {"m": 128, "k": 8, "t": 50, "rho_db": [-10, 0]},
            None,
            """\
128,-10,7.99413306601781,0.625458690605796,9.20707241114442,0.543060788133686,8.09748205508239,0.617475897567658,9.48042041674788,0.527402771206973
128,0,17.5686332980044,2.84598119568467,17.8239894748986,2.80520811967571,20.2398039560541,2.47037965923796,20.6739010107778,2.41850824253893
""",
        ),
        "fig9_kappa": (
            {"m_conv": 128, "k": 8, "t": 50, "rho_db": -10},
            None,
            """\
-10,2.46686744689941,316,2.46686744689941,316,2.71473693847911,348,2.81855773926016,361
""",
        ),
    }

    @staticmethod
    def _columns_text(tmp_path, figure, sweep, n_trials, columns) -> str:
        """The CSV text of the given columns (None: all) of a seed-0 run."""
        out = tmp_path / "pinned.csv"
        run_experiment(ExperimentSpec(figure, sweep, n_trials, 0, str(out)))
        header, *rows = csv.reader(out.read_text(encoding="utf-8").splitlines())
        idx = [header.index(c) for c in columns or header]
        return "".join(",".join(row[i] for i in idx) + "\n" for row in rows)

    @pytest.mark.parametrize("figure", sorted(CLOSED_FORM))
    def test_closed_form_columns_keep_their_bytes(self, tmp_path, figure):
        sweep, columns, want = self.CLOSED_FORM[figure]
        assert self._columns_text(tmp_path, figure, sweep, 2, columns) == want

    # fig6's rows at the `design` config when each golden-section search ran
    # on a bracket around the best point of a 200-point gamma grid. The SE is
    # unimodal in gamma, and one search over (0, 1) per tau finds the same
    # optimum up to the search's tolerance.
    FIG6_GRID_SEEDED = """\
128,-10,7.99413306601781,0.625458690605796,9.20707241114549,0.543060788133622,8.09748205508239,0.617475897567658,9.48042041674821,0.527402771206955
128,0,17.5686332980044,2.84598119568467,17.8239894748986,2.80520811967571,20.2398039560541,2.47037965923796,20.6739010107778,2.41850824253893
"""

    def test_fig6_stays_near_the_grid_seeded_search(self, tmp_path):
        sweep, _, _ = self.CLOSED_FORM["fig6_bit_energy"]
        text = self._columns_text(tmp_path, "fig6_bit_energy", sweep, 2, None)
        got, old = (
            np.array([row.split(",") for row in t.splitlines()], dtype=float)
            for t in (text, self.FIG6_GRID_SEEDED)
        )
        assert got.shape == old.shape
        assert np.all(np.abs(got - old) <= 1e-12 * np.abs(old))

    def test_bit_energy_of_a_zero_spectral_efficiency_is_inf(self, tmp_path):
        # fig6 raised ZeroDivisionError once log2(1 + SINR) rounded to 0 (from
        # about -95 dB at its defaults); like fig9's unreachable kappa, that
        # zeta is written as inf
        sweep, _, want = self.CLOSED_FORM["fig6_bit_energy"]
        low, high = self._columns_text(
            tmp_path, "fig6_bit_energy", sweep | {"rho_db": [-100, 0]}, 2, None
        ).splitlines(keepends=True)
        assert high == want.splitlines(keepends=True)[1]
        cells = dict(zip(self.COLUMNS["fig6_bit_energy"], low.strip().split(",")))
        infs = {c for c, v in cells.items() if v == "inf"}
        assert infs and all(c.startswith("zeta_") for c in infs)
        assert all(cells[c.replace("zeta_", "sumse_")] == "0" for c in infs)
        assert all(np.isfinite(float(v)) for c, v in cells.items() if c not in infs)

    # Monte Carlo columns at the figbench `estimation` (fig2, fig3) and
    # `rates-small-m` (fig4) configs and seed 0, as CSV text; figbench
    # compares them to 1e-12 only. A refactor of the trial loops, the nML
    # solver or the rate kernel keeps them byte for byte.
    MONTE_CARLO = {
        "fig2_mse": (
            {"m": 16, "k": 4, "tau": 20, "snr_db": list(range(-20, 25, 5)), "nml_max_iters": 200},
            10,
            None,
            """\
-20,0.915936469719913,5.20281458999653,0.919693748184047,0.915936570639111,0.0603585432329992,0.172117697784953,0.0591635474983017,0.0603585640007201
-15,0.779565800242717,1.58039238458081,0.853957897850453,0.779565601075838,0.0270858783308367,0.0613816156569429,0.0294399443804716,0.0270860356601124
-10,0.457991228074543,0.490383555916971,0.697431919012376,0.457915140924995,0.0169925681220666,0.0124448705892576,0.0346230507846109,0.016939962086413
-5,0.262481240657595,0.295448146755894,0.554315374849826,0.263411323650934,0.0098503056835199,0.01087106447425,0.0193812795110455,0.00992090438931146
0,0.197966799632859,0.446692531982641,0.610652550115407,0.1990984954602,0.00839815562430142,0.0352567951017283,0.046525704793531,0.00737999273218328
5,0.170412336446558,0.656314441355992,0.636687690702378,0.170992072662214,0.00741900401615401,0.0391637815176113,0.0387299180780112,0.00607004536503623
10,0.157428709364942,0.72646075945511,0.562319282590617,0.163512078831879,0.012891886751472,0.0310659844672942,0.027690738214787,0.0119508598986264
15,0.165027056418473,0.896372846280984,0.621058995201083,0.165792385699454,0.0140830247382733,0.039511472736831,0.0337609452373345,0.0130717758450942
20,0.143074349926515,0.901897608375234,0.576886968090237,0.146778640344426,0.00788624670835204,0.0388843182519674,0.0317832822649799,0.00743901495214392
""",
        ),
        "fig3_corr_mse": (
            {"m": 16, "k": 1, "tau": 2, "snr_db": list(range(-10, 35, 5))},
            1024,  # four blocks
            None,
            """\
-10,0.462841849544321,0.462838082624073,0.0100577947123832,0.0100570725755214
-5,0.274497140582936,0.274524932705805,0.00555550615121162,0.0055522251608377
0,0.160427735787307,0.160882942081946,0.00379415531792463,0.0036965663982571
5,0.139027024972932,0.143004176418774,0.00449013468595625,0.00400347037552637
10,0.165814185285456,0.175682926761664,0.00585535921592537,0.00486224002944211
15,0.18123014558113,0.203880870884457,0.00730068554579817,0.00618438878502005
20,0.196336831146353,0.227630339176377,0.00703133707978135,0.00582124582619692
25,0.19226890774976,0.225728922385021,0.00620548514866379,0.00518311970902832
30,0.192101196296112,0.229569420486096,0.00672646551847068,0.00577752755320834
""",
        ),
        "fig4_se_vs_snr": (
            {"m": 32, "k": 8, "tau": 8, "snr_db": [-20, -10, 0]},
            768,
            ["sumse_mrc_mc", "sumse_zf_mc", "se_sumse_mrc_mc", "se_sumse_zf_mc"],
            """\
0.0981861352063715,0.0791835251812928,2.15937764935771e-05,0.000130247178918748
3.13059929755299,2.73351344703442,0.00291744089904441,0.00485703121196926
9.44467381920719,10.0353794007227,0.0143858557271962,0.0161597453611448
""",
        ),
    }

    @pytest.mark.parametrize("figure", sorted(MONTE_CARLO))
    def test_monte_carlo_columns_keep_their_bytes(self, tmp_path, figure):
        sweep, n_trials, columns, want = self.MONTE_CARLO[figure]
        assert self._columns_text(tmp_path, figure, sweep, n_trials, columns) == want

    # fig4's ZF columns at the `rates-small-m` config and seed 0 when ZF drew
    # its own trials, seeded (seed, 2i + 1): (sumse_zf_mc, se_sumse_zf_mc) per
    # SNR. ZF now runs on MRC's draws (common random numbers), an independent
    # stream, so each cell may move by sampling error only.
    ZF_OWN_STREAM = [
        (0.0790563564477866, 0.000135770751475078),
        (2.72990036352123, 0.00487079308492229),
        (10.0374257510656, 0.0162849727779046),
    ]

    def test_zf_on_mrc_draws_stays_within_sampling_error(self, tmp_path):
        sweep, n_trials, _, _ = self.MONTE_CARLO["fig4_se_vs_snr"]
        columns = ["sumse_zf_mc", "se_sumse_zf_mc"]
        text = self._columns_text(tmp_path, "fig4_se_vs_snr", sweep, n_trials, columns)
        rows = [tuple(map(float, line.split(","))) for line in text.splitlines()]
        assert len(rows) == len(self.ZF_OWN_STREAM)
        for (mean, se), (old, old_se) in zip(rows, self.ZF_OWN_STREAM):
            assert abs(mean - old) <= 4.0 * np.hypot(se, old_se)

    # fig3's rows at the `estimation` config and seed 0 when
    # laplacian_covariance was a 1,440-node midpoint rule, whose entries were
    # off by up to 4.0e-5 at M = 16, 70 deg, 10 deg. The closed form moves the
    # filters and the channel root, not the draws, so each cell moves by far
    # less than its standard error.
    FIG3_MIDPOINT_RULE = """\
-10,0.462835749799466,0.462831981015478,0.0100578344136339,0.010057112208933
-5,0.274431638791763,0.274458678904381,0.00555663173900226,0.00555335275264616
0,0.160423530143685,0.160878596336149,0.00379416081189058,0.00369656294922934
5,0.139001201868936,0.142984990714257,0.00448991620741591,0.0040032269528046
10,0.165817846173893,0.175678491442818,0.00585545672000697,0.00486230389117297
15,0.181226982940486,0.20387731182417,0.00730081416718356,0.00618447480247
20,0.196333708803931,0.227626718395207,0.00703146657558453,0.00582131159592711
25,0.192266739263791,0.225735558834914,0.00620484900233449,0.00518288154220685
30,0.192097589825819,0.229565469572754,0.00672655199545003,0.00577756027674522
"""

    def test_fig3_closed_form_stays_near_the_midpoint_rule(self, tmp_path):
        sweep, n_trials, _, _ = self.MONTE_CARLO["fig3_corr_mse"]
        text = self._columns_text(tmp_path, "fig3_corr_mse", sweep, n_trials, None)
        got, old = (
            np.array([row.split(",") for row in t.splitlines()], dtype=float)
            for t in (text, self.FIG3_MIDPOINT_RULE)
        )
        assert got.shape == old.shape
        assert np.all(np.abs(got - old) <= 1e-3 * np.abs(old))

    def test_zf_with_singular_gram_matrices_runs_to_a_finite_csv(self, tmp_path):
        # M = 3, K = 2: some one-bit estimates have collinear columns
        out = tmp_path / "fig4.csv"
        p = _write(
            tmp_path,
            "figure = fig4_se_vs_snr\nm = 3\nk = 2\ntau = 2\nsnr_db = 0, 30\n"
            f"n_trials = 100\noutput = {out}\n",
        )
        table = run_experiment(validate_config(p))
        assert len(table.rows) == 2
        assert np.all(np.isfinite(np.array(table.rows, dtype=float)))
        assert out.exists()

    @pytest.mark.parametrize("n_trials", [0, 1])
    def test_mse_point_needs_two_trials(self, n_trials):
        cfg = SystemConfig(M=4, K=2, tau=2)
        Phi = dft_pilots(2, 2)
        with pytest.raises(ValueError, match="n_trials must be >= 2"):
            _mse_point(cfg, Phi, {}, None, n_trials, 0)

    # the columns of each figure, written out; the figures build theirs
    COLUMNS = {
        "fig2_mse": [
            "snr_db",
            "mse_blmmse",
            "mse_ls",
            "mse_nml",
            "mse_uncorr",
            "se_mse_blmmse",
            "se_mse_ls",
            "se_mse_nml",
            "se_mse_uncorr",
        ],
        "fig3_corr_mse": [
            "snr_db",
            "mse_blmmse",
            "mse_uncorr",
            "se_mse_blmmse",
            "se_mse_uncorr",
        ],
        "fig4_se_vs_snr": [
            "m",
            "snr_db",
            "sumse_mrc_mc",
            "sumse_mrc_closed",
            "sumse_zf_mc",
            "sumse_zf_closed",
            "se_sumse_mrc_mc",
            "se_sumse_zf_mc",
        ],
        "fig5_power_eff": [
            "m",
            "sumse_case1_mrc",
            "sumse_case1_zf",
            "sumse_case2_mrc",
            "sumse_case2_zf",
            "limit_case1",
            "limit_case2",
        ],
        "fig6_bit_energy": [
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
        ],
        "fig7_opt_tau": [
            "t",
            "rho_db",
            "tau_onebit_mrc",
            "tau_onebit_zf",
            "tau_conv_mrc",
            "tau_conv_zf",
        ],
        "fig8_se_vs_m": [
            "m",
            "sumse_onebit_mrc",
            "sumse_onebit_zf",
            "sumse_conv_mrc",
            "sumse_conv_zf",
        ],
        "fig9_kappa": [
            "rho_db",
            "kappa_benchmark_mrc",
            "m_one_benchmark_mrc",
            "kappa_optimized_mrc",
            "m_one_optimized_mrc",
            "kappa_benchmark_zf",
            "m_one_benchmark_zf",
            "kappa_optimized_zf",
            "m_one_optimized_zf",
        ],
    }
    TINY = {
        "fig2_mse": {"m": 4, "k": 2, "tau": 2, "snr_db": [0, 10], "nml_max_iters": 5},
        "fig3_corr_mse": {"m": 4, "snr_db": [0, 10]},
        "fig4_se_vs_snr": {"m": [4, 6], "k": 2, "tau": 2, "snr_db": [-5, 0]},
        "fig5_power_eff": {"m": [16, 64]},
        "fig6_bit_energy": {"m": [16], "k": 2, "t": 12, "rho_db": [-5, 0]},
        "fig7_opt_tau": {"m": 16, "k": 2, "t": [10, 12], "rho_db": [-5]},
        "fig8_se_vs_m": {"m": [16, 32], "k": 2, "t": 12},
        "fig9_kappa": {"m_conv": 16, "k": 2, "t": 12, "rho_db": [-5, 0]},
    }

    @pytest.mark.parametrize("figure", sorted(COLUMNS))
    def test_csv_header_is_the_figures_column_list(self, tmp_path, figure):
        assert sorted(self.COLUMNS) == figure_ids()
        out = tmp_path / f"{figure}.csv"
        spec = ExperimentSpec(figure, self.TINY[figure], n_trials=2, output_path=str(out))
        table = run_experiment(spec)
        lines = out.read_text().splitlines()
        assert lines[0].split(",") == self.COLUMNS[figure] == table.columns
        axes = [len(v) for v in self.TINY[figure].values() if isinstance(v, list)]
        assert len(lines) == 1 + np.prod(axes)
        assert all(len(row) == len(table.columns) for row in table.rows)

    def test_scalar_sweep_value_gives_one_row(self, tmp_path):
        out = tmp_path / "fig4.csv"
        spec = ExperimentSpec(
            "fig4_se_vs_snr", {"m": 48, "snr_db": -6}, n_trials=4, output_path=str(out)
        )
        table = run_experiment(spec)
        assert len(table.rows) == 1
        assert table.rows[0][:2] == [48, -6]
        assert out.read_text().splitlines()[1].startswith("48,-6,")
        # the same point as the first of a two-point list: seed (seed, 0)
        sweep = {"m": [48], "snr_db": [-6, 0]}
        listed = ExperimentSpec("fig4_se_vs_snr", sweep, n_trials=4, output_path=str(out))
        rows = run_experiment(listed).rows
        assert rows[0] == table.rows[0]
        # grid point i runs MRC and ZF on the same draws, seeded with (seed, 2i)
        cfg = SystemConfig(M=48, K=8, tau=8, rho_p=1.0, rho_d=1.0)
        mrc = ergodic_rate_mc(cfg, "mrc", 4, (0, 2))
        zf = ergodic_rate_mc(cfg, "zf", 4, (0, 2))
        got = dict(zip(table.columns, rows[1]))
        assert got["sumse_mrc_mc"] == mrc.sum_spectral_efficiency
        assert got["se_sumse_zf_mc"] == zf.stderr

    def test_unknown_figure_id(self):
        with pytest.raises(ValueError, match="unknown figure"):
            run_experiment(ExperimentSpec(figure_id="nope"))

    def test_plot_stub_written(self, tmp_path):
        out = tmp_path / "p.csv"
        spec = ExperimentSpec(
            figure_id="fig5_power_eff", sweep={"m": [100]}, output_path=str(out)
        )
        run_experiment(spec)
        stub = out.with_suffix(".gp").read_text()
        assert "set datafile separator" in stub
        assert "sumse_case1_mrc" in stub


class TestMain:
    def test_list_figures(self, capsys):
        assert main(["list-figures"]) == 0
        out = capsys.readouterr().out
        for fid in figure_ids():
            assert fid in out

    def test_validate_prints_linear_conversion(self, tmp_path, capsys):
        p = _write(tmp_path, "figure = fig7_opt_tau\nrho_db = -10\nt = 60\n")
        assert main(["validate", str(p)]) == 0
        out = capsys.readouterr().out
        assert "config OK" in out
        assert "0.1" in out  # -10 dB as linear power

    def test_validate_bad_config_returns_2(self, tmp_path, capsys):
        p = _write(tmp_path, "figure = fig2_mse\nk = 8\ntau = 4\n")
        assert main(["validate", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_fig3_at_a_vanishing_spread_runs_to_a_finite_csv(self, tmp_path):
        # validate accepted it, then every weight of the midpoint rule
        # underflowed and the run ended in LinAlgError
        out = tmp_path / "fig3.csv"
        p = _write(
            tmp_path,
            "figure = fig3_corr_mse\nspread_deg = 1e-9\nsnr_db = 0, 20\nn_trials = 4\n"
            f"output = {out}\n",
        )
        assert main(["run", str(p)]) == 0
        header, *rows = csv.reader(out.read_text(encoding="utf-8").splitlines())
        assert len(rows) == 2 and np.all(np.isfinite(np.array(rows, dtype=float)))

    def test_output_with_a_comma_is_written_as_given(self, tmp_path, monkeypatch):
        # parsed as a list, it was written to the path "['a', 'b.csv']"
        monkeypatch.chdir(tmp_path)
        p = _write(tmp_path, "figure = fig7_opt_tau\nt = 60\nrho_db = -10\noutput = a,b.csv\n")
        assert main(["run", str(p)]) == 0
        written = sorted(f.name for f in tmp_path.iterdir())
        assert written == ["a,b.csv", "a,b.gp", "a,b.manifest.json", "cfg.txt"]

    def test_blas_threads_do_not_change_the_csv(self, tmp_path):
        # fig4 at M = 128 is where OpenBLAS starts threads; the bytes must not
        # depend on how many
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        csvs = []
        for threads in ("1", "2", None):
            out = tmp_path / f"fig4_{threads}.csv"
            cfg = _write(
                tmp_path,
                "figure = fig4_se_vs_snr\nm = 128\nk = 8\ntau = 8\nsnr_db = -10, 10\n"
                f"n_trials = 40\noutput = {out}\n",
            )
            run_env = env if threads is None else env | {"OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-m", "onebit_mimo.cli", "run", str(cfg)],
                env=run_env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1] == csvs[2]

    def test_run_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        p = _write(
            tmp_path,
            f"figure = fig7_opt_tau\nt = 60\nrho_db = -10\noutput = {out}\n",
        )
        assert main(["run", str(p)]) == 0
        assert out.exists()
        assert out.with_suffix(".manifest.json").exists()
        assert out.with_suffix(".gp").exists()
        assert "wrote" in capsys.readouterr().out
