import json

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
from onebit_mimo import experiments
from onebit_mimo.estimators import _nml_solve, blmmse_filter, lmmse_uncorrelated_filter
from onebit_mimo.experiments import (
    FIGURES,
    ExperimentSpec,
    _mse_point,
    figure_ids,
    run_experiment,
)
from onebit_mimo.mc import block_seeds, run_blocks, trial_stacks
from test_estimators import _ref_nml_estimate


def _write(tmp_path, text, name="cfg.txt"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestConfigParsing:
    def test_defaults_applied(self, tmp_path):
        p = _write(tmp_path, "figure = fig2_mse\n")
        spec = validate_config(p)
        assert spec.sweep["t"] == 200  # coherence-interval default
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

    def test_tau_constraint_names_violation(self, tmp_path):
        p = _write(tmp_path, "figure = fig2_mse\nk = 8\ntau = 4\n")
        with pytest.raises(ConfigError, match=r"cfg.txt:3: tau \(4\) violates k <= tau"):
            validate_config(p)

    def test_t_constraint(self, tmp_path):
        p = _write(tmp_path, "figure = fig2_mse\ntau = 20\nt = 10\n")
        with pytest.raises(ConfigError, match="violates tau <= t"):
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

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "-10, nan", "0:1:inf"])
    def test_nonfinite_value_rejected(self, tmp_path, text):
        p = _write(tmp_path, f"figure = fig2_mse\nsnr_db = {text}\n")
        with pytest.raises(ConfigError, match="cfg.txt:2: .*finite"):
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
        p = _write(tmp_path, "figure = fig7_opt_tau\nt = 50.5\n")
        assert validate_config(p).sweep["t"] == 50.5

    @pytest.mark.parametrize("value", ["-3", "0", "2.5", "1, 2"])
    def test_nml_max_iters_must_be_a_positive_integer(self, tmp_path, value):
        # -3 used to run zero-iteration solves (every H_hat = 0); 2.5 died at run
        p = _write(tmp_path, f"figure = fig2_mse\nseed = 1\nnml_max_iters = {value}\n")
        with pytest.raises(ConfigError, match="cfg.txt:3: nml_max_iters must be an integer >= 1"):
            validate_config(p)
        p = _write(tmp_path, "figure = fig2_mse\nnml_max_iters = 1\n")
        assert validate_config(p).sweep["nml_max_iters"] == 1

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

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such config"):
            validate_config(tmp_path / "absent.txt")

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
        for key in ("m", "k", "tau", "t", "snr_db", "spread_deg", "mean_angle_deg"):
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
        rng = np.random.default_rng(block_seeds((3, 1), 1)[0])
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
        # nML by the per-trial solver, whose iteration counts are recorded
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
                    H_hat, diag = _ref_nml_estimate(r, Phi, cfg, **nml_opts)
                    ref_iterations.append(diag["iterations"])
                    acc["nml"][t] = np.sum(np.abs(H_hat - H) ** 2) / (M * K)
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
            (6, 2, 5, 300, False, False),  # stacks of 227: partial in both blocks
            (6, 2, 5, 300, False, True),
            (16, 1, 2, 70, False, True),  # fig3's shape
        ],
    )
    def test_mse_point_matches_per_trial_reference(
        self, monkeypatch, M, K, tau, n_trials, nml, correlated
    ):
        assert n_trials % trial_stacks(256, M)[0].stop != 0
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
        # grid point i seeds MRC with (seed, 2i) and ZF with (seed, 2i + 1)
        cfg = SystemConfig(M=48, K=8, tau=8, rho_p=1.0, rho_d=1.0)
        mrc = ergodic_rate_mc(cfg, "mrc", 4, (0, 2))
        zf = ergodic_rate_mc(cfg, "zf", 4, (0, 3))
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
