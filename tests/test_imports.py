import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_import_leaves_scipy_unloaded():
    # numpy is the one runtime dependency; scipy is a test reference only
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import importlib, pkgutil, sys, onebit_mimo\n"
        "for m in pkgutil.iter_modules(onebit_mimo.__path__):\n"
        "    importlib.import_module('onebit_mimo.' + m.name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_cli_import_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call, 13-17 ms of an import
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import sys, onebit_mimo.cli\nprint('numpy.ma' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_version_is_the_projects():
    # a literal, so that an import needs no importlib.metadata; read as text,
    # since tomllib is not in Python 3.10
    import onebit_mimo

    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == onebit_mimo.__version__


def test_nml_and_fig2_run_with_scipy_blocked(tmp_path):
    # an import hook refuses scipy; an nML solve and a fig2 run still work
    out = tmp_path / "fig2.csv"
    cfg = tmp_path / "fig2.cfg"
    cfg.write_text(
        f"figure = fig2_mse\nm = 4\nk = 2\ntau = 4\nsnr_db = 0, 20\nn_trials = 4\noutput = {out}\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "import numpy as np, onebit_mimo\n"
        "from onebit_mimo.cli import main\n"
        "cfg = onebit_mimo.SystemConfig(M=2, K=1, tau=2, rho_p=1.0)\n"
        "Phi = onebit_mimo.dft_pilots(2, 1)\n"
        "est = onebit_mimo.nml_estimate(np.full(4, (1 + 1j) / np.sqrt(2)), Phi, cfg)\n"
        "assert est.diagnostics['converged'] and np.all(np.isfinite(est.H_hat))\n"
        f"sys.exit(main(['run', {str(cfg)!r}]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    header, *rows = out.read_text().splitlines()
    assert "mse_nml" in header.split(",") and len(rows) == 2


def test_benchmark_tracer_entry_points_resolve(monkeypatch):
    # the benchmark's tracer wraps these (module, attribute) pairs from
    # outside; each must stay a function defined in that module. The tracer
    # is loaded without writing bytecode next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "_figbench_tracing", ROOT / "figbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pairs = [(m, a) for m, a, *_ in tracing.SPANS] + [(m, a) for m, a, _ in tracing.COUNTS]
    assert pairs
    for modname, attr in pairs:
        mod = importlib.import_module(f"onebit_mimo.{modname}")
        fn = getattr(mod, attr, None)
        assert inspect.isfunction(fn), f"onebit_mimo.{modname}.{attr}"
        assert fn.__module__ == mod.__name__, f"onebit_mimo.{modname}.{attr}"
    # the tracer swaps the block function, passed second or as fn=
    from onebit_mimo.mc import run_blocks

    assert list(inspect.signature(run_blocks).parameters)[:2] == ["n_trials", "fn"]


def _imported_names(module: str) -> set:
    """Module and object names that a module of the package imports."""
    tree = ast.parse((SRC / "onebit_mimo" / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {node.module or ""} | {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
    return names


def test_rates_imports_nothing_from_allocation():
    # the closed-form formulas sit below the solvers built on them
    names = _imported_names("rates")
    assert not any("allocation" in name.split(".") for name in names)


@pytest.mark.parametrize("module", ["rates", "experiments"])
def test_training_phase_runs_in_mc_only(module):
    # mc.training_trials is the one loop that draws, trains and quantizes the
    # trial stacks; the rate bound and the estimator MSE pass it a statistic.
    # Neither module imports the loop's parts nor reaches them as attributes.
    loop = {"crandn_trials", "one_bit_quantize", "run_blocks", "trial_stacks"}
    tree = ast.parse((SRC / "onebit_mimo" / f"{module}.py").read_text())
    used = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(tree)}
    assert not loop & (_imported_names(module) | used)


def test_arcsine_law_is_evaluated_by_the_estimator_layer_only():
    # estimators._bussgang_lmmse forms C_r, the filter and its MSE for flat and
    # OFDM training alike; ofdm only builds the pilot model. The
    # package namespace re-exports arcsine_covariance, so __init__ is left out.
    users = set()
    for path in sorted((SRC / "onebit_mimo").glob("*.py")):
        if path.stem == "__init__":
            continue
        names = set()  # referenced, defined or imported
        for node in ast.walk(ast.parse(path.read_text())):
            names |= {getattr(node, key, None) for key in ("id", "attr", "name")}
        if "arcsine_covariance" in names:
            users.add(path.stem)
    assert users == {"quantize", "estimators"}
    assert not any("quantize" in name.split(".") for name in _imported_names("ofdm"))


def test_numpy_floor_has_vecdot():
    # the nML solver calls np.vecdot, which numpy added in 2.0
    deps = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=(\d+)', deps)
    assert floor and int(floor.group(1)) >= 2


@pytest.mark.parametrize(
    "module, function, keyword",
    [
        ("allocation", "_golden_max", "tol"),
        ("allocation", "_optimize_numeric", "gamma_grid"),
        ("allocation", "_optimize_numeric", "tau_max"),
        ("allocation", "optimize_allocation", "gamma_grid"),
        ("allocation", "optimize_allocation", "tau_max"),
        ("allocation", "antenna_ratio", "se_tol"),
        ("allocation", "antenna_ratio", "M_max_factor"),
        ("allocation", "antenna_ratio", "M_conv"),
        ("rates", "conventional_rates", "M_conv"),
        ("channel", "laplacian_covariance", "n_points"),
        ("ofdm", "gen_tap_channel", "profile"),
        ("estimators", "blmmse_flat", "C_h"),
        ("ofdm", "blmmse_ofdm", "C_h_td"),
        ("ofdm", "blmmse_ofdm", "diagonal_quantizer_noise"),
    ],
)
def test_fixed_setting_has_no_keyword(module, function, keyword):
    # settings that no figure or config varied are constants of their function
    fn = getattr(importlib.import_module(f"onebit_mimo.{module}"), function)
    assert keyword not in inspect.signature(fn).parameters
