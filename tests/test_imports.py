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


def test_import_leaves_scipy_stats_and_linalg_unloaded():
    # of scipy, only scipy.special is needed at import
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import sys, onebit_mimo\n"
        "print(sorted(m for m in ('scipy.stats', 'scipy.linalg') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_scipy_loads_with_the_first_nml_solve():
    # importing the package loads no scipy; the nML estimator imports
    # scipy.special when it first runs
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import sys, numpy as np, onebit_mimo\n"
        "print('scipy.special' in sys.modules)\n"
        "cfg = onebit_mimo.SystemConfig(M=2, K=1, tau=2, rho_p=1.0)\n"
        "Phi = onebit_mimo.dft_pilots(2, 1)\n"
        "onebit_mimo.nml_estimate(np.full(4, (1 + 1j) / np.sqrt(2)), Phi, cfg)\n"
        "print('scipy.special' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "True"]


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
    # OFDM training alike; ofdm only builds the stacked pilot model. The
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
