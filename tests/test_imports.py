import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_rates_imports_nothing_from_allocation():
    # the closed-form formulas sit below the solvers built on them
    tree = ast.parse((SRC / "onebit_mimo" / "rates.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {node.module or ""} | {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
    assert not any("allocation" in name.split(".") for name in names)


def test_numpy_floor_has_vecdot():
    # the nML solver calls np.vecdot, which numpy added in 2.0
    deps = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=(\d+)', deps)
    assert floor and int(floor.group(1)) >= 2
