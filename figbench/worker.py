"""One benchmark process: set up a workload, run its passes, report as JSON.

A pass runs every figure of the workload once through the public API
(config file -> ``cli.validate_config`` -> ``experiments.run_experiment``),
writing CSV, plot stub and manifest like ``onebit-mimo run``. Passes repeat
in a closed loop while another one fits in ``--seconds``. The last stdout
line is one JSON object; ``run.py`` aggregates it.

    python3 figbench/worker.py --workload W --seed N --seconds S --trace 0|1 --out DIR
    python3 figbench/worker.py ... --setup-only    # time import + validation, then exit
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import failed_rows  # noqa: E402
from workloads import MC_FIGURES, WORKLOADS  # noqa: E402

MIN_PASSES = 3  # untraced passes per run, even if --seconds is short
MIN_PAIRS = 2  # (untraced, traced) pass pairs per traced run


def write_configs(workload: str, seed: int, out: Path) -> list[Path]:
    """One config file per figure, with the run's seed and output path."""
    cfg_dir, csv_dir = out / "configs", out / "csv"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    csv_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for figure, body in WORKLOADS[workload]["figures"].items():
        path = cfg_dir / f"{figure}.cfg"
        path.write_text(
            f"figure = {figure}\nseed = {seed}\noutput = {csv_dir / figure}.csv\n{body}",
            encoding="utf-8",
        )
        paths.append(path)
    return paths


def setup(paths):
    """Import the program and validate the configs; returns (specs, import_s, validate_s)."""
    t0 = time.perf_counter()
    import onebit_mimo  # noqa: F401
    import onebit_mimo.cli
    import onebit_mimo.experiments  # noqa: F401

    t1 = time.perf_counter()
    specs = [onebit_mimo.cli.validate_config(p) for p in paths]
    t2 = time.perf_counter()
    return specs, t1 - t0, t2 - t1


def grid_points(spec) -> int:
    n = 1
    for v in spec.sweep.values():
        if isinstance(v, list):
            n *= len(v)
    return n


def units_per_pass(workload: str, specs) -> int:
    """Work units in one pass: MC trials, or the workload's fixed count of solves."""
    fixed = WORKLOADS[workload].get("units")
    if fixed:
        return fixed
    return sum(
        grid_points(s) * s.n_trials * MC_FIGURES[s.figure_id]
        for s in specs
        if s.figure_id in MC_FIGURES
    )


def run_pass(specs) -> dict:
    """Run every figure once; wall and process CPU time cover the figure runs only."""
    from onebit_mimo import experiments

    raised = set()
    c0, t0 = time.process_time(), time.perf_counter()
    for spec in specs:
        try:
            experiments.run_experiment(spec)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            raised.add(spec.figure_id)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    csvs = {}
    for spec in specs:
        path = Path(spec.output_path)
        if spec.figure_id not in raised and path.exists():
            csvs[spec.figure_id] = path.read_text(encoding="utf-8")
            path.unlink()
    return {"wall_s": wall, "cpu_s": cpu, "csvs": csvs}


def fits(start: float, seconds: float, need: float) -> bool:
    """Whether work taking ``need`` seconds, begun now, ends within ``seconds`` of ``start``.

    Stopping before the deadline rather than after it keeps a run's length
    close to ``--seconds``, so a series of runs has a predictable total.
    """
    return time.perf_counter() - start + need <= seconds


def check_pass(workload, seed, specs, p, first) -> tuple[int, int]:
    """(attempted, failed) grid points; a row that differs from the run's first pass fails."""
    attempted = failed = 0
    for spec in specs:
        fig, n = spec.figure_id, grid_points(spec)
        attempted += n
        text = p["csvs"].get(fig)
        if text is None:
            failed += n
            continue
        bad = failed_rows(workload, fig, text, seed, n)
        lines, first_lines = text.splitlines()[1:], first["csvs"].get(fig, "").splitlines()[1:]
        if len(lines) != len(first_lines):
            bad = set(range(n))
        bad |= {i for i, (a, b) in enumerate(zip(lines, first_lines)) if a != b}
        failed += len(bad)
    return attempted, failed


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def run_traced(specs, seconds, out: Path, result: dict):
    """Alternate untraced and traced passes, then one single-worker pass.

    Fills ``result`` with the per-layer metrics of each traced pass, the pass
    walls and the trace self-checks; writes the last traced pass's spans to
    ``out/spans.json``. Returns (untraced passes, traced and serial passes).
    """
    from tracing import EXACT_COUNTS, Tracer, installed, nesting_violations, summarize

    passes, traced, tracers = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_PAIRS or fits(
        start, seconds, max(a["wall_s"] + b["wall_s"] for a, b in zip(passes, traced))
    ):
        passes.append(run_pass(specs))
        tracer = Tracer()
        with installed(tracer):
            traced.append(run_pass(specs))
        tracers.append(tracer)
    os.environ["ONEBIT_MIMO_THREADS"] = "1"
    try:
        serial = run_pass(specs)
    finally:
        del os.environ["ONEBIT_MIMO_THREADS"]
    layers = [summarize(t) for t in tracers]
    result["layers"] = layers
    result["serial_wall_s"] = serial["wall_s"]
    result["traced_wall_s"] = [p["wall_s"] for p in traced]
    result["selfcheck"] = {
        "exact_counts_repeat": all(m[c] == layers[0][c] for m in layers for c in EXACT_COUNTS),
        # the serial pass must match too: results do not depend on the worker count
        "csv_traced_equals_untraced": all(
            p["csvs"] == passes[0]["csvs"] for p in traced + [serial]
        ),
        "spans_nested": all(nesting_violations(t) == 0 for t in tracers),
    }
    (out / "spans.json").write_text(json.dumps(tracers[-1].spans))
    return passes, traced + [serial]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    specs, import_s, validate_s = setup(write_configs(args.workload, args.seed, args.out))
    result = {"import_s": import_s, "validate_s": validate_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        passes, traced = run_traced(specs, args.seconds, args.out, result)
    else:
        passes, traced = [], []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or fits(
            start, args.seconds, max(p["wall_s"] for p in passes)
        ):
            passes.append(run_pass(specs))

    attempted = failed = 0
    for p in passes + traced:
        a, f = check_pass(args.workload, args.seed, specs, p, passes[0])
        attempted += a
        failed += f
    result.update(
        attempted=attempted,
        failed=failed,
        units=units_per_pass(args.workload, specs),
        wall_s=[p["wall_s"] for p in passes],
        cpu_s=[p["cpu_s"] for p in passes],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions=environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
