"""Command-line harness: run figure experiments from flat key=value configs.

Subcommands: ``run <config>``, ``validate <config>``, ``list-figures``.
Config files are UTF-8, one ``key = value`` per line, ``#`` comments. SNR
and power values are given in dB (keys ending in ``_db``) and converted at
this boundary; the run manifest records both forms.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .experiments import (
    FIGURES,
    ExperimentSpec,
    _aslist,
    _linear_params,
    _span,
    figure_ids,
    run_experiment,
)

__all__ = ["ConfigError", "validate_config", "main"]

RESERVED = {"figure", "figure_id", "seed", "n_trials", "output", "output_path"}


class ConfigError(ValueError):
    """Config-file violation with file:line context."""


def _parse_scalar(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_value(text: str):
    """int | float | string | inclusive range 'a:step:b' | comma list.

    A range keeps int values only when start, step and stop are all integer
    literals; otherwise every value is a float.
    """
    text = text.strip()
    if "," in text:
        values = [_parse_scalar(t.strip()) for t in text.split(",") if t.strip()]
        if not values:
            raise ValueError(f"list {text!r} has no values")
        return values
    if ":" in text:
        parts = [p.strip() for p in text.split(":")]
        if len(parts) != 3:
            raise ValueError(f"range must be 'start:step:stop', got {text!r}")
        a, step, b = (_parse_scalar(p) for p in parts)
        if not all(isinstance(x, int) for x in (a, step, b)):
            a, step, b = (float(p) for p in parts)
        if not all(math.isfinite(x) for x in (a, step, b)):
            raise ValueError(f"range bounds must be finite, got {text!r}")
        if step <= 0 or b < a:
            raise ValueError(f"bad range {text!r}")
        return _span(a, b, step)
    return _parse_scalar(text)


def _nonfinite(val) -> bool:
    return any(isinstance(v, float) and not math.isfinite(v) for v in _aslist(val))


def validate_config(path: str | Path) -> ExperimentSpec:
    """Parse and validate a config file into a resolved ExperimentSpec.

    Applies the figure's defaults (T = 200 and rho_p = rho_d per sweep unless
    overridden) and rejects invariant violations with file:line messages.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{path}: no such config file")
    entries: dict[str, tuple[object, int]] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            entries[key] = (_parse_value(val), lineno)
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: {e}") from None
        if _nonfinite(entries[key][0]):
            raise ConfigError(
                f"{path}:{lineno}: {key} must be finite, got {val.strip()!r}"
            )

    def pop(name, default=None):
        return entries.pop(name, (default, 0))[0]

    n_trials_line = entries.get("n_trials", (None, 0))[1]
    figure = pop("figure", pop("figure_id"))
    if figure is None:
        raise ConfigError(f"{path}: missing required key 'figure'")
    if figure not in FIGURES:
        raise ConfigError(
            f"{path}: unknown figure {figure!r}; choose from {', '.join(figure_ids())}"
        )
    seed = pop("seed", 0)
    n_trials = pop("n_trials", 0)
    output = pop("output", pop("output_path", ""))

    defaults = FIGURES[figure].defaults
    sweep = {}
    for key, (val, lineno) in entries.items():
        if key not in defaults:
            raise ConfigError(
                f"{path}:{lineno}: unknown parameter {key!r} for {figure} "
                f"(expected one of {sorted(defaults)})"
            )
        sweep[key] = val

    def value_of(name):
        if name in entries:
            return entries[name][0], entries[name][1]
        return defaults.get(name), 0

    if not isinstance(seed, int):
        raise ConfigError(f"{path}: seed must be an integer, got {seed!r}")
    if not isinstance(n_trials, int) or n_trials < 0:
        raise ConfigError(f"{path}: n_trials must be a nonnegative integer")
    fig = FIGURES[figure]
    if n_trials == 1 and fig.default_trials > 1:
        raise ConfigError(
            f"{path}:{n_trials_line}: n_trials = 1 leaves no standard error; "
            f"{figure} is a Monte Carlo figure and needs n_trials >= 2"
        )
    if fig.default_trials > 1:  # Monte Carlo figures draw arrays of these sizes
        for name in ("m", "k", "tau"):
            val, line = value_of(name)
            for v in _aslist(val):
                if not isinstance(v, int):
                    raise ConfigError(
                        f"{path}:{line}: {name} must be an integer, got {v!r}; "
                        f"{figure} is a Monte Carlo figure"
                    )
    if "nml_max_iters" in defaults:
        val, line = value_of("nml_max_iters")
        if not isinstance(val, int) or val < 1:
            raise ConfigError(
                f"{path}:{line}: nml_max_iters must be an integer >= 1, got {val!r}"
            )

    k, k_line = value_of("k")
    tau, tau_line = value_of("tau")
    t, t_line = value_of("t")
    if isinstance(k, int) and k < 1:
        raise ConfigError(f"{path}:{k_line}: k must be >= 1")
    if isinstance(k, int) and isinstance(tau, int) and tau < k:
        raise ConfigError(
            f"{path}:{tau_line or k_line}: tau ({tau}) violates k <= tau (k = {k})"
        )
    if isinstance(tau, int) and isinstance(t, int) and t < tau:
        raise ConfigError(
            f"{path}:{t_line or tau_line}: t ({t}) violates tau <= t (tau = {tau})"
        )
    if fig.t_exceeds_k and isinstance(k, int):
        for v in _aslist(t):
            if isinstance(v, (int, float)) and v <= k:
                raise ConfigError(
                    f"{path}:{t_line or k_line}: t ({v}) must exceed k ({k}); "
                    f"{figure} optimizes tau in [K, T], which needs T > K"
                )
    for name in ("m", "m_conv"):
        val, line = value_of(name)
        for v in _aslist(val):
            if isinstance(v, int) and v < 1:
                raise ConfigError(f"{path}:{line}: {name} must be >= 1")
            numeric = isinstance(v, (int, float))
            if fig.m_exceeds_k and isinstance(k, int) and numeric and v <= k:
                raise ConfigError(
                    f"{path}:{line or k_line}: {name} ({v}) must exceed k ({k}); "
                    f"{figure} evaluates the ZF closed form, which needs M > K"
                )
    for key, (val, lineno) in entries.items():
        if isinstance(val, list) and key not in fig.grid:
            raise ConfigError(
                f"{path}:{lineno}: {key} takes one value, got a list; "
                f"{figure} sweeps only {', '.join(fig.grid)}"
            )

    spec = ExperimentSpec(
        figure_id=figure,
        sweep=sweep,
        n_trials=n_trials,
        seed=seed,
        output_path=str(output) if output else "",
    )
    return spec.resolved()


def _print_spec(spec: ExperimentSpec) -> None:
    print(f"figure     : {spec.figure_id}")
    print(f"seed       : {spec.seed}")
    print(f"n_trials   : {spec.n_trials}")
    print(f"output     : {spec.output_path}")
    linear = _linear_params(spec.sweep)
    for key in sorted(spec.sweep):
        line = f"{key:11s}: {spec.sweep[key]}"
        if key.endswith("_db"):
            lin = ", ".join(f"{v:.6g}" for v in _aslist(linear[key.removesuffix("_db")]))
            line += f"  (linear: {lin})"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="onebit-mimo",
        description="One-bit massive MIMO uplink experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config")
    p_val = sub.add_parser("validate", help="parse and check a config file")
    p_val.add_argument("config")
    sub.add_parser("list-figures", help="list available figure experiments")
    args = parser.parse_args(argv)

    if args.command == "list-figures":
        for fid in figure_ids():
            print(f"{fid:16s} {FIGURES[fid].description}")
        return 0

    try:
        spec = validate_config(args.config)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if args.command == "validate":
        _print_spec(spec)
        print("config OK")
        return 0

    _print_spec(spec)
    table = run_experiment(spec)
    out = Path(spec.output_path)
    print(f"wrote {out} ({len(table.rows)} rows x {len(table.columns)} cols)")
    print(f"wrote {out.with_suffix('.gp')}")
    print(f"wrote {out.with_suffix('.manifest.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
