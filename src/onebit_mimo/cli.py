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
    SpecError,
    _aslist,
    _linear_params,
    _span,
    figure_ids,
    run_experiment,
)

__all__ = ["ConfigError", "validate_config", "main"]

_FIELDS = {"figure": "figure_id", "output": "output_path"}  # file key: spec field


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


def validate_config(path: str | Path) -> ExperimentSpec:
    """Parse and validate a config file into a resolved ExperimentSpec.

    Applies the figure's defaults (T = 200 and rho_p = rho_d per sweep unless
    overridden). A spec that breaks a figure invariant is reported at the
    line of the first of the SpecError's keys that the file sets.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{path}: no such config file")
    values, lines = {}, {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        name = _FIELDS.get(key, key)
        if name in lines:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[name] = _parse_value(val)
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: {e}") from None
        lines[name] = lineno

    if "figure_id" not in values:
        raise ConfigError(f"{path}: missing required key 'figure'")
    spec = ExperimentSpec(
        figure_id=values.pop("figure_id"),
        n_trials=values.pop("n_trials", 0),
        seed=values.pop("seed", 0),
        output_path=str(values.pop("output_path", "") or ""),
        sweep=values,
    )
    try:
        return spec.resolved()
    except SpecError as e:
        line = next((lines[k] for k in e.keys if k in lines), None)
        where = path if line is None else f"{path}:{line}"
        raise ConfigError(f"{where}: {e}") from None


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
