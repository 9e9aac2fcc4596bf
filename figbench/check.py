"""Output check: every CSV row (grid point) of a pass against the reference CSVs.

The references in ``refs/<workload>/`` were written by the unchanged program
at ``DEFAULT_SEED``. Tolerances are those the ROADMAP sets for the planned
optimizations, relative to the reference value:

- nML columns 1e-10 (vectorized nML solver);
- allocation figures fig6-fig9 1e-9, with optimal training lengths and
  antenna counts identical (vectorized allocation scan);
- every other column 1e-12 (quantizer-noise kernel, batching, de-duplication).

At another seed only seed-free columns (sweep coordinates, closed forms and
everything in the seed-free figures) are compared cell by cell. A Monte
Carlo mean must then lie within ``Z_SEED`` combined standard errors of the
reference, every MC cell must be finite and every ``se_`` column positive.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

from workloads import DEFAULT_SEED, MC_FIGURES

REFS = Path(__file__).resolve().parent / "refs"

Z_SEED = 10.0
ALLOCATION_FIGURES = {"fig6_bit_energy", "fig7_opt_tau", "fig8_se_vs_m", "fig9_kappa"}


def _tolerance(figure: str, column: str) -> float:
    if figure in ALLOCATION_FIGURES:
        return 0.0 if column.startswith(("tau_", "m_one_")) else 1e-9
    if column.endswith("_nml"):
        return 1e-10
    return 1e-12


def _close(x: float, ref: float, tol: float) -> bool:
    if math.isnan(x) or math.isnan(ref):
        return False
    if math.isinf(x) or math.isinf(ref) or tol == 0.0:
        return x == ref
    return abs(x - ref) <= tol * max(abs(ref), 1e-300)


def _parse(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def failed_rows(workload: str, figure: str, text: str, seed: int, n_points: int) -> set:
    """Indices of the grid points of one figure's CSV that fail the check (all if unreadable)."""
    ref_cols, ref_rows = _parse((REFS / workload / f"{figure}.csv").read_text())
    try:
        cols, rows = _parse(text)
    except (ValueError, IndexError):
        return set(range(n_points))
    if cols != ref_cols or len(rows) != n_points or len(ref_rows) != n_points:
        return set(range(n_points))
    exact = seed == DEFAULT_SEED or figure not in MC_FIGURES
    bad = set()
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        cell, refc = dict(zip(cols, row)), dict(zip(cols, ref))
        if not all(_cell_ok(figure, c, cell, refc, exact) for c in cols):
            bad.add(i)
    return bad


def _cell_ok(figure: str, c: str, cell: dict, ref: dict, exact: bool) -> bool:
    x, r = cell[c], ref[c]
    err = f"se_{c}"
    if figure in MC_FIGURES and (not math.isfinite(x) or (c.startswith("se_") and x <= 0.0)):
        return False
    if exact or not (c.startswith("se_") or err in cell):  # seed-free column
        return _close(x, r, _tolerance(figure, c))
    if err in cell:  # Monte Carlo mean at another seed
        return abs(x - r) <= Z_SEED * math.hypot(cell[err], ref[err])
    return True  # a standard error at another seed: checked for sign only
