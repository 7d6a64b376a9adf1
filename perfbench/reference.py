"""Reference grids and the row comparator behind the failure count.

The reference CSVs under ``reference/`` hold every point of each full
lattice, computed by ``make_reference.py``. A benchmark row is matched to
its reference row by lattice index. Standard library only.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

NUMERIC_FIELDS = ("E_N_RRE", "E_N_CCE", "mu_B", "mu_RB", "mu_BC", "chi")
EXACT_FIELDS = ("stable", "class")

# regression-pin tolerance of the test suite; the absolute floor only
# matters for quantities that are exactly zero on one side (E_N clamps at 0)
NUMERIC_RTOL = 1e-6
NUMERIC_ATOL = 1e-12
AXIS_RTOL = 1e-12


def reference_path(lattice_name: str) -> Path:
    return REFERENCE_DIR / f"{lattice_name}.csv"


def read_rows(path) -> list:
    """CSV rows as dicts keyed by the header, in file order."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def load_reference(lattice) -> dict:
    """Map lattice index (i, j) -> reference row of the full lattice."""
    rows = read_rows(reference_path(lattice.name))
    n1, n2 = lattice.shape
    if len(rows) != n1 * n2:
        raise ValueError(f"{lattice.name}: reference has {len(rows)} rows, "
                         f"expected {n1 * n2}")
    return {(k // n2, k % n2): row for k, row in enumerate(rows)}


def _close(a: str, b: str, rtol: float, atol: float) -> bool:
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return math.isclose(x, y, rel_tol=rtol, abs_tol=atol)


def row_mismatch(row: dict, ref: dict, axis_names: tuple) -> str | None:
    """Why a result row disagrees with its reference row, or None."""
    for name in axis_names:
        if name not in row or not _close(row[name], ref[name], AXIS_RTOL, 0.0):
            return f"axis {name}: {row.get(name)} != {ref[name]}"
    for name in EXACT_FIELDS:
        if row.get(name) != ref[name]:
            return f"{name}: {row.get(name)} != {ref[name]}"
    for name in NUMERIC_FIELDS:
        if name not in row or not _close(row[name], ref[name],
                                         NUMERIC_RTOL, NUMERIC_ATOL):
            return f"{name}: {row.get(name)} != {ref[name]}"
    return None


def compare_rows(rows: list, indices: list, reference: dict,
                 axis_names: tuple) -> list:
    """One mismatch reason (or None) per expected lattice index.

    Rows are positional, so an output with a row missing or added fails
    every point.
    """
    if len(rows) != len(indices):
        return [f"{len(rows)} rows for {len(indices)} points"] * len(indices)
    return [row_mismatch(row, reference[index], axis_names)
            for row, index in zip(rows, indices)]
