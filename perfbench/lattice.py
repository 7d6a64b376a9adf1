"""Reference lattices, seeded sub-rectangles and generated input files.

Standard library only, so run.py, the reference generator and the
self-tests can all use it without importing the program.

The base parameter sets are copies of the two example configs that ship
with the package, frozen here so that the benchmark's inputs (and the
committed reference CSVs computed from them) do not move when the examples
change.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

OMEGA_M = 62831853.071795866

KAPPA_TAU_BASE = {
    "L": 0.001, "m": 1e-11, "omega_m": OMEGA_M, "Q_m": 1e5, "T": 0.4,
    "lambda_b": 810.045e-9, "P_b": 0.004, "kappa_b": 43982297.150257103,
    "Delta_b": -OMEGA_M, "Omega_b": -OMEGA_M,
    "tau_b": 1.2732395447351627e-07,
    "lambda_c": 810.373e-9, "P_c": 0.0045, "kappa_c": 43982297.150257103,
    "Delta_c": OMEGA_M, "Omega_c": OMEGA_M,
    "tau_c": 2.1220659078919379e-08,
}

POWER_TAU_BASE = {
    "L": 0.001, "m": 1e-11, "omega_m": OMEGA_M, "Q_m": 1e5, "T": 0.4,
    "lambda_b": 810.045e-9, "P_b": 0.002, "kappa_b": 31415926.535897933,
    "Delta_b": -OMEGA_M, "Omega_b": -OMEGA_M,
    "tau_b": 2.3873241463784301e-07,
    "lambda_c": 810.373e-9, "P_c": 0.0025, "kappa_c": 31415926.535897933,
    "Delta_c": OMEGA_M, "Omega_c": OMEGA_M,
    "tau_c": 4.7746482927568599e-08,
}


@dataclass(frozen=True)
class Axis:
    name: str
    start: float
    stop: float
    points: int

    def values(self) -> list:
        # same arithmetic as numpy.linspace for these sizes: start + k*step,
        # with the end point pinned exactly
        step = (self.stop - self.start) / (self.points - 1)
        vals = [self.start + k * step for k in range(self.points)]
        vals[-1] = self.stop
        return vals


@dataclass(frozen=True)
class Lattice:
    """A full two-axis grid: base parameters, axes and linkage rules."""

    name: str
    base: dict
    axis1: Axis
    axis2: Axis
    tau_ratio: float | None = None

    @property
    def shape(self) -> tuple:
        return self.axis1.points, self.axis2.points


# the shipped 30x30 decay-rate x filter-time grid
KAPPA_TAU = Lattice(
    name="kappa_tau", base=KAPPA_TAU_BASE,
    axis1=Axis("kappa", 12566370.614359174, 125663706.14359173, 30),
    axis2=Axis("tau_b", 3.1830988618379068e-08, 4.7746482927568602e-07, 30),
    tau_ratio=6.0)

# Drive power x filter time with P_c held at the power_tau base of 2.5 mW
# (no power_offset). The blue drive goes unstable at P_b = 2.4994 mW, which
# falls midway between rows 14 (2.448 mW) and 15 (2.552 mW): rows 0-14 are
# stable and rows 15-29 flagged, on every column.
STABILITY_EDGE = Lattice(
    name="stability_edge", base=POWER_TAU_BASE,
    axis1=Axis("P_b", 0.001, 0.004, 30),
    axis2=Axis("tau_b", 6.3661977236758137e-08, 6.3661977236758129e-07, 30),
    tau_ratio=5.0)

LATTICES = {lat.name: lat for lat in (KAPPA_TAU, STABILITY_EDGE)}

FIRST_UNSTABLE_ROW = 15


@dataclass(frozen=True)
class SubRect:
    """Rows i0..i0+rows-1 and columns j0..j0+cols-1 of a lattice."""

    lattice: Lattice
    i0: int
    j0: int
    rows: int
    cols: int

    def indices(self) -> list:
        """Lattice (i, j) of each sweep row, in the sweep's axis1-major order."""
        return [(self.i0 + a, self.j0 + b)
                for a in range(self.rows) for b in range(self.cols)]

    def spec_text(self) -> str:
        lat = self.lattice
        v1 = lat.axis1.values()
        v2 = lat.axis2.values()
        lines = [
            f"axis1 = {lat.axis1.name}",
            f"axis1_min = {v1[self.i0]!r}",
            f"axis1_max = {v1[self.i0 + self.rows - 1]!r}",
            f"axis1_points = {self.rows}",
            f"axis2 = {lat.axis2.name}",
            f"axis2_min = {v2[self.j0]!r}",
            f"axis2_max = {v2[self.j0 + self.cols - 1]!r}",
            f"axis2_points = {self.cols}",
        ]
        if lat.tau_ratio is not None:
            lines.append(f"tau_ratio = {lat.tau_ratio!r}")
        return "\n".join(lines) + "\n"


def full_rect(lattice: Lattice) -> SubRect:
    return SubRect(lattice, 0, 0, *lattice.shape)


def params_text(values: dict) -> str:
    return "".join(f"{key} = {value!r}\n" for key, value in values.items())


def write_params(path, values: dict) -> Path:
    path = Path(path)
    path.write_text(params_text(values), encoding="utf-8")
    return path


def write_spec(path, rect: SubRect) -> Path:
    path = Path(path)
    path.write_text(rect.spec_text(), encoding="utf-8")
    return path


def point_params(lattice: Lattice, i: int, j: int) -> dict:
    """Base parameters with lattice point (i, j) substituted, applying the
    same linkage rules as a sweep spec (kappa drives both decay rates,
    tau_c = tau_b / tau_ratio)."""
    p = dict(lattice.base)
    for axis, value in ((lattice.axis1, lattice.axis1.values()[i]),
                        (lattice.axis2, lattice.axis2.values()[j])):
        if axis.name == "kappa":
            p["kappa_b"] = p["kappa_c"] = value
        else:
            p[axis.name] = value
    if lattice.tau_ratio is not None:
        p["tau_c"] = p["tau_b"] / lattice.tau_ratio
    return p


# Each workload draws its inputs in cycles over strata, and a run always
# ends on a whole cycle. A cycle pairs every row stratum once with every
# column stratum once, in two independent seeded orders, with a seeded
# offset inside each stratum. Every run then carries the same mix of cheap
# and expensive inputs whatever the seed: the cost of a stable point grows
# with kappa (about 117 ms at the lowest row to 154 ms at the highest) and
# with 1/tau at the shortest filter times, and a stability-edge call's cost
# is set by how many of its rows are unstable.

STRATA = 5                  # strata per axis and sub-rectangles per cycle


def _cycle(rng, lattice, row_starts, rows, cols) -> list:
    """One sub-rectangle per row start, each in its own column band."""
    band = lattice.axis2.points // STRATA
    row_starts = list(row_starts)
    bands = list(range(STRATA))
    rng.shuffle(row_starts)
    rng.shuffle(bands)
    return [SubRect(lattice, i0, b * band + rng.randrange(band - cols + 1),
                    rows, cols)
            for i0, b in zip(row_starts, bands)]


def kappa_tau_cycle(rng: random.Random, rows: int = 2, cols: int = 3) -> list:
    """One sub-rectangle per kappa band (6 rows each), seeded row offset."""
    band = KAPPA_TAU.axis1.points // STRATA
    starts = [k * band + rng.randrange(band - rows + 1)
              for k in range(STRATA)]
    return _cycle(rng, KAPPA_TAU, starts, rows, cols)


def stability_edge_cycle(rng: random.Random, rows: int = 4,
                         cols: int = 6) -> list:
    """Sub-rectangles whose first row steps across the edge, from all rows
    stable to all rows flagged: half of a cycle's rows are unstable."""
    starts = range(FIRST_UNSTABLE_ROW - rows, FIRST_UNSTABLE_ROW + 1)
    return _cycle(rng, STABILITY_EDGE, starts, rows, cols)


def cli_point_cycle(rng: random.Random) -> list:
    """One kappa_tau lattice point (i, j) per kappa band, in seeded order."""
    return [(r.i0, r.j0) for r in kappa_tau_cycle(rng, rows=1, cols=1)]
