"""Single-point evaluation and 2-D parameter sweeps of the full pipeline.

A grid point runs params -> input tripartite CM -> classification -> swap
output -> entanglement figures. Results land in a CSV (one row per point,
axis1-major) plus gnuplot-compatible matrix dumps of the class and
entanglement surfaces. Everything is deterministic and independent of the
worker count.

Config files are flat UTF-8 ``key = value`` text with ``#`` comments, SI
units throughout.
"""
from __future__ import annotations

import dataclasses
import math
import multiprocessing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gaussian import StateValidationError, write_matrix
from .optomech import (OptomechParams, QuadratureConvergenceError,
                       StabilityError, output_cm)
from .protocol import (ProtocolClass, SingularBellBlockError, chi,
                       classify_from_purities, conditional_output_cm,
                       optimal_gains, purities_triplet)

AXIS_NAMES = ("kappa", "tau_b", "P_b")

CSV_FIELDS = ("stable", "class", "E_N_RRE", "E_N_CCE",
              "mu_B", "mu_RB", "mu_BC", "chi")

# surfaces dumped for plotting next to the CSV
SURFACE_FIELDS = ("class", "E_N_RRE", "E_N_CCE")


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


def format_float(x: float) -> str:
    """Shortest-exact float token (17 significant digits)."""
    return "%.17g" % x


@dataclass(frozen=True)
class AxisSpec:
    """One sweep axis: a parameter name and a linear range."""

    name: str
    start: float
    stop: float
    points: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ConfigError(
                f"axis must be one of {AXIS_NAMES}, got {self.name!r}")
        if self.points < 2:
            raise ConfigError(f"axis {self.name}: points must be >= 2")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError(f"axis {self.name}: range must be finite")
        if not self.start < self.stop:
            raise ConfigError(f"axis {self.name}: need min < max")
        floor = 0.0 if self.name == "P_b" else None
        if floor is not None:
            if self.start < floor:
                raise ConfigError(f"axis {self.name}: range must be >= 0")
        elif not self.start > 0.0:
            raise ConfigError(f"axis {self.name}: range must be positive")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class SweepSpec:
    """Two axes over a base parameter set, plus branch-linkage rules.

    A ``kappa`` axis drives both decay rates (kappa_c = kappa_b). When set,
    tau_ratio pins tau_c = tau_b / tau_ratio and power_offset pins
    P_c = P_b + power_offset after the axis values are substituted.
    """

    base: OptomechParams
    axis1: AxisSpec
    axis2: AxisSpec
    tau_ratio: float | None = None
    power_offset: float | None = None

    def __post_init__(self):
        if self.axis1.name == self.axis2.name:
            raise ConfigError("axis1 and axis2 must differ")
        for name in ("tau_ratio", "power_offset"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.tau_ratio is not None and not self.tau_ratio > 0.0:
            raise ConfigError("tau_ratio must be positive")

    def point_params(self, value1: float, value2: float) -> OptomechParams:
        """Base params with both axis values and linkages applied."""
        p = self.base
        for axis, value in ((self.axis1, value1), (self.axis2, value2)):
            if axis.name == "kappa":
                p = dataclasses.replace(p, kappa_b=value, kappa_c=value)
            elif axis.name == "tau_b":
                p = dataclasses.replace(p, tau_b=value)
            else:
                p = dataclasses.replace(p, P_b=value)
        if self.tau_ratio is not None:
            p = dataclasses.replace(p, tau_c=p.tau_b / self.tau_ratio)
        if self.power_offset is not None:
            p_c = p.P_b + self.power_offset
            if p_c < 0.0:
                raise ConfigError(
                    f"power_offset drives P_c negative at P_b={p.P_b}")
            p = dataclasses.replace(p, P_c=p_c)
        return p


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated grid point.

    Flagged points (unstable drift or failed evaluation) carry NaN in the
    numeric fields; stable reflects the drift matrix alone. In the
    certifiable regime E_N_RRE > E_N_CCE > 0 away from the class boundary;
    on the boundary the purity gap can outrun the entanglement resolution,
    so the strict form is not asserted blindly.
    """

    axis_names: tuple
    axis_values: tuple
    stable: bool
    protocol_class: ProtocolClass
    E_N_RRE: float
    E_N_CCE: float
    mu_B: float
    mu_RB: float
    mu_BC: float
    chi: float

    @property
    def flagged(self) -> bool:
        numbers = (self.E_N_RRE, self.E_N_CCE, self.mu_B, self.mu_RB,
                   self.mu_BC, self.chi)
        return (not self.stable) or any(math.isnan(v) for v in numbers)

    def csv_row(self) -> list:
        cells = [format_float(v) for v in self.axis_values]
        cells.append("true" if self.stable else "false")
        cells.append(self.protocol_class.name)
        cells += [format_float(v) for v in
                  (self.E_N_RRE, self.E_N_CCE, self.mu_B, self.mu_RB,
                   self.mu_BC, self.chi)]
        return cells


def _flagged_record(axis_names, axis_values, stable) -> SweepRecord:
    nan = float("nan")
    return SweepRecord(axis_names=tuple(axis_names),
                       axis_values=tuple(axis_values), stable=stable,
                       protocol_class=classify_from_purities(nan, nan, nan),
                       E_N_RRE=nan, E_N_CCE=nan, mu_B=nan, mu_RB=nan,
                       mu_BC=nan, chi=nan)


def run_point(params: OptomechParams, axis_names: tuple = (),
              axis_values: tuple = ()) -> SweepRecord:
    """Evaluate the full pipeline at one parameter point.

    Never raises for physics-level failures: an unstable drift matrix, a
    non-converged integral, an unphysical state or a singular Bell block
    yields a flagged record instead, so a sweep survives bad corners of its
    grid. Any other error propagates.
    """
    try:
        cm = output_cm(params)
        mu_b, mu_rb, mu_bc = purities_triplet(cm)
        klass = classify_from_purities(mu_b, mu_rb, mu_bc)
        ratio = chi(cm)
        swap = conditional_output_cm(cm, cm)
    except StabilityError:
        return _flagged_record(axis_names, axis_values, stable=False)
    except (QuadratureConvergenceError, StateValidationError,
            SingularBellBlockError):
        return _flagged_record(axis_names, axis_values, stable=True)
    return SweepRecord(axis_names=tuple(axis_names),
                       axis_values=tuple(axis_values), stable=True,
                       protocol_class=klass,
                       E_N_RRE=swap.E_N_remote,
                       E_N_CCE=swap.E_N_certifying,
                       mu_B=mu_b, mu_RB=mu_rb, mu_BC=mu_bc, chi=ratio)


@dataclass(frozen=True)
class SweepSummary:
    """Outcome of a sweep: records in row order plus aggregate counts."""

    records: tuple
    csv_path: Path
    n_flagged: int
    class_counts: dict


def csv_header(spec: SweepSpec) -> str:
    return ",".join((spec.axis1.name, spec.axis2.name) + CSV_FIELDS)


def run_sweep(spec: SweepSpec, out_path, workers: int = 1) -> SweepSummary:
    """Evaluate the grid and write the CSV plus plot surfaces.

    Row order is axis1-major and byte-identical for any worker count:
    results are gathered and sorted by grid index before writing.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    out_path = Path(out_path)
    # fail on an unwritable destination before evaluating the grid
    out_path.write_text("", encoding="utf-8")
    names = (spec.axis1.name, spec.axis2.name)
    values1 = spec.axis1.values()
    values2 = spec.axis2.values()
    tasks = []
    for v1 in values1:
        for v2 in values2:
            params = spec.point_params(float(v1), float(v2))
            tasks.append((params, names, (float(v1), float(v2))))
    if workers == 1:
        records = [run_point(*t) for t in tasks]
    else:
        with multiprocessing.Pool(processes=min(workers, len(tasks))) as pool:
            records = pool.starmap(run_point, tasks, chunksize=4)

    lines = [csv_header(spec)]
    lines += [",".join(rec.csv_row()) for rec in records]
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_surface_matrices(records, spec, out_path)

    counts = {}
    for rec in records:
        counts[rec.protocol_class.name] = counts.get(
            rec.protocol_class.name, 0) + 1
    n_flagged = sum(1 for rec in records if rec.flagged)
    return SweepSummary(records=tuple(records), csv_path=out_path,
                        n_flagged=n_flagged, class_counts=counts)


def surface_matrix_path(csv_path, field: str) -> Path:
    csv_path = Path(csv_path)
    return csv_path.with_name(f"{csv_path.stem}.{field}.mat")


def write_surface_matrices(records, spec: SweepSpec, csv_path) -> list:
    """Dump each surface in gnuplot nonuniform-matrix format.

    First row: n_cols then the axis2 values; following rows: the axis1
    value then one cell per axis2 value (class rows use the numeric enum
    value). Render with ``splot '<file>' nonuniform matrix``.
    """
    values1 = spec.axis1.values()
    values2 = spec.axis2.values()
    n2 = len(values2)
    paths = []
    for field in SURFACE_FIELDS:
        if field == "class":
            cell = lambda rec: float(rec.protocol_class.value)
        else:
            cell = lambda rec, f=field: getattr(rec, f)
        lines = [" ".join([str(n2)] + [format_float(v) for v in values2])]
        for i, v1 in enumerate(values1):
            row = records[i * n2:(i + 1) * n2]
            lines.append(" ".join([format_float(float(v1))] +
                                  [format_float(cell(rec)) for rec in row]))
        path = surface_matrix_path(csv_path, field)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def dump_state(params: OptomechParams, directory) -> dict:
    """Write the pipeline matrices for one point as plain-text files.

    Emits the 6x6 input CM, the 8x8 conditional output CM of the
    symmetric two-copy swap, the stacked 8x2 optimal gains, and the
    (mu_B, mu_RB, mu_BC) purity row. Returns the written paths by name.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cm = output_cm(params)
    swap = conditional_output_cm(cm, cm)
    gains = optimal_gains(cm, cm)
    mu_b, mu_rb, mu_bc = purities_triplet(cm)
    paths = {
        "input_cm": directory / "input_cm.txt",
        "output_cm": directory / "output_cm.txt",
        "gains": directory / "gains.txt",
        "purities": directory / "purities.txt",
    }
    write_matrix(paths["input_cm"], cm.matrix())
    write_matrix(paths["output_cm"], swap.cm)
    write_matrix(paths["gains"], gains.stacked())
    write_matrix(paths["purities"], np.array([[mu_b, mu_rb, mu_bc]]))
    return paths


def _parse_kv(path) -> dict:
    """Flat ``key = value`` file with # comments -> ordered string dict."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _as_float(entries: dict, key: str, source) -> float:
    try:
        return float(entries[key])
    except ValueError as exc:
        raise ConfigError(
            f"{source}: key {key!r} is not a number: {entries[key]!r}"
        ) from exc


PARAM_KEYS = tuple(f.name for f in dataclasses.fields(OptomechParams))


def load_params(path) -> OptomechParams:
    """Read an OptomechParams config (all fields required, SI units)."""
    entries = _parse_kv(path)
    unknown = sorted(set(entries) - set(PARAM_KEYS))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    missing = sorted(set(PARAM_KEYS) - set(entries))
    if missing:
        raise ConfigError(f"{path}: missing keys {missing}")
    values = {key: _as_float(entries, key, path) for key in PARAM_KEYS}
    try:
        return OptomechParams(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


SPEC_AXIS_KEYS = ("axis1", "axis1_min", "axis1_max", "axis1_points",
                  "axis2", "axis2_min", "axis2_max", "axis2_points")
SPEC_OPTIONAL_KEYS = ("tau_ratio", "power_offset")


def load_sweep_spec(path, base: OptomechParams) -> SweepSpec:
    """Read a sweep spec config over the given base parameters."""
    entries = _parse_kv(path)
    allowed = set(SPEC_AXIS_KEYS) | set(SPEC_OPTIONAL_KEYS)
    unknown = sorted(set(entries) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    missing = sorted(set(SPEC_AXIS_KEYS) - set(entries))
    if missing:
        raise ConfigError(f"{path}: missing keys {missing}")

    def axis(prefix: str) -> AxisSpec:
        name = entries[prefix]
        points_raw = entries[f"{prefix}_points"]
        try:
            points = int(points_raw)
        except ValueError as exc:
            raise ConfigError(
                f"{path}: {prefix}_points is not an integer: {points_raw!r}"
            ) from exc
        return AxisSpec(name=name,
                        start=_as_float(entries, f"{prefix}_min", path),
                        stop=_as_float(entries, f"{prefix}_max", path),
                        points=points)

    tau_ratio = (_as_float(entries, "tau_ratio", path)
                 if "tau_ratio" in entries else None)
    power_offset = (_as_float(entries, "power_offset", path)
                    if "power_offset" in entries else None)
    return SweepSpec(base=base, axis1=axis("axis1"), axis2=axis("axis2"),
                     tau_ratio=tau_ratio, power_offset=power_offset)