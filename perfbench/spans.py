"""In-memory span tracer that wraps the program's public names from outside.

Only the traced pass installs it. Each span records its id, parent span,
unit id, name, start and end (``time.perf_counter``, which on Linux reads
the system-wide monotonic clock, so spans from forked pool workers line up
with the parent's) and an optional count. Spans stay in memory and are
written out when the run ends; a forked pool worker appends its spans to
a file of its own after each top-level call, because pool workers are
terminated rather than shut down.

A unit is one piece of user-visible work (a grid point, a state, a CLI
invocation); the first unit-root span opened while no unit is open starts
one, and every span below it carries its id.

Standard library only.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
from pathlib import Path
from time import perf_counter

FIELDS = ("id", "parent", "unit", "name", "start", "end", "count")
ID, PARENT, UNIT, NAME, START, END, COUNT = range(len(FIELDS))

# (module, attribute path, span name, unit root?). Call sites bind names
# per module (``from .sweep import run_point`` in the CLI), so a name is
# wrapped in every module whose call sites the workloads reach.
TARGETS = (
    ("cvswap.sweep", "run_sweep", "sweep.run_sweep", False),
    ("cvswap.sweep", "run_point", "sweep.run_point", True),
    ("cvswap.cli", "run_point", "sweep.run_point", True),
    ("cvswap.sweep", "write_surface_matrices",
     "sweep.write_surface_matrices", False),
    ("cvswap.cli", "dump_state", "sweep.dump_state", False),
    ("cvswap.sweep", "output_cm", "optomech.output_cm", False),
    ("cvswap.sweep", "steady_state", "optomech.steady_state", False),
    ("cvswap.optomech", "steady_state", "optomech.steady_state", False),
    ("cvswap.optomech", "quad_vec", "optomech.quad_vec", False),
    ("cvswap.sweep", "purities_triplet", "protocol.purities_triplet", False),
    ("cvswap.sweep", "chi", "protocol.chi", False),
    ("cvswap.sweep", "conditional_output_cm",
     "protocol.conditional_output_cm", False),
    ("cvswap.sweep", "optimal_gains", "protocol.optimal_gains", False),
    ("cvswap.protocol", "TripartiteCM.from_matrix", "protocol.from_matrix",
     False),
    ("cvswap.protocol", "purities_triplet", "protocol.purities_triplet",
     False),
    ("cvswap.protocol", "chi", "protocol.chi", False),
    ("cvswap.protocol", "conditional_output_cm",
     "protocol.conditional_output_cm", False),
    ("cvswap.protocol", "optimal_gains", "protocol.optimal_gains", False),
    ("cvswap.gaussian", "GaussianState.__post_init__", "gaussian.validate",
     False),
    ("cvswap.gaussian", "min_physicality_eigenvalue",
     "gaussian.min_physicality_eigenvalue", False),
    ("cvswap.gaussian", "symplectic_form", "gaussian.symplectic_form", False),
)

# the integrand handed to quad_vec is wrapped to count its evaluations
COUNTED_FIRST_ARG = {"optomech.quad_vec"}


class Tracer:
    def __init__(self, child_dir=None):
        self.spans = []
        self.absent = []
        self._stack = []
        self._unit = None
        self._seq = 0
        self._base = os.getpid() * 10 ** 9
        self._installed = []
        self._child_dir = Path(child_dir) if child_dir is not None else None
        self._flush_depth = None
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, unit_root: bool = False) -> list:
        self._seq += 1
        sid = self._base + self._seq
        opened = unit_root and self._unit is None
        if opened:
            self._unit = sid
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return [sid, parent, self._unit, name, perf_counter(), opened]

    def end(self, token: list, count=None) -> None:
        t = perf_counter()
        self._stack.pop()
        sid, parent, unit, name, start, opened = token
        if opened:
            self._unit = None
        self.spans.append((sid, parent, unit, name, start, t, count))
        if self._flush_depth is not None \
                and len(self._stack) == self._flush_depth:
            self._flush_child()

    def _after_fork(self):
        # keep the inherited stack so the first spans here point at the
        # parent's open span; start fresh ids and an empty buffer
        self.spans = []
        self._seq = 0
        self._base = os.getpid() * 10 ** 9
        self._flush_depth = len(self._stack)

    def _flush_child(self):
        if self._child_dir is None or not self.spans:
            self.spans = []
            return
        path = self._child_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect_children(self) -> None:
        """Merge the span files written by forked workers."""
        if self._child_dir is None:
            return
        for path in sorted(self._child_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                self.spans.extend(tuple(json.loads(line)) for line in fh)
            path.unlink()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, func, name: str, unit_root: bool):
        tracer = self

        if name in COUNTED_FIRST_ARG:
            @functools.wraps(func)
            def counting(f, *args, **kwargs):
                calls = [0]

                def counted(*a, **k):
                    calls[0] += 1
                    return f(*a, **k)

                token = tracer.begin(name, unit_root)
                try:
                    return func(counted, *args, **kwargs)
                finally:
                    tracer.end(token, calls[0])
            return counting

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            token = tracer.begin(name, unit_root)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.end(token)
        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; list the others as absent.

        All modules are imported before anything is wrapped: a module
        imported later would bind the wrapper under its own name (``from
        .sweep import run_point``), and wrapping that again would nest two
        spans and outlive uninstall.
        """
        self.absent = []
        modules = {}
        for module_name, *_ in targets:
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                pass
        for module_name, path, name, unit_root in targets:
            label = f"{module_name}.{path}"
            owner = modules.get(module_name)
            if owner is None:
                self.absent.append(label)
                continue
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            raw = (owner.__dict__.get(attr) if isinstance(owner, type)
                   else getattr(owner, attr, None))
            if raw is None:
                self.absent.append(label)
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, unit_root))
            else:
                new = self._wrap(raw, name, unit_root)
            setattr(owner, attr, new)
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed = []

    def dump(self, path, **extra) -> None:
        record = {"fields": FIELDS, "absent": self.absent, **extra,
                  "spans": self.spans}
        Path(path).write_text(json.dumps(record), encoding="utf-8")


# -- analysis ---------------------------------------------------------------

def covered(interval: tuple, parts: list) -> float:
    """Length of the union of parts, clipped to interval."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in parts
                     if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list) -> dict:
    """Span id -> duration minus the part of it that child spans cover.

    Children may overlap each other (pool workers run in parallel), so the
    union of their intervals is taken, not the sum.
    """
    children = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return {s[ID]: (s[END] - s[START])
            - covered((s[START], s[END]), children.get(s[ID], []))
            for s in spans}


def percentile(values: list, q: float) -> float:
    """Linear-interpolated percentile (q in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def outermost_in_layer(spans: list, layer_name: str) -> list:
    """Spans of a layer that have no ancestor in the same layer."""
    by_id = {s[ID]: s for s in spans}
    out = []
    for s in spans:
        if layer(s[NAME]) != layer_name:
            continue
        p = by_id.get(s[PARENT])
        while p is not None and layer(p[NAME]) != layer_name:
            p = by_id.get(p[PARENT])
        if p is None:
            out.append(s)
    return out


def summarize(spans: list, *, busy_s: float, excluded_units=()) -> dict:
    """Per-layer figures from one traced phase.

    busy_s is the processor time available to the work: the phase's wall
    time multiplied by the number of processes doing the work. Counts per
    unit and per-name percentiles leave out units whose root span is named
    in excluded_units (rejected inputs, which stop after validation);
    shares keep them.
    """
    skip = {s[ID] for s in spans
            if s[ID] == s[UNIT] and s[NAME] in excluded_units}
    kept = [s for s in spans if s[UNIT] not in skip]
    units = sum(1 for s in kept if s[ID] == s[UNIT])

    def durations(name, scale):
        return [(s[END] - s[START]) * scale for s in kept if s[NAME] == name]

    def per_unit(name):
        return sum(1 for s in kept if s[NAME] == name) / units if units else 0.0

    def share(selected):
        return (sum(s[END] - s[START] for s in selected) / busy_s
                if busy_s > 0 else 0.0)

    quad = [s for s in kept if s[NAME] == "optomech.quad_vec"]
    own = self_times(spans)
    gaussian_self = sum(own[s[ID]] for s in spans
                        if layer(s[NAME]) == "gaussian")
    sweep_self = [own[s[ID]] for s in spans if s[NAME] == "sweep.run_sweep"]
    return {
        "optomech.output_cm.calls_per_unit": per_unit("optomech.output_cm"),
        "optomech.output_cm.ms_p50": percentile(
            durations("optomech.output_cm", 1e3), 50),
        "optomech.output_cm.ms_p90": percentile(
            durations("optomech.output_cm", 1e3), 90),
        "optomech.output_cm.share": share(
            [s for s in spans if s[NAME] == "optomech.output_cm"]),
        "optomech.integrand_evals_per_call": (
            sum(s[COUNT] for s in quad) / len(quad) if quad else 0.0),
        "optomech.steady_state.calls_per_unit": per_unit(
            "optomech.steady_state"),
        "optomech.steady_state.us_p50": percentile(
            durations("optomech.steady_state", 1e6), 50),
        "protocol.from_matrix.us_p50": percentile(
            durations("protocol.from_matrix", 1e6), 50),
        "protocol.purities_triplet.us_p50": percentile(
            durations("protocol.purities_triplet", 1e6), 50),
        "protocol.chi.us_p50": percentile(durations("protocol.chi", 1e6), 50),
        "protocol.conditional_output_cm.us_p50": percentile(
            durations("protocol.conditional_output_cm", 1e6), 50),
        "protocol.optimal_gains.us_p50": percentile(
            durations("protocol.optimal_gains", 1e6), 50),
        "protocol.share": share(outermost_in_layer(spans, "protocol")),
        "gaussian.validations_per_unit": per_unit("gaussian.validate"),
        "gaussian.min_physicality_eigenvalue.calls_per_unit": per_unit(
            "gaussian.min_physicality_eigenvalue"),
        "gaussian.symplectic_form.calls_per_unit": per_unit(
            "gaussian.symplectic_form"),
        "gaussian.self_share": gaussian_self / busy_s if busy_s > 0 else 0.0,
        "sweep.run_point.ms_p50": percentile(
            durations("sweep.run_point", 1e3), 50),
        "sweep.run_point.ms_p90": percentile(
            durations("sweep.run_point", 1e3), 90),
        "sweep.self_s": statistics.median(sweep_self) if sweep_self else 0.0,
        "sweep.write_surface_matrices.ms": percentile(
            durations("sweep.write_surface_matrices", 1e3), 50),
        "sweep.dump_state.ms": percentile(
            durations("sweep.dump_state", 1e3), 50),
    }
