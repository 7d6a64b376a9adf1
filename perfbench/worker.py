"""One workload in a fresh interpreter; started by run.py, not by hand.

``--mode setup`` performs only the workload's set-up (import, config and
spec parsing, one warm-up unit) and reports the monotonic time at which it
finished. ``--mode run`` performs the set-up and then measures, checks
every output and writes a JSON result to ``--out``.

Every timed piece of work is recorded as (raw seconds, scaled seconds,
units), the scaled time coming from calibrate.Clock. End-to-end metrics
use scaled times; the raw figures go to the environment record.

Nothing here imports numpy or the program at module level: the set-up
time must include those imports.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import lattice
import reference
import spans

GRIDS = {
    "grid_kappa_tau": (lattice.KAPPA_TAU, lattice.kappa_tau_cycle, 1),
    "grid_stability_edge": (lattice.STABILITY_EDGE,
                            lattice.stability_edge_cycle, 2),
}
WORKLOADS = tuple(GRIDS) + ("states_stream", "cli_point")

SURFACE_FIELDS = ("class", "E_N_RRE", "E_N_CCE")
CLI_DUMP_FILES = ("input_cm", "output_cm", "gains", "purities")
CLI_SUBPROCESS_TIMEOUT_S = 120
# repetitions of the bare-interpreter and --version timings of a traced run
CLI_STARTUP_REPEATS = 5

RAW, SCALED, UNITS = range(3)


class Tally:
    """Units attempted and failed, with the first few reasons kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(reason)


def cycles(make_cycle, seed, seconds, run_one):
    """Run whole seeded cycles until the timed total reaches seconds.

    run_one(item) returns the raw seconds it timed. Returns the items run.
    """
    rng = random.Random(seed)
    done = []
    elapsed = 0.0
    while elapsed < seconds:
        for item in make_cycle(rng):
            elapsed += run_one(item)
            done.append(item)
    return done


def total(timings, field=SCALED) -> float:
    return sum(t[field] for t in timings)


def unit_ms(timings, group=1) -> dict:
    """Median time per unit over samples of group consecutive timed pieces
    (a grid's whole cycle, so that every sample has the same mix of
    sub-rectangles); scaled, and raw for the record."""
    samples = [timings[k:k + group] for k in range(0, len(timings), group)]

    def p50_ms(field):
        return statistics.median(total(s, field) / total(s, UNITS)
                                 for s in samples) * 1e3

    return {"unit_ms_p50": p50_ms(SCALED), "raw_unit_ms_p50": p50_ms(RAW)}


# -- grids ------------------------------------------------------------------

class GridWorkload:
    """run_sweep over seeded sub-rectangles of a reference lattice."""

    def __init__(self, name, workdir, cpus):
        self.lattice, self.make_cycle, self.workers = GRIDS[name]
        self.workdir = workdir
        self.cpus = cpus
        self.axis_names = (self.lattice.axis1.name, self.lattice.axis2.name)

    def setup(self, seed):
        from cvswap import sweep
        self.sweep = sweep
        self.base = sweep.load_params(lattice.write_params(
            self.workdir / "base.cfg", self.lattice.base))
        full = self.load_spec(lattice.full_rect(self.lattice))
        sweep.run_point(full.point_params(self.lattice.axis1.values()[0],
                                          self.lattice.axis2.values()[0]))

    @functools.cached_property
    def expected(self) -> dict:
        # read on first check, outside set-up: it is the benchmark's work
        return reference.load_reference(self.lattice)

    def load_spec(self, rect):
        path = lattice.write_spec(self.workdir / "rect.spec", rect)
        return self.sweep.load_sweep_spec(path, self.base)

    def run_rect(self, rect, workers, clock, tally, timings, flagged):
        """Time one run_sweep call and check every row; returns seconds."""
        spec = self.load_spec(rect)
        out = self.workdir / "grid.csv"
        indices = rect.indices()
        t0 = time.perf_counter()
        try:
            self.sweep.run_sweep(spec, out, workers=workers)
            error = None
        except Exception as exc:   # a crash fails every point of the call
            error = f"run_sweep raised {exc!r}"[:200]
        dt = time.perf_counter() - t0
        timings.append((dt, clock.scaled(dt), len(indices)))
        rows = [] if error else reference.read_rows(out)
        if error is None:
            missing = [f for f in SURFACE_FIELDS
                       if not out.with_name(f"grid.{f}.mat").is_file()]
            if missing:
                error = f"surfaces not written: {missing}"
        reasons = ([error] * len(indices) if error else
                   reference.compare_rows(rows, indices, self.expected,
                                          self.axis_names))
        for reason in reasons:
            tally.add(reason)
        flagged.append(sum(1 for row in rows if row_flagged(row)))
        return dt

    def run_all(self, rects, workers, tally):
        clock = calibrate.Clock(self.cpus[:workers])
        timings = []
        for rect in rects:
            self.run_rect(rect, workers, clock, tally, timings, [])
        return timings

    def measure(self, seed, seconds, tally):
        clock = calibrate.Clock(self.cpus[:self.workers])
        timings = []
        cycles(self.make_cycle, seed, seconds,
               lambda rect: self.run_rect(rect, self.workers, clock, tally,
                                          timings, []))
        return unit_ms(timings, group=lattice.STRATA)

    def trace(self, seed, seconds, tally):
        tracer = spans.Tracer(child_dir=self.workdir)
        clock = calibrate.Clock(self.cpus[:self.workers])
        traced, flagged = [], []
        tracer.install()
        try:
            rects = cycles(self.make_cycle, seed, seconds,
                           lambda rect: self.run_rect(rect, self.workers,
                                                      clock, tally, traced,
                                                      flagged))
        finally:
            tracer.uninstall()
        tracer.collect_children()
        plain = self.run_all(rects, self.workers, tally)
        other = self.run_all(rects, 3 - self.workers, tally)
        one, two = (plain, other) if self.workers == 1 else (other, plain)
        metrics = spans.summarize(
            tracer.spans, busy_s=total(traced, RAW) * self.workers)
        metrics["sweep.flagged_rows"] = sum(flagged)
        # raw wall times: the two worker counts calibrate different cores
        metrics["sweep.parallel_efficiency"] = (
            total(one, RAW) / (2 * total(two, RAW)))
        metrics["trace.overhead_frac"] = total(traced) / total(plain) - 1.0
        return metrics, tracer


def row_flagged(row) -> bool:
    return row["stable"] != "true" or any(
        row[f] == "nan" for f in reference.NUMERIC_FIELDS)


# -- protocol library stream ------------------------------------------------

class StatesWorkload:
    """The README's library path over a seeded stream of 6x6 CMs."""

    def __init__(self, cpus):
        self.cpus = cpus

    def setup(self, seed):
        import numpy
        from cvswap import protocol
        import states
        self.protocol = protocol
        self.states = states
        states.process(protocol, states.generic_state(
            numpy.random.default_rng(seed)))

    def run_states(self, seed, tally, stop, tracer=None) -> list:
        """Process whole blocks of the stream until stop(raw seconds,
        states) is true; one timing per state."""
        states = self.states
        clock = calibrate.Clock(self.cpus[:1])
        stream = states.stream(seed)
        timings = []
        elapsed = 0.0
        while not stop(elapsed, len(timings)):
            block = []
            for _ in range(len(states.BLOCK)):
                kind, m, beta = next(stream)
                if tracer is not None:
                    token = tracer.begin(
                        "bench.state" if kind != "invalid"
                        else "bench.invalid_state", unit_root=True)
                t0 = time.perf_counter()
                try:
                    outcome = states.process(self.protocol, m)
                except Exception as exc:   # checked below
                    outcome = exc
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.end(token)
                block.append((kind, m, beta, outcome, dt))
            scale = clock.factor()
            for kind, m, beta, outcome, dt in block:
                elapsed += dt
                timings.append((dt, dt * scale, 1))
            with paused(tracer):
                for kind, m, beta, outcome, _ in block:
                    tally.add(states.check(self.protocol, kind, m, beta,
                                           outcome))
        return timings

    def measure(self, seed, seconds, tally):
        return unit_ms(self.run_states(seed, tally,
                                       lambda t, n: t >= seconds))

    def trace(self, seed, seconds, tally):
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = self.run_states(seed, tally, lambda t, n: t >= seconds,
                                     tracer)
        finally:
            tracer.uninstall()
        plain = self.run_states(seed, tally, lambda t, n: n >= len(traced))
        metrics = spans.summarize(tracer.spans, busy_s=total(traced, RAW),
                                  excluded_units=("bench.invalid_state",))
        metrics["trace.overhead_frac"] = total(traced) / total(plain) - 1.0
        return metrics, tracer


@contextlib.contextmanager
def paused(tracer):
    """Stop recording while the benchmark checks outputs."""
    if tracer is None:
        yield
        return
    tracer.uninstall()
    try:
        yield
    finally:
        tracer.install()


# -- CLI --------------------------------------------------------------------

class CliWorkload:
    """``cvswap point --dump`` on seeded kappa_tau lattice points."""

    def __init__(self, workdir, cpus):
        self.workdir = workdir
        self.cpus = cpus
        self.n = 0

    def setup(self, seed):
        """Nothing in process: cli_point's setup_s is the start-up of
        ``cvswap.cli --version``, which run.py times."""

    @functools.cached_property
    def expected(self) -> dict:
        return reference.load_reference(lattice.KAPPA_TAU)

    def point_args(self, point):
        self.n += 1
        cfg = lattice.write_params(
            self.workdir / f"point-{self.n}.cfg",
            lattice.point_params(lattice.KAPPA_TAU, *point))
        dump = self.workdir / f"dump-{self.n}"
        return ["point", "--config", str(cfg), "--dump", str(dump)], dump

    def check(self, point, code, stdout, dump) -> str | None:
        try:
            if code != 0:
                return f"exit code {code}"
            printed = {}
            for line in stdout.splitlines():
                key, sep, value = line.partition(" = ")
                if sep:
                    printed[key] = value
            reason = reference.row_mismatch(printed, self.expected[point], ())
            if reason:
                return reason
            missing = [f for f in CLI_DUMP_FILES
                       if not (dump / f"{f}.txt").is_file()]
            if missing:
                return f"dump files missing: {missing}"
            dumped = [float(tok) for tok in
                      (dump / "purities.txt").read_text().split()]
            want = [float(printed[k]) for k in ("mu_B", "mu_RB", "mu_BC")]
            if dumped != want:
                return f"purities.txt {dumped} != printed {want}"
            return None
        finally:
            shutil.rmtree(dump, ignore_errors=True)

    def run_subprocess(self, point, clock, tally, timings):
        args, dump = self.point_args(point)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cvswap.cli"] + args,
                capture_output=True, text=True,
                timeout=CLI_SUBPROCESS_TIMEOUT_S)
            code, out = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            code, out = "timeout", ""
        dt = time.perf_counter() - t0
        timings.append((dt, clock.scaled(dt), 1))
        tally.add(self.check(point, code, out, dump))
        return dt

    def run_in_process(self, point, clock, tally, timings, tracer=None):
        from cvswap import cli
        args, dump = self.point_args(point)
        buf = io.StringIO()
        if tracer is not None:
            token = tracer.begin("cli.main", unit_root=True)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(args)
        except (Exception, SystemExit) as exc:
            code = repr(exc)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(token)
        timings.append((dt, clock.scaled(dt), 1))
        tally.add(self.check(point, code, buf.getvalue(), dump))
        return dt

    def measure(self, seed, seconds, tally):
        clock = calibrate.Clock(self.cpus[:1], calibrate.startup_kernel)
        timings = []
        cycles(lattice.cli_point_cycle, seed, seconds,
               lambda p: self.run_subprocess(p, clock, tally, timings))
        return unit_ms(timings)

    def trace(self, seed, seconds, tally):
        clock = calibrate.Clock(self.cpus[:1], calibrate.startup_kernel)
        tracer = spans.Tracer()
        traced = []
        tracer.install()
        try:
            points = cycles(
                lattice.cli_point_cycle, seed, seconds,
                lambda p: self.run_in_process(p, clock, tally, traced,
                                              tracer))
        finally:
            tracer.uninstall()
        plain = []
        for point in points:
            self.run_in_process(point, clock, tally, plain)
        metrics = spans.summarize(tracer.spans, busy_s=total(traced, RAW))
        interp = median_wall([sys.executable, "-c", "pass"])
        version = median_wall([sys.executable, "-m", "cvswap.cli",
                               "--version"])
        metrics["cli.interpreter_ms"] = interp * 1e3
        metrics["cli.import_ms"] = (version - interp) * 1e3
        metrics["cli.main_ms"] = statistics.median(
            t[RAW] for t in traced) * 1e3
        metrics["trace.overhead_frac"] = total(traced) / total(plain) - 1.0
        return metrics, tracer


def median_wall(cmd) -> float:
    times = []
    for _ in range(CLI_STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, capture_output=True,
                       timeout=CLI_SUBPROCESS_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# -- shared -----------------------------------------------------------------

def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def environment() -> dict:
    import numpy
    import scipy
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")},
    }


def make_workload(name, workdir, cpus):
    if name in GRIDS:
        return GridWorkload(name, workdir, cpus)
    if name == "states_stream":
        return StatesWorkload(cpus)
    return CliWorkload(workdir, cpus)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--cpus", required=True,
                        help="comma-separated CPUs to measure on")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)
    cpus = [int(c) for c in args.cpus.split(",")]

    workload = make_workload(args.workload, args.workdir, cpus)
    workload.setup(args.seed)
    if args.mode == "setup":
        args.out.write_text(json.dumps({"setup_end": time.monotonic()}))
        return 0

    tally = Tally()
    info = {}
    if args.trace:
        metrics, tracer = workload.trace(args.seed, args.seconds, tally)
        if args.trace_out is not None:
            tracer.dump(args.trace_out, workload=args.workload,
                        seed=args.seed)
        info["absent"] = tracer.absent
    else:
        metrics = workload.measure(args.seed, args.seconds, tally)
        metrics["peak_rss_mb"] = peak_rss_mb()
        info["raw_unit_ms_p50"] = metrics.pop("raw_unit_ms_p50")
    result = {"attempted": tally.attempted, "failed": tally.failed,
              "errors": tally.errors, "metrics": metrics,
              "info": {**info, **environment()}}
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
