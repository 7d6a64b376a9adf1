"""Command-line front end.

``cvswap point --config <file> [--dump <dir>]`` evaluates one parameter
point and prints the record; ``cvswap sweep --config <file> --spec <file>
--out <csv> [--workers N]`` runs a 2-D grid. Exit codes: 0 success, 2
configuration error, 3 evaluation finished with flagged points.

The default worker count comes from the CVSWAP_WORKERS environment
variable (1 if unset).
"""
from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .sweep import (ConfigError, dump_state, format_float, load_params,
                    load_sweep_spec, run_point, run_sweep)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FLAGGED = 3

WORKERS_ENV = "CVSWAP_WORKERS"


def _default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{WORKERS_ENV} is not an integer: {raw!r}") from exc
    if workers < 1:
        raise ConfigError(f"{WORKERS_ENV} must be >= 1, got {workers}")
    return workers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvswap",
        description="Optomechanical entanglement-swapping pipeline")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point", help="evaluate a single parameter point")
    point.add_argument("--config", required=True,
                       help="OptomechParams key = value file")
    point.add_argument("--dump", metavar="DIR",
                       help="also write the pipeline matrices to DIR")

    sweep = sub.add_parser("sweep", help="run a 2-D parameter sweep")
    sweep.add_argument("--config", required=True,
                       help="base OptomechParams key = value file")
    sweep.add_argument("--spec", required=True,
                       help="sweep axes and linkage key = value file")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--workers", type=int, default=None,
                       help=f"worker processes (default ${WORKERS_ENV} or 1)")
    return parser


def _run_point(args) -> int:
    params = load_params(args.config)
    record = run_point(params)
    print(f"stable = {'true' if record.stable else 'false'}")
    print(f"class = {record.protocol_class.name}")
    for name in ("E_N_RRE", "E_N_CCE", "mu_B", "mu_RB", "mu_BC", "chi"):
        print(f"{name} = {format_float(getattr(record, name))}")
    if args.dump is not None:
        if record.flagged:
            print("dump skipped: point is flagged", file=sys.stderr)
        else:
            paths = dump_state(params, args.dump)
            for name in ("input_cm", "output_cm", "gains", "purities"):
                print(f"wrote {paths[name]}")
    return EXIT_FLAGGED if record.flagged else EXIT_OK


def _run_sweep(args) -> int:
    params = load_params(args.config)
    spec = load_sweep_spec(args.spec, params)
    workers = args.workers if args.workers is not None else _default_workers()
    summary = run_sweep(spec, args.out, workers=workers)
    total = len(summary.records)
    counts = " ".join(f"{name}={n}"
                      for name, n in sorted(summary.class_counts.items()))
    print(f"wrote {summary.csv_path} ({total} points, "
          f"{summary.n_flagged} flagged)")
    print(f"classes: {counts}")
    return EXIT_FLAGGED if summary.n_flagged else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "point":
            return _run_point(args)
        return _run_sweep(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())