"""Regenerate the reference CSVs of both benchmark lattices.

Runs ``cvswap.sweep.run_sweep`` over every point of each full lattice and
keeps the CSV (the plot surfaces are dropped). Run it from the repository
root on the commit whose outputs the benchmark should hold later commits
to:

    PYTHONPATH=src python3 perfbench/make_reference.py

It uses up to two pool workers; the CSV is byte-identical for any worker
count.
"""
from __future__ import annotations

import os
import shutil
import sys
import tempfile
from pathlib import Path

import lattice
import reference


def main() -> int:
    workers = min(2, len(os.sched_getaffinity(0)))
    from cvswap.sweep import load_params, load_sweep_spec, run_sweep

    reference.REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        tmp = Path(tmp)
        for name, lat in sorted(lattice.LATTICES.items()):
            base = load_params(lattice.write_params(tmp / f"{name}.cfg",
                                                    lat.base))
            spec = load_sweep_spec(
                lattice.write_spec(tmp / f"{name}.spec",
                                   lattice.full_rect(lat)), base)
            summary = run_sweep(spec, tmp / f"{name}.csv",
                                workers=workers)
            shutil.copyfile(tmp / f"{name}.csv",
                            reference.reference_path(name))
            print(f"{name}: {len(summary.records)} points, "
                  f"{summary.n_flagged} flagged, {summary.class_counts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
