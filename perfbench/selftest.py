"""Self-tests of the benchmark's own logic; they do not import the program.

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import types
import unittest
from pathlib import Path

import numpy as np

import lattice
import reference
import run
import spans

ROOT = Path(__file__).resolve().parent.parent


def span(sid, parent, unit, name, start, end, count=None):
    return (sid, parent, unit, name, start, end, count)


class SelfTime(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        tree = [
            span(1, None, None, "sweep.run_sweep", 0.0, 10.0),
            # two pool workers running at once: union 1..6, not 3 + 3
            span(2, 1, 2, "sweep.run_point", 1.0, 4.0),
            span(3, 1, 3, "sweep.run_point", 3.0, 6.0),
            span(4, 2, 2, "optomech.output_cm", 2.0, 3.0),
            # a child that outlives its parent only counts inside it
            span(5, 4, 2, "optomech.quad_vec", 2.5, 3.5, 7),
        ]
        own = spans.self_times(tree)
        self.assertAlmostEqual(own[1], 5.0)
        self.assertAlmostEqual(own[2], 2.0)
        self.assertAlmostEqual(own[3], 3.0)
        self.assertAlmostEqual(own[4], 0.5)
        self.assertAlmostEqual(own[5], 1.0)

    def test_summary_counts_per_unit_and_skips_rejected(self):
        tree = [
            span(1, None, 1, "bench.state", 0.0, 4.0),
            span(2, 1, 1, "gaussian.validate", 0.0, 1.0),
            span(3, 1, 1, "gaussian.validate", 1.0, 2.0),
            span(4, 3, 1, "gaussian.symplectic_form", 1.2, 1.4),
            span(5, None, 5, "bench.invalid_state", 4.0, 5.0),
            span(6, 5, 5, "gaussian.validate", 4.0, 4.5),
        ]
        got = spans.summarize(tree, busy_s=5.0,
                              excluded_units=("bench.invalid_state",))
        self.assertEqual(got["gaussian.validations_per_unit"], 2.0)
        self.assertEqual(got["gaussian.symplectic_form.calls_per_unit"], 1.0)
        # layer self time keeps the rejected unit: 1 + 1 + 0.5 of 5 s
        self.assertAlmostEqual(got["gaussian.self_share"], 2.5 / 5.0)

    def test_percentile(self):
        self.assertEqual(spans.percentile([], 50), 0.0)
        self.assertEqual(spans.percentile([3.0, 1.0, 2.0], 50), 2.0)
        self.assertAlmostEqual(spans.percentile(list(range(11)), 90), 9.0)


class Wrapping(unittest.TestCase):
    def test_absent_name_is_reported_not_fatal(self):
        mod = types.ModuleType("perfbench_selftest_fake")

        def present(x):
            return x + 1

        mod.present = present
        sys.modules[mod.__name__] = mod
        try:
            tracer = spans.Tracer()
            tracer.install(((mod.__name__, "present", "fake.present", True),
                            (mod.__name__, "removed", "fake.removed", False),
                            ("no_such_module_here", "f", "fake.f", False)))
            self.assertEqual(mod.present(1), 2)
            tracer.uninstall()
            self.assertIs(mod.present, present)
            self.assertEqual(tracer.absent,
                             [f"{mod.__name__}.removed",
                              "no_such_module_here.f"])
            self.assertEqual([s[spans.NAME] for s in tracer.spans],
                             ["fake.present"])
        finally:
            del sys.modules[mod.__name__]


class SubRectangles(unittest.TestCase):
    def test_lattice_axis_matches_linspace(self):
        for lat in lattice.LATTICES.values():
            for axis in (lat.axis1, lat.axis2):
                self.assertEqual(axis.values(), list(
                    np.linspace(axis.start, axis.stop, axis.points)))

    def test_generated_spec_reproduces_lattice_values(self):
        rng = random.Random(5)
        for lat in lattice.LATTICES.values():
            for rect in lattice.kappa_tau_cycle(rng) + \
                    lattice.stability_edge_cycle(rng):
                rect = lattice.SubRect(lat, rect.i0, rect.j0, rect.rows,
                                       rect.cols)
                spec = dict(line.split(" = ")
                            for line in rect.spec_text().splitlines())
                for prefix, axis, first, n in (
                        ("axis1", lat.axis1, rect.i0, rect.rows),
                        ("axis2", lat.axis2, rect.j0, rect.cols)):
                    got = np.linspace(float(spec[f"{prefix}_min"]),
                                      float(spec[f"{prefix}_max"]),
                                      int(spec[f"{prefix}_points"]))
                    want = np.array(axis.values()[first:first + n])
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_cycles_balance_strata(self):
        rng = random.Random(11)
        for _ in range(20):
            rects = lattice.kappa_tau_cycle(rng)
            self.assertEqual(sorted(r.i0 // 6 for r in rects), [0, 1, 2, 3, 4])
            self.assertEqual(sorted(r.j0 // 6 for r in rects), [0, 1, 2, 3, 4])
            rows = [i for r in lattice.stability_edge_cycle(rng)
                    for i, _ in r.indices()]
            unstable = sum(i >= lattice.FIRST_UNSTABLE_ROW for i in rows)
            self.assertEqual(2 * unstable, len(rows))


class Comparator(unittest.TestCase):
    def setUp(self):
        self.lat = lattice.STABILITY_EDGE
        self.ref = reference.load_reference(self.lat)
        self.names = (self.lat.axis1.name, self.lat.axis2.name)
        self.rect = lattice.SubRect(self.lat, 13, 4, 4, 3)
        self.indices = self.rect.indices()
        self.rows = [dict(self.ref[i]) for i in self.indices]

    def reasons(self):
        return reference.compare_rows(self.rows, self.indices, self.ref,
                                      self.names)

    def test_identical_rows_pass_with_nan_equal_nan(self):
        self.assertTrue(any(r["chi"] == "nan" for r in self.rows))
        self.assertEqual(self.reasons(), [None] * len(self.indices))

    def test_row_perturbed_by_1e5_relative_is_flagged(self):
        original = self.rows
        for field in reference.NUMERIC_FIELDS:
            k = next(k for k, r in enumerate(original)
                     if r["stable"] == "true" and float(r[field]) != 0.0)
            self.rows = [dict(r) for r in original]
            self.rows[k][field] = repr(float(self.rows[k][field]) * (1 + 1e-5))
            reasons = self.reasons()
            self.assertIsNotNone(reasons[k], field)
            self.assertEqual(reasons.count(None), len(reasons) - 1)

    def test_flipped_class_is_flagged(self):
        row = self.rows[0]
        row["class"] = ("Certifiable" if row["class"] != "Certifiable"
                        else "NoSwapping")
        self.assertIsNotNone(self.reasons()[0])

    def test_stable_row_turned_flagged_is_flagged(self):
        k = next(k for k, r in enumerate(self.rows) if r["stable"] == "true")
        self.rows[k].update({"stable": "false", "class": "NoSwapping",
                             **{f: "nan" for f in reference.NUMERIC_FIELDS}})
        self.assertIsNotNone(self.reasons()[k])

    def test_missing_row_fails_every_point(self):
        del self.rows[-1]
        self.assertTrue(all(self.reasons()))

    def test_reference_counts(self):
        flagged = sum(r["stable"] == "false" for r in self.ref.values())
        self.assertEqual(flagged, 450)
        kappa = reference.load_reference(lattice.KAPPA_TAU)
        self.assertTrue(all(r["stable"] == "true" for r in kappa.values()))


class CrashedRun(unittest.TestCase):
    declared = [("unit_ms_p50", "ms"), ("setup_s", "s")]

    def test_missing_result_fails_every_unit(self):
        result, status = run.result_line(None, None, self.declared)
        self.assertEqual(status, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"] / result["attempted"], 1.0)

    def test_clean_result(self):
        worker = {"attempted": 10, "failed": 0,
                  "metrics": {"unit_ms_p50": 3.5}}
        result, status = run.result_line(worker, 0.8, self.declared)
        self.assertEqual(status, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["setup_s"],
                         {"value": 0.8, "unit": "s"})

    def run_in(self, tree: dict) -> subprocess.CompletedProcess:
        work = ROOT / ".perfbench"
        work.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=work))
        try:
            shutil.copytree(ROOT / "perfbench", tmp / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for rel, text in tree.items():
                (tmp / rel).parent.mkdir(parents=True, exist_ok=True)
                (tmp / rel).write_text(text)
            return subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "states_stream", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                timeout=120)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def test_program_that_crashes_counts_as_all_failed(self):
        proc = self.run_in({"src/cvswap/__init__.py": "raise SystemExit(9)\n"})
        self.assertEqual(proc.returncode, 1)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_no_program_exits_without_result(self):
        proc = self.run_in({})
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
