import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from cvswap import sweep
from cvswap.gaussian import read_matrix, validate_state
from cvswap.protocol import (ProtocolClass, TripartiteCM,
                             classify_from_purities, conditional_output_cm,
                             purities_triplet)
from cvswap.sweep import (AxisSpec, ConfigError, SweepSpec, csv_header,
                          dump_state, format_float, load_params,
                          load_sweep_spec, run_point, run_sweep,
                          surface_matrix_path)
from support import OMEGA_M, drive_params

BASE = drive_params()


def write_params_cfg(path, params):
    lines = [f"{name} = {format_float(getattr(params, name))}"
             for name in (f.name for f in dataclasses.fields(params))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def tiny_spec(points=2):
    return SweepSpec(
        base=BASE,
        axis1=AxisSpec("kappa", 0.5 * OMEGA_M, 0.9 * OMEGA_M, points),
        axis2=AxisSpec("tau_b", 6.0 / OMEGA_M, 10.0 / OMEGA_M, points),
        tau_ratio=6.0)


def test_parse_accepts_comments_and_whitespace(tmp_path):
    cfg = tmp_path / "p.cfg"
    write_params_cfg(cfg, BASE)
    text = "# full parameter set\n\n" + cfg.read_text()
    cfg.write_text(text.replace("L = ", "  L =   ") + "# trailing comment\n")
    params = load_params(cfg)
    assert params == BASE


def test_parse_error_cases(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("L 0.001\n")
    with pytest.raises(ConfigError):
        load_params(cfg)
    cfg.write_text("L = 0.001\nL = 0.002\n")
    with pytest.raises(ConfigError):
        load_params(cfg)
    write_params_cfg(cfg, BASE)
    cfg.write_text(cfg.read_text() + "bogus_key = 1\n")
    with pytest.raises(ConfigError, match="unknown"):
        load_params(cfg)
    cfg.write_text("L = 0.001\n")
    with pytest.raises(ConfigError, match="missing"):
        load_params(cfg)
    write_params_cfg(cfg, BASE)
    cfg.write_text(cfg.read_text().replace("T = 0.4", "T = warm"))
    with pytest.raises(ConfigError, match="not a number"):
        load_params(cfg)
    # physical validation surfaces as a config error too
    write_params_cfg(cfg, BASE)
    cfg.write_text(cfg.read_text().replace("Q_m = 100000", "Q_m = 0.5"))
    with pytest.raises(ConfigError):
        load_params(cfg)
    with pytest.raises(ConfigError):
        load_params(tmp_path / "missing.cfg")


def test_spec_parsing_and_errors(tmp_path):
    spec_file = tmp_path / "s.cfg"
    spec_file.write_text(
        "axis1 = kappa\naxis1_min = 1e7\naxis1_max = 9e7\naxis1_points = 3\n"
        "axis2 = tau_b\naxis2_min = 1e-7\naxis2_max = 5e-7\naxis2_points = 4\n"
        "tau_ratio = 6\n")
    spec = load_sweep_spec(spec_file, BASE)
    assert spec.axis1.points == 3
    assert spec.axis2.name == "tau_b"
    assert spec.power_offset is None
    assert len(spec.axis1.values()) == 3

    spec_file.write_text("axis1 = kappa\n")
    with pytest.raises(ConfigError, match="missing"):
        load_sweep_spec(spec_file, BASE)
    spec_file.write_text(
        "axis1 = kappa\naxis1_min = 1e7\naxis1_max = 9e7\naxis1_points = 2.5\n"
        "axis2 = tau_b\naxis2_min = 1e-7\naxis2_max = 5e-7\naxis2_points = 4\n")
    with pytest.raises(ConfigError, match="integer"):
        load_sweep_spec(spec_file, BASE)


def test_axis_validation():
    with pytest.raises(ConfigError):
        AxisSpec("detuning", 1.0, 2.0, 3)
    with pytest.raises(ConfigError):
        AxisSpec("kappa", 1.0, 2.0, 1)
    with pytest.raises(ConfigError):
        AxisSpec("kappa", 2.0, 1.0, 3)
    with pytest.raises(ConfigError):
        AxisSpec("kappa", -1.0, 2.0, 3)
    with pytest.raises(ConfigError):
        AxisSpec("P_b", -0.1, 1.0, 3)
    AxisSpec("P_b", 0.0, 1.0, 3)  # zero power is a legal axis start
    with pytest.raises(ConfigError):
        SweepSpec(base=BASE, axis1=AxisSpec("kappa", 1.0, 2.0, 2),
                  axis2=AxisSpec("kappa", 1.0, 2.0, 2))
    with pytest.raises(ConfigError):
        SweepSpec(base=BASE, axis1=AxisSpec("kappa", 1.0, 2.0, 2),
                  axis2=AxisSpec("tau_b", 1.0, 2.0, 2), tau_ratio=-1.0)


def test_point_params_linkages():
    spec = SweepSpec(
        base=BASE,
        axis1=AxisSpec("P_b", 1e-3, 5e-3, 3),
        axis2=AxisSpec("tau_b", 6.0 / OMEGA_M, 10.0 / OMEGA_M, 3),
        tau_ratio=5.0, power_offset=0.5e-3)
    p = spec.point_params(2e-3, 8.0 / OMEGA_M)
    assert p.P_b == 2e-3
    assert p.P_c == pytest.approx(2.5e-3)
    assert p.tau_b == pytest.approx(8.0 / OMEGA_M)
    assert p.tau_c == pytest.approx(8.0 / OMEGA_M / 5.0)
    # kappa axis drives both branches
    kspec = tiny_spec()
    q = kspec.point_params(0.6 * OMEGA_M, 7.0 / OMEGA_M)
    assert q.kappa_b == q.kappa_c == pytest.approx(0.6 * OMEGA_M)
    # offset below zero is rejected at evaluation time
    neg = SweepSpec(base=BASE, axis1=AxisSpec("P_b", 0.0, 5e-3, 3),
                    axis2=AxisSpec("tau_b", 6.0 / OMEGA_M, 10.0 / OMEGA_M, 3),
                    power_offset=-1e-3)
    with pytest.raises(ConfigError):
        neg.point_params(0.0, 8.0 / OMEGA_M)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_token_roundtrip(x):
    assert float(format_float(x)) == x


def test_run_point_dark_input():
    p = dataclasses.replace(BASE, P_b=0.0, P_c=0.0)
    rec = run_point(p)
    assert rec.stable
    assert not rec.flagged
    assert rec.protocol_class is ProtocolClass.NoSwapping
    assert rec.E_N_RRE == 0.0
    assert rec.E_N_CCE == 0.0


def test_run_point_unstable_is_flagged_not_raised():
    p = dataclasses.replace(BASE, P_c=0.0)
    rec = run_point(p)
    assert not rec.stable
    assert rec.flagged
    assert math.isnan(rec.E_N_RRE)
    assert rec.protocol_class is ProtocolClass.NoSwapping


def test_run_point_propagates_programming_errors(monkeypatch):
    # only the package's physics-level errors become flagged rows
    def broken(cm):
        raise ValueError("bug in a protocol helper")

    monkeypatch.setattr(sweep, "chi", broken)
    with pytest.raises(ValueError, match="bug in a protocol helper"):
        run_point(BASE)


def test_run_point_operating_point():
    rec = run_point(BASE, axis_names=("kappa", "tau_b"),
                    axis_values=(BASE.kappa_b, BASE.tau_b))
    assert rec.protocol_class is ProtocolClass.Certifiable
    assert not rec.flagged
    # full-pipeline regression pins
    assert rec.E_N_RRE == pytest.approx(0.29009184705246566, rel=1e-6)
    assert rec.E_N_CCE == pytest.approx(0.019969027012676572, rel=1e-6)
    assert rec.chi == pytest.approx(0.76540268221046859, rel=1e-6)
    assert rec.chi < 1.0
    row = rec.csv_row()
    assert row[2] == "true"
    assert row[3] == "Certifiable"


def test_sweep_grid_shape_and_order(tmp_path):
    out = tmp_path / "grid.csv"
    summary = run_sweep(tiny_spec(), out, workers=1)
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0] == csv_header(tiny_spec())
    assert lines[0].startswith("kappa,tau_b,stable,class,")
    # axis1-major ordering
    k_col = [float(ln.split(",")[0]) for ln in lines[1:]]
    t_col = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert k_col == sorted(k_col)
    assert k_col[0] == k_col[1] and k_col[2] == k_col[3]
    assert t_col[0] < t_col[1]
    assert summary.n_flagged == 0
    assert sum(summary.class_counts.values()) == 4
    assert len(summary.records) == 4


def test_sweep_worker_independence_and_rerun_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    out3 = tmp_path / "c.csv"
    run_sweep(tiny_spec(), out1, workers=1)
    run_sweep(tiny_spec(), out2, workers=3)
    run_sweep(tiny_spec(), out3, workers=1)
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() == out3.read_bytes()
    for field in ("class", "E_N_RRE", "E_N_CCE"):
        m1 = surface_matrix_path(out1, field).read_bytes()
        m2 = surface_matrix_path(out2, field).read_bytes()
        assert m1 == m2


def test_sweep_surface_matrix_format(tmp_path):
    out = tmp_path / "grid.csv"
    summary = run_sweep(tiny_spec(), out, workers=1)
    surf = read_matrix(surface_matrix_path(out, "E_N_RRE"))
    assert surf.shape == (3, 3)
    assert surf[0, 0] == 2.0  # gnuplot nonuniform-matrix column count
    assert_allclose(surf[0, 1:], tiny_spec().axis2.values())
    assert_allclose(surf[1:, 0], tiny_spec().axis1.values())
    values = np.array([rec.E_N_RRE for rec in summary.records])
    assert_allclose(surf[1:, 1:].ravel(), values)
    klass = read_matrix(surface_matrix_path(out, "class"))
    assert set(klass[1:, 1:].ravel()) <= {1.0, 2.0, 3.0, 4.0}


def test_sweep_isolates_flagged_points(tmp_path):
    # P_c = 0 leaves only the parametric drive: every point is unstable
    # except where P_b is also zero
    spec = SweepSpec(
        base=BASE,
        axis1=AxisSpec("P_b", 0.0, 4e-3, 2),
        axis2=AxisSpec("tau_b", 6.0 / OMEGA_M, 10.0 / OMEGA_M, 2))
    base_dark = dataclasses.replace(BASE, P_c=0.0)
    spec = dataclasses.replace(spec, base=base_dark)
    out = tmp_path / "flagged.csv"
    summary = run_sweep(spec, out, workers=1)
    flagged = [rec for rec in summary.records if rec.flagged]
    clean = [rec for rec in summary.records if not rec.flagged]
    assert len(flagged) == 2 and len(clean) == 2
    for rec in clean:
        assert rec.protocol_class is ProtocolClass.NoSwapping
        assert rec.E_N_RRE == 0.0
    # flagged rows round-trip through the CSV as nan without breaking rows
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    nan_rows = [ln for ln in lines[1:] if "nan" in ln]
    assert len(nan_rows) == 2
    assert all(ln.split(",")[2] == "false" for ln in nan_rows)


def test_record_self_consistency_from_csv(tmp_path):
    out = tmp_path / "grid.csv"
    run_sweep(tiny_spec(3), out, workers=1)
    for line in out.read_text().splitlines()[1:]:
        cells = line.split(",")
        klass = classify_from_purities(float(cells[4 + 2]),
                                       float(cells[5 + 2]),
                                       float(cells[6 + 2]))
        assert klass.name == cells[3]


def test_pool_never_exceeds_grid_points(tmp_path, monkeypatch):
    seen = []

    class FakePool:
        def __init__(self, processes):
            seen.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, tasks, chunksize=1):
            return [func(*t) for t in tasks]

    out1 = tmp_path / "w1.csv"
    out64 = tmp_path / "w64.csv"
    run_sweep(tiny_spec(), out1, workers=1)
    monkeypatch.setattr(sweep, "multiprocessing",
                        types.SimpleNamespace(Pool=FakePool))
    run_sweep(tiny_spec(), out64, workers=64)
    assert seen == [4]
    assert out64.read_bytes() == out1.read_bytes()


def test_run_sweep_rejects_bad_workers_and_path(tmp_path):
    with pytest.raises(ConfigError):
        run_sweep(tiny_spec(), tmp_path / "x.csv", workers=0)
    with pytest.raises(OSError):
        run_sweep(tiny_spec(), tmp_path / "nodir" / "x.csv", workers=1)


def test_dump_state_roundtrip(tmp_path):
    paths = dump_state(BASE, tmp_path / "dump")
    input_cm = read_matrix(paths["input_cm"])
    output_cm = read_matrix(paths["output_cm"])
    gains = read_matrix(paths["gains"])
    purities = read_matrix(paths["purities"])
    assert input_cm.shape == (6, 6)
    assert output_cm.shape == (8, 8)
    assert gains.shape == (8, 2)
    assert purities.shape == (1, 3)
    assert validate_state(input_cm).passed
    assert validate_state(output_cm).passed

    # reloaded input reproduces the dumped output and purities exactly
    v = TripartiteCM.from_matrix(input_cm)
    swap = conditional_output_cm(v, v)
    assert_allclose(swap.cm, output_cm, rtol=0, atol=0)
    assert_allclose(np.array(purities_triplet(v)), purities[0],
                    rtol=0, atol=0)

    # remote and certifying eta recomputed from the reloaded blocks match
    # the closed-form path that produced the dump
    redone = conditional_output_cm(TripartiteCM.from_matrix(input_cm),
                                   TripartiteCM.from_matrix(input_cm))
    assert redone.eta_remote == pytest.approx(swap.eta_remote, rel=1e-12)
    assert redone.eta_certifying == pytest.approx(swap.eta_certifying,
                                                  rel=1e-12)


def test_dump_state_dark_input(tmp_path):
    p = dataclasses.replace(BASE, P_b=0.0, P_c=0.0)
    paths = dump_state(p, tmp_path / "dark")
    input_cm = read_matrix(paths["input_cm"])
    assert np.max(np.abs(input_cm[2:, 2:] - 0.5 * np.eye(4))) < 1e-8
    gains = read_matrix(paths["gains"])
    assert np.max(np.abs(gains)) < 1e-8