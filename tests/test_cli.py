import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from cvswap import __version__
from cvswap.cli import main
from cvswap.sweep import format_float, run_point, surface_matrix_path
from support import OMEGA_M, drive_params

BASE = drive_params()
ROOT = Path(__file__).resolve().parent.parent


def write_cfg(path, params):
    lines = [f"{name} = {format_float(getattr(params, name))}"
             for name in (f.name for f in dataclasses.fields(params))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_spec(path, points=2, extra=""):
    path.write_text(
        f"axis1 = kappa\naxis1_min = {0.5 * OMEGA_M}\n"
        f"axis1_max = {0.9 * OMEGA_M}\naxis1_points = {points}\n"
        f"axis2 = tau_b\naxis2_min = {6.0 / OMEGA_M}\n"
        f"axis2_max = {10.0 / OMEGA_M}\naxis2_points = {points}\n"
        f"tau_ratio = 6\n{extra}", encoding="utf-8")


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"cvswap {__version__}"


def test_point_matches_library(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    write_cfg(cfg, BASE)
    assert main(["point", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    parsed = dict(line.split(" = ") for line in out.strip().splitlines())
    rec = run_point(BASE)
    assert parsed["class"] == rec.protocol_class.name
    assert float(parsed["E_N_RRE"]) == rec.E_N_RRE
    assert float(parsed["chi"]) == rec.chi
    assert parsed["stable"] == "true"


def test_point_dump_writes_matrices(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    write_cfg(cfg, BASE)
    dump_dir = tmp_path / "dump"
    assert main(["point", "--config", str(cfg),
                 "--dump", str(dump_dir)]) == 0
    for name in ("input_cm.txt", "output_cm.txt", "gains.txt",
                 "purities.txt"):
        assert (dump_dir / name).exists()


def test_point_flagged_exit_code(tmp_path, capsys):
    # one blue-detuned drive with the red branch dark is unstable
    cfg = tmp_path / "p.cfg"
    write_cfg(cfg, dataclasses.replace(BASE, P_c=0.0))
    dump_dir = tmp_path / "dump"
    assert main(["point", "--config", str(cfg),
                 "--dump", str(dump_dir)]) == 3
    captured = capsys.readouterr()
    assert "stable = false" in captured.out
    assert "dump skipped" in captured.err
    assert not dump_dir.exists()


def test_config_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["point", "--config", str(missing)]) == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.cfg"
    write_cfg(bad, BASE)
    bad.write_text(bad.read_text() + "mystery = 1\n")
    assert main(["point", "--config", str(bad)]) == 2

    cfg = tmp_path / "p.cfg"
    write_cfg(cfg, BASE)
    spec = tmp_path / "s.cfg"
    spec.write_text("axis1 = kappa\n")
    assert main(["sweep", "--config", str(cfg), "--spec", str(spec),
                 "--out", str(tmp_path / "o.csv")]) == 2


def test_sweep_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    write_cfg(cfg, BASE)
    spec = tmp_path / "s.cfg"
    write_spec(spec)
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", str(cfg), "--spec", str(spec),
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 5
    assert surface_matrix_path(out, "class").exists()
    stdout = capsys.readouterr().out
    assert "4 points" in stdout and "0 flagged" in stdout


def test_sweep_workers_flag_and_env(tmp_path, monkeypatch):
    cfg = tmp_path / "p.cfg"
    write_cfg(cfg, BASE)
    spec = tmp_path / "s.cfg"
    write_spec(spec)
    out1 = tmp_path / "w1.csv"
    out2 = tmp_path / "w2.csv"
    assert main(["sweep", "--config", str(cfg), "--spec", str(spec),
                 "--out", str(out1), "--workers", "2"]) == 0
    monkeypatch.setenv("CVSWAP_WORKERS", "2")
    assert main(["sweep", "--config", str(cfg), "--spec", str(spec),
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    monkeypatch.setenv("CVSWAP_WORKERS", "zero")
    assert main(["sweep", "--config", str(cfg), "--spec", str(spec),
                 "--out", str(tmp_path / "w3.csv")]) == 2
    monkeypatch.setenv("CVSWAP_WORKERS", "0")
    assert main(["sweep", "--config", str(cfg), "--spec", str(spec),
                 "--out", str(tmp_path / "w4.csv")]) == 2


def test_sweep_partial_failure_exit_3(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    write_cfg(cfg, dataclasses.replace(BASE, P_c=0.0))
    spec = tmp_path / "s.cfg"
    spec.write_text(
        f"axis1 = P_b\naxis1_min = 0\naxis1_max = 0.004\naxis1_points = 2\n"
        f"axis2 = tau_b\naxis2_min = {6.0 / OMEGA_M}\n"
        f"axis2_max = {10.0 / OMEGA_M}\naxis2_points = 2\n", encoding="utf-8")
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", str(cfg), "--spec", str(spec),
                 "--out", str(out)]) == 3
    assert "2 flagged" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 5


def test_sweep_unwritable_output_exit_2(tmp_path):
    cfg = tmp_path / "p.cfg"
    write_cfg(cfg, BASE)
    spec = tmp_path / "s.cfg"
    write_spec(spec)
    assert main(["sweep", "--config", str(cfg), "--spec", str(spec),
                 "--out", str(tmp_path / "nodir" / "o.csv")]) == 2


def test_rejected_spec_leaves_existing_output_alone(tmp_path, capsys):
    # P_c = P_b - 1 mW is negative at the P_b = 0 grid row
    cfg = tmp_path / "p.cfg"
    write_cfg(cfg, BASE)
    spec = tmp_path / "s.cfg"
    spec.write_text(
        f"axis1 = P_b\naxis1_min = 0\naxis1_max = 0.004\naxis1_points = 2\n"
        f"axis2 = tau_b\naxis2_min = {6.0 / OMEGA_M}\n"
        f"axis2_max = {10.0 / OMEGA_M}\naxis2_points = 2\n"
        f"power_offset = -0.001\n", encoding="utf-8")
    out = tmp_path / "grid.csv"
    out.write_text("old content", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), "--spec", str(spec),
                 "--out", str(out)]) == 2
    assert "power_offset drives P_c negative" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "old content"


def test_point_and_sweep_leave_scipy_unloaded(tmp_path):
    # a fresh interpreter: the closed-form path of output_cm is numpy-only
    code = textwrap.dedent(f"""
        import dataclasses, sys
        from cvswap.cli import main
        from cvswap.sweep import load_params, load_sweep_spec, run_sweep
        assert main(["point", "--config", "configs/kappa_tau_point.cfg",
                     "--dump", {str(tmp_path / "dump")!r}]) == 0
        spec = load_sweep_spec("configs/kappa_tau_sweep.cfg",
                               load_params("configs/kappa_tau_point.cfg"))
        spec = dataclasses.replace(
            spec, axis1=dataclasses.replace(spec.axis1, points=2),
            axis2=dataclasses.replace(spec.axis2, points=2))
        summary = run_sweep(spec, {str(tmp_path / "grid.csv")!r})
        assert len(summary.records) == 4 and summary.n_flagged == 0
        print("scipy" in sys.modules)
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("override, extra_args", [
    ({"axis1_max": "inf"}, []),
    ({"tau_ratio": "inf"}, []),
    ({"power_offset": "nan"}, []),
    ({}, ["--workers", "0"]),
], ids=["axis1_max_inf", "tau_ratio_inf", "power_offset_nan", "workers_0"])
def test_sweep_bad_values_exit_2(tmp_path, capsys, override, extra_args):
    cfg = tmp_path / "p.cfg"
    write_cfg(cfg, BASE)
    spec = tmp_path / "s.cfg"
    write_spec(spec)
    entries = dict(line.split(" = ") for line in spec.read_text().splitlines())
    entries.update(override)
    spec.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()),
                    encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), "--spec", str(spec),
                 "--out", str(tmp_path / "o.csv")] + extra_args) == 2
    assert "error:" in capsys.readouterr().err
