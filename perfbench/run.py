"""cvswap benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid_kappa_tau --seed 1 \\
        --seconds 10 --trace 0

Workloads, metrics and bounds are declared in BENCHMARK.json at the root.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run, whose
spans are kept under ``.perfbench/traces/``. A line before it records the
environment. The program is imported from ``src/`` of the working
directory; every workload process runs with BLAS and OpenMP pinned to one
thread, on CPUs the process pins, and every end-to-end time is scaled by
the calibration in calibrate.py. Exit status is 0 after a completed run,
1 when the workload crashed (the result then counts every unit as failed)
and 2 on a usage error or when there is no program to measure.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

WORKLOADS = ("grid_kappa_tau", "grid_stability_edge", "states_stream",
             "cli_point")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# set-up is repeated in fresh interpreters and the median reported
SETUP_SAMPLES = 3

# a run must end within RUN_BASE_S + RUN_PER_SECOND * --seconds; the worker
# gets what is left. A traced grid run measures for --seconds and then
# repeats its inputs untraced and on the other worker count, which on one
# worker takes about twice as long again.
RUN_BASE_S = 35.0
RUN_PER_SECOND = 9.0


def workload_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_process(cmd, env, deadline, **kwargs) -> subprocess.CompletedProcess:
    """Run cmd in its own process group; on timeout kill the whole group
    (pool workers included) and wait for it before raising."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(),
                                                1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def setup_sample(args, env, workdir, cpus, deadline) -> float:
    """Seconds from launching a fresh interpreter to the end of set-up."""
    if args.workload == "cli_point":
        t0 = time.monotonic()
        proc = run_process([sys.executable, "-m", "cvswap.cli", "--version"],
                           env, deadline, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0 or not proc.stdout.startswith("cvswap "):
            raise RuntimeError(f"--version failed: {proc.returncode}")
        return time.monotonic() - t0
    out = workdir / "setup.json"
    t0 = time.monotonic()
    proc = run_process(worker_cmd(args, workdir, out, "setup", cpus), env,
                       deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up exited {proc.returncode}")
    return json.loads(out.read_text())["setup_end"] - t0


def measure_setup(args, env, workdir, cpus, deadline) -> tuple:
    """Median scaled and raw set-up seconds over SETUP_SAMPLES launches.

    The launches inherit this process's pinning to the first CPU, where
    the clock calibrates before and after each one.
    """
    clock = calibrate.Clock(cpus[:1], calibrate.startup_kernel)
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        seconds = setup_sample(args, env, workdir, cpus, deadline)
        raw.append(seconds)
        scaled.append(clock.scaled(seconds))
    return statistics.median(scaled), statistics.median(raw)


def worker_cmd(args, workdir, out, mode, cpus, trace_out=None) -> list:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode,
           "--cpus", ",".join(map(str, cpus)),
           "--workdir", str(workdir), "--out", str(out)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    return cmd


def git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def result_line(worker_result, setup_s, declared) -> tuple:
    """Final JSON object and exit status from the worker's result.

    A worker that crashed, or that left no result, fails the whole run.
    Declared metrics the run did not exercise read 0.
    """
    if worker_result is None:
        return {"correct": False, "attempted": 1, "failed": 1,
                "metrics": {}}, 1
    metrics = dict(worker_result["metrics"])
    if setup_s is not None:
        metrics["setup_s"] = setup_s
    attempted = worker_result["attempted"]
    failed = worker_result["failed"]
    out = {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
           for name, unit in declared}
    return {"correct": attempted > 0 and failed == 0,
            "attempted": max(attempted, 1),
            "failed": failed if attempted > 0 else 1,
            "metrics": out}, 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    deadline = start + RUN_BASE_S + RUN_PER_SECOND * args.seconds
    root = Path.cwd()
    if not (root / "src" / "cvswap" / "__init__.py").is_file():
        print("error: no program at src/cvswap under the working directory",
              file=sys.stderr)
        return 2
    try:
        bench = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    group = "per_layer" if args.trace else "end_to_end"
    declared = [(m["name"], m["unit"]) for m in bench[group]]

    env = workload_env(root)
    work_root = root / ".perfbench"
    (work_root / "traces").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    trace_out = (work_root / "traces" /
                 f"{args.workload}-seed{args.seed}.json" if args.trace
                 else None)
    cpus = calibrate.measuring_cpus(2)
    worker_result = None
    setup_s = setup_raw_s = None
    try:
        if not args.trace:
            setup_s, setup_raw_s = measure_setup(args, env, workdir, cpus,
                                                 deadline)
        out = workdir / "result.json"
        proc = run_process(
            worker_cmd(args, workdir, out, "run", cpus, trace_out), env,
            deadline)
        if proc.returncode == 0 and out.is_file():
            worker_result = json.loads(out.read_text())
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            ValueError) as exc:
        print(f"workload crashed: {exc!r}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result, status = result_line(worker_result, setup_s, declared)
    if worker_result is not None:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "git_commit": git_commit(root),
                  "wall_s": time.monotonic() - start,
                  "errors": worker_result["errors"],
                  "raw_setup_s": setup_raw_s, "cpus": cpus,
                  **worker_result["info"]}
        print("environment " + json.dumps(record))
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
