"""pottsinvest benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload {ensemble,curves,finite_ring} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program runs in a worker process
(``bench/worker.py``) that imports pottsinvest from ``src/``; this process
never imports pottsinvest.  It times set-up in fresh interpreters, starts
the worker, then checks every returned value against the independent
reference in ``bench/reference.py`` and the reference-free properties in
``bench/check.py``.  The reference's cost counts toward no metric.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``bench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import reference  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150.0

# Span names whose calls and times are reported per layer: (name, fields).
LAYER_FIELDS = (
    ("transfer.dominant_eigenvalue", ("calls", "ms")),
    ("transfer.build_matrix", ("calls", "ms")),
    ("transfer.jacobi_eigenvalues", ("calls", "ms")),
    ("transfer.log_partition_function", ("calls", "self_ms")),
    ("derivatives.per_capita_investment", ("calls", "self_ms")),
    ("derivatives.sweep_curve", ("calls", "self_ms")),
    ("model.ModelParams", ("calls", "ms")),
    ("profiles.make_profile", ("calls", "ms")),
    ("profiles.ensemble_sweep", ("calls", "self_ms")),
    ("closedform", ("calls", "ms")),
    ("closedform.classify_limits", ("calls", "ms")),
    ("cli.main", ("calls", "self_ms")),
)


def _child_env() -> tuple[dict, int]:
    """Environment for program processes: BLAS capped at the usable CPU count."""
    cpus = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(env.get(var, cpus))
        except ValueError:
            current = cpus
        env[var] = str(max(1, min(cpus, current)))
    return env, int(env["OPENBLAS_NUM_THREADS"])


def _worker_cmd(args, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed), *extra]


class _Timeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise _Timeout


def _setup_once(args, env, limit_s: int = 60) -> dict:
    """One fresh interpreter importing pottsinvest and building the inputs.

    Returns the interpreter's own report of its set-up time, measured from
    the spawn on the system-wide monotonic clock that perf_counter reads,
    so process exit is not counted.  The wait blocks under an alarm rather
    than polling, which would quantise the measurement.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(_worker_cmd(args, "--setup-only", repr(start)), env=env,
                            stdout=subprocess.PIPE, text=True)
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(limit_s)
    try:
        out, _ = proc.communicate()
    except _Timeout:
        proc.kill()
        proc.wait()
        raise SystemExit(f"set-up run exceeded {limit_s} s")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    if proc.returncode != 0:
        raise SystemExit(f"set-up run failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _time_setup(args, env) -> float:
    """Median set-up seconds over SETUP_REPEATS fresh interpreters, uncalibrated.

    A fresh interpreter runs on whichever CPU the scheduler picks and warms
    up as it goes, so calibration samples track it poorly: over ten
    repeats the calibrated median spread 17 %, the wall median 8 %.
    """
    _setup_once(args, env)  # the first start also compiles bytecode; users pay that once
    return statistics.median(_setup_once(args, env)["setup_s"] for _ in range(SETUP_REPEATS))


def _run_worker(args, env) -> dict:
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = OUT_DIR / f"result-{tag}.json"
    result_path.unlink(missing_ok=True)
    cmd = _worker_cmd(args, "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--result", str(result_path))
    if args.trace:
        cmd += ["--trace-file", str(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, env=env, timeout=WORKER_TIMEOUT_S, capture_output=True, text=True)
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(result_path.read_text())


def _e2e_metrics(result: dict, rep: check.Report, setup_s: float) -> dict:
    call_ms = [r["cal_ms"] for r in result["records"]]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": rep.returned / (sum(call_ms) / 1e3), "unit": "1/s"},
        "call_ms_p50": {"value": statistics.median(call_ms), "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def _layer_metrics(result: dict, rep: check.Report) -> dict:
    layers = result["layers"]
    metrics = {}
    for name, fields in LAYER_FIELDS:
        for f in fields:
            unit = "count" if f == "calls" else "ms"
            metrics[f"{name}.{f}"] = {"value": layers.get(name, {}).get(f, 0), "unit": unit}
    solves = layers.get("transfer.dominant_eigenvalue", {}).get("calls", 0)
    metrics["transfer.dominant_eigenvalue.iterations"] = {"value": result["iterations"], "unit": "count"}
    metrics["transfer.dominant_eigenvalue.failed"] = {"value": result["convergence_failures"], "unit": "count"}
    metrics["derivatives.solves_per_point"] = {
        "value": solves / rep.solved if rep.solved else 0.0, "unit": "ratio"}
    metrics["cli.csv_bytes"] = {
        "value": sum(len(r.get("csv", "").encode()) for r in result["records"]), "unit": "B"}
    metrics["import_ms"] = {"value": result["import_ms"], "unit": "ms"}
    return metrics


def _print_summary(args, result: dict, rep: check.Report, blas_threads: int) -> None:
    rounds = ", ".join(f"{ms / 1e3:.2f}" for ms in result["round_ms"])
    kind = "relative" if args.workload == "finite_ring" else "absolute"
    print(f"env: python {result['python']}, numpy {result['numpy']}, "
          f"nproc {len(os.sched_getaffinity(0))}, BLAS threads <= {blas_threads}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: rounds {len(result['round_ms'])} "
          f"({rounds} s), attempted {rep.attempted}, failed {rep.failed}, "
          f"worst {kind} error of passing values {rep.worst_error:.3g}")
    print(f"  reference methods: {rep.reference_methods}")
    for call_id, t in sorted(rep.per_call.items()):
        if t.failed:
            print(f"  FAILED {call_id}: {t.failed} of {t.attempted}, worst missed by "
                  f"{t.worst_failed:.3g}; {'; '.join(sorted(t.reasons))[:300]}")
    for problem in rep.problems:
        print(f"  INCORRECT {problem}")


def _print_wall(result: dict, rep: check.Report) -> None:
    """Uncalibrated figures and the kernel speed seen, for the record."""
    wall_ms = [r["ms"] for r in result["records"]]
    k = result["speed_samples"]
    per_round = {}
    for r in result["records"]:
        per_round[r["round"]] = per_round.get(r["round"], 0.0) + r["cal_ms"] / 1e3
    print("  calibrated rounds: " + ", ".join(f"{v:.2f}" for v in per_round.values()) + " s")
    print(f"  wall: ops_per_s {rep.returned / (sum(wall_ms) / 1e3):.4f}, "
          f"call_ms_p50 {statistics.median(wall_ms):.2f}; kernel {len(k)} samples, median "
          f"{statistics.median(k) * 1e3:.3f} ms (nominal {speed.NOMINAL_S * 1e3:.3f} ms), "
          f"range {min(k) * 1e3:.3f}-{max(k) * 1e3:.3f} ms")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pottsinvest" / "__init__.py").is_file():
        print(f"error: no pottsinvest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    problems = reference.self_test()
    if problems:
        print("error: reference self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env, blas_threads = _child_env()
    setup_s = None if args.trace else _time_setup(args, env)
    result = _run_worker(args, env)
    rep = check.check(result)
    _print_summary(args, result, rep, blas_threads)
    if args.trace:
        metrics = _layer_metrics(result, rep)
    else:
        metrics = _e2e_metrics(result, rep, setup_s)
        _print_wall(result, rep)
    print(json.dumps({
        "correct": not rep.problems,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
