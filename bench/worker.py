"""Benchmark worker: the only process that imports and runs pottsinvest.

Started by ``bench/run.py``; not meant to be run by hand.  It imports
pottsinvest from ``src/`` of the checkout, builds one workload's inputs from
the seed, then repeats rounds of the workload's calls until ``--seconds``
have passed and at least two rounds are done (a single round when traced).
Each public call is timed on its own.  Returned values, CSV text and errors
go to the JSON file named by ``--result`` for ``run.py`` to check; the
worker itself checks nothing.

With ``--trace 1`` wrappers are installed around the public functions of
every pottsinvest module before inputs are built.  Each wrapper records a
span (name, start, end, parent) in memory; the spans are aggregated into
per-layer counts and times and written to ``--trace-file`` at the end.
``--setup-only`` stops after building the inputs and prints how long that
took since the spawning process started it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import workloads  # noqa: E402

# A second round is started only if the first ended within this many
# seconds, so a much slower program still exits in time.
SECOND_ROUND_LIMIT_S = 60.0

# (module, attribute, span name).  Functions that share a span name are
# counted together.  A target a later version no longer has is skipped and
# reads zero calls.
TRACE_TARGETS = (
    ("transfer", "build_matrix", "transfer.build_matrix"),
    ("transfer", "dominant_eigenvalue", "transfer.dominant_eigenvalue"),
    ("transfer", "jacobi_eigenvalues", "transfer.jacobi_eigenvalues"),
    ("transfer", "log_partition_function", "transfer.log_partition_function"),
    ("derivatives", "per_capita_investment", "derivatives.per_capita_investment"),
    ("derivatives", "sweep_curve", "derivatives.sweep_curve"),
    ("model", "ModelParams", "model.ModelParams"),
    ("profiles", "make_profile", "profiles.make_profile"),
    ("profiles", "ensemble_sweep", "profiles.ensemble_sweep"),
    ("closedform", "investment_q2", "closedform"),
    ("closedform", "investment_q3_case1", "closedform"),
    ("closedform", "investment_q3_case2", "closedform"),
    ("closedform", "investment_q3_case3", "closedform"),
    ("closedform", "classify_limits", "closedform.classify_limits"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    """In-memory span recorder for wrapped functions (single-threaded)."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.iterations = 0
        self.convergence_failures = 0

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counts_solves = name == "transfer.dominant_eigenvalue"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if counts_solves and type(exc).__name__ == "ConvergenceError":
                    self.convergence_failures += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counts_solves:
                self.iterations += getattr(result, "iterations", 0)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target under each name any pottsinvest module binds it to."""
        modules = [m for n, m in sys.modules.items() if n == "pottsinvest" or n.startswith("pottsinvest.")]
        for module_name, attr, span_name in TRACE_TARGETS:
            target = getattr(sys.modules.get("pottsinvest." + module_name), attr, None)
            if target is None:
                continue
            if isinstance(target, type):
                target.__init__ = self.wrap(span_name, target.__init__)
                continue
            wrapped = self.wrap(span_name, target)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is target:
                        setattr(module, key, wrapped)

    def summary(self) -> dict:
        """calls, ms and self_ms per span name."""
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child_ms):
            agg = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            ms = (end - start) * 1e3
            agg["calls"] += 1
            agg["ms"] += ms
            agg["self_ms"] += ms - inner
        return out

    def dump(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], s, e, p] for n, s, e, p in self.spans]
        path.write_text(json.dumps({"names": names, "spans": rows}))


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import pottsinvest
    import pottsinvest.cli  # noqa: F401

    import_ms = (time.perf_counter() - start) * 1e3
    if Path(pottsinvest.__file__).resolve().parent != src / "pottsinvest":
        raise SystemExit(f"pottsinvest was imported from {pottsinvest.__file__}, not {src}")
    return pottsinvest, import_ms


def _prepare(pk, calls: list[dict]) -> list[tuple]:
    """Turn call specs into (kind, arguments) pairs built from pottsinvest objects."""
    prepared = []
    for call in calls:
        if call["kind"] == "cli":
            prepared.append(("cli", call["argv"]))
        elif call["kind"] == "sweep":
            if "profile" in call:
                couplings = pk.make_profile(pk.ProfileSpec(kind=call["profile"], q=call["q"]))
            else:
                couplings = pk.CouplingProfile(tuple(call["couplings"]))
            params = pk.ModelParams(q=call["q"], beta=0.0, couplings=couplings)
            prepared.append(("sweep", (params, workloads.betas_for(call))))
        else:
            params = pk.ModelParams(
                q=call["q"], beta=call["beta"], field=call["field"],
                couplings=pk.CouplingProfile(tuple(call["couplings"])),
            )
            prepared.append(("logz", (params, call["n_sites"])))
    return prepared


def _run_round(pk, prepared, round_no: int, csv_dir: Path, records: list, meter) -> None:
    cli, transfer, derivatives = pk.cli, pk.transfer, pk.derivatives
    for i, (kind, args) in enumerate(prepared):
        rec = {"call": i, "round": round_no}
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            if kind == "cli":
                path = csv_dir / f"r{round_no}-c{i}.csv"
                rec["csv_path"] = str(path)
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    rec["rc"] = cli.main(args + ["--out", str(path)])
            elif kind == "sweep":
                rec["points"] = derivatives.sweep_curve(*args).points
            else:
                rec["logz"] = transfer.log_partition_function(*args)
        except Exception as exc:  # a failed call is a result to report, not a crash
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["span"] = (start, time.perf_counter())
        if meter is not None:
            meter.sample()
        if sink.getvalue():
            rec["output"] = sink.getvalue()[-2000:]
        records.append(rec)


def _collect_csv(records: list) -> None:
    for rec in records:
        path = rec.pop("csv_path", None)
        if path is not None and os.path.exists(path):
            rec["csv"] = Path(path).read_bytes().decode("utf-8", errors="replace")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=float, metavar="SPAWNED_AT",
                    help="stop after building inputs; print the seconds since SPAWNED_AT, "
                         "a perf_counter reading of the spawning process")
    ap.add_argument("--result")
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    pk, import_ms = _import_program()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    calls = workloads.calls_for(args.workload, args.seed)
    prepared = _prepare(pk, calls)
    if args.setup_only is not None:
        print(json.dumps({"setup_s": time.perf_counter() - args.setup_only}))
        return 0

    out_dir = Path(args.result).parent
    csv_dir = Path(tempfile.mkdtemp(prefix="csv-", dir=out_dir))
    records, round_ms = [], []
    meter = None
    if not args.trace:
        meter = speed.Meter()
        meter.sample()
        meter.start()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        _run_round(pk, prepared, len(round_ms), csv_dir, records, meter)
        round_ms.append((time.perf_counter() - round_start) * 1e3)
        elapsed = time.perf_counter() - start
        if args.trace or (elapsed >= args.seconds and len(round_ms) >= 2):
            break
        if len(round_ms) == 1 and elapsed > SECOND_ROUND_LIMIT_S:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if meter is not None:
        meter.stop()
    for rec in records:
        begin, end = rec.pop("span")
        if meter is None:
            rec["ms"] = (end - begin) * 1e3
        else:
            wall, calibrated = meter.calibrated(begin, end)
            rec["ms"], rec["cal_ms"] = wall * 1e3, calibrated * 1e3

    _collect_csv(records)
    shutil.rmtree(csv_dir, ignore_errors=True)
    result = {
        "calls": calls,
        "records": records,
        "round_ms": round_ms,
        "speed_samples": [k for _, _, k in meter.samples] if meter else [],
        "peak_rss_mb": peak_rss_mb,
        "import_ms": import_ms,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["iterations"] = tracer.iterations
        result["convergence_failures"] = tracer.convergence_failures
        if args.trace_file:
            tracer.dump(Path(args.trace_file))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
