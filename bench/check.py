"""Checks a worker's returned values against the independent reference.

An operation is one returned l(beta) value (``ensemble``, ``curves``) or
one log Z_N (``finite_ring``).  It fails when its call raised (the value
is missing) or when it misses its check:

* l must lie in [0, q - 1] and within 1e-6 * (q - 1) of the reference;
* log Z_N must match the reference to 1e-10 relative to max(1, |log Z|).

Checks that need no reference make the run incorrect when they miss:
repeated CLI commands must write byte-identical CSV, each ``seed=mean`` row
must equal the fsum of the per-seed rows divided by their count bit for bit,
``--compare`` columns and footer must agree with a recomputation from the
file itself (and the closed form with the reference), and ``--emit-limits``
must give (q - 1) / 2 at beta = 0 and the level of the unique coupling
minimum at beta = infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import reference
import workloads

L_TOL = 1e-6
LOGZ_TOL = 1e-10
BETA_TOL = 1e-12


@dataclass
class CallTally:
    attempted: int = 0
    failed: int = 0
    worst_failed: float = 0.0  # worst error among returned values that missed their check
    reasons: set = field(default_factory=set)


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    returned: int = 0  # values the program returned
    solved: int = 0  # returned values that are not ensemble means
    worst_error: float = 0.0  # absolute for l, relative for log Z; passing values only
    problems: list = field(default_factory=list)
    per_call: dict = field(default_factory=dict)
    reference_methods: dict = field(default_factory=dict)


class Checker:
    def __init__(self):
        self._l_cache = {}
        self.methods = {}

    def l_ref(self, couplings, beta: float) -> float:
        key = (tuple(couplings), beta)
        if key not in self._l_cache:
            value, method = reference.investment(couplings, beta)
            self._l_cache[key] = value
            self.methods[method] = self.methods.get(method, 0) + 1
        return self._l_cache[key]


def _couplings_of(call: dict, seed: int | None = None) -> list[float]:
    q = call["q"]
    if seed is not None:
        return reference.random_couplings(q, seed)
    if "couplings" in call:
        return call["couplings"]
    return {"aggressive": reference.aggressive, "conservative": reference.conservative}[call["profile"]](q)


def _parse_csv(text: str, header: str):
    lines = text.split("\n")
    if lines[0] != header or lines[-1] != "":
        raise ValueError(f"expected header {header!r} and a final newline")
    rows = [ln.split(",") for ln in lines[1:-1] if not ln.startswith("#")]
    comments = [ln for ln in lines[1:-1] if ln.startswith("#")]
    return rows, comments


def _grid_matches(got, want) -> bool:
    return len(got) == len(want) and all(abs(g - w) <= BETA_TOL * max(1.0, w) for g, w in zip(got, want))


def check(result: dict) -> Report:
    rep = Report()
    chk = Checker()
    calls = result["calls"]
    first_csv = {}
    for rec in result["records"]:
        call = calls[rec["call"]]
        tally = rep.per_call.setdefault(call["id"], CallTally())
        expected = workloads.expected_ops(call)
        tally.attempted += expected
        rep.attempted += expected
        if "error" in rec or rec.get("rc", 0) != 0:
            reason = rec.get("error") or f"exit code {rec['rc']}: {rec.get('output', '').strip()[-200:]}"
            _fail(rep, tally, expected, "raised: " + reason)
            continue
        try:
            if call["kind"] == "logz":
                values = [_check_logz(chk, call, rec["logz"])]
            elif call["kind"] == "sweep":
                values = _check_sweep(chk, call, rec["points"])
            else:
                csv = rec.get("csv")
                if csv is None:
                    raise ValueError("no CSV written")
                if rec["call"] in first_csv and first_csv[rec["call"]] != csv:
                    rep.problems.append(f"{call['id']}: CSV differs between rounds")
                first_csv.setdefault(rec["call"], csv)
                values = _check_cli(chk, call, csv, rep)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            _fail(rep, tally, expected, f"missing: {exc}")
            continue
        if len(values) != expected:
            _fail(rep, tally, expected, f"missing: {len(values)} of {expected} values")
            continue
        rep.returned += len(values)
        for err, miss, solved in values:
            rep.solved += solved
            if miss is None:
                rep.worst_error = max(rep.worst_error, err)
            else:
                tally.worst_failed = max(tally.worst_failed, err if math.isfinite(err) else math.inf)
                _fail(rep, tally, 1, miss)
    rep.reference_methods = chk.methods
    return rep


def _fail(rep: Report, tally: CallTally, n: int, reason: str) -> None:
    tally.failed += n
    rep.failed += n
    tally.reasons.add(reason)


def _l_check(l: float, ref: float, q: int) -> tuple[float, str | None]:
    """(absolute error, why the value misses its check or None)."""
    err = abs(l - ref)
    if not err <= L_TOL * (q - 1):
        return err, "off the reference by more than 1e-6 x (q-1)"
    if not 0.0 <= l <= q - 1:
        return err, "outside [0, q-1]"
    return err, None


def _check_logz(chk: Checker, call: dict, got: float) -> tuple[float, str | None, int]:
    ref, method = reference.log_partition(call["q"], call["n_sites"], call["beta"], call["field"], call["couplings"])
    chk.methods[method] = chk.methods.get(method, 0) + 1
    err = abs(got - ref) / max(1.0, abs(ref))
    return err, None if err <= LOGZ_TOL else "off the reference by more than 1e-10 relative", 0


def _check_sweep(chk: Checker, call: dict, points) -> list:
    betas = workloads.betas_for(call)
    if not _grid_matches([b for b, _ in points], betas):
        raise ValueError("returned betas differ from the requested grid")
    couplings = _couplings_of(call)
    return [(*_l_check(l, chk.l_ref(couplings, b), call["q"]), 1) for b, (_, l) in zip(betas, points)]


def _check_cli(chk: Checker, call: dict, csv: str, rep: Report) -> list:
    mode, q = call["mode"], call["q"]
    betas = workloads.betas_for(call)
    if mode == "ensemble":
        return _check_ensemble(chk, call, csv, betas, rep)
    header = "beta,l_numeric,l_closed_form,abs_error" if mode == "compare" else "beta,l"
    rows, comments = _parse_csv(csv, header)
    if not _grid_matches([float(r[0]) for r in rows], betas):
        raise ValueError("CSV betas differ from the requested grid")
    couplings = _couplings_of(call)
    refs = [chk.l_ref(couplings, b) for b in betas]
    values = [(*_l_check(float(r[1]), ref, q), 1) for r, ref in zip(rows, refs)]
    if mode == "compare":
        _check_compare(call, rows, comments, refs, rep)
    elif mode == "limits":
        _check_limits(call, comments, rep)
    return values


def _check_ensemble(chk: Checker, call: dict, csv: str, betas, rep: Report) -> list:
    rows, _ = _parse_csv(csv, "beta,l,seed")
    series = {}
    for b, l, label in rows:
        series.setdefault(label, []).append((float(b), float(l)))
    seeds = call["seeds"]
    if list(series) != [str(s) for s in seeds] + ["mean"]:
        raise ValueError("series are not the requested seeds followed by the mean")
    values, refs = [], []
    for seed in seeds:
        pts = series[str(seed)]
        if not _grid_matches([b for b, _ in pts], betas):
            raise ValueError(f"seed {seed}: betas differ from the requested grid")
        couplings = _couplings_of(call, seed)
        ref = [chk.l_ref(couplings, b) for b in betas]
        refs.append(ref)
        values.extend((*_l_check(l, r, call["q"]), 1) for (_, l), r in zip(pts, ref))
    mean = series["mean"]
    if not _grid_matches([b for b, _ in mean], betas):
        raise ValueError("mean series: betas differ from the requested grid")
    for k, (_, l) in enumerate(mean):
        exact = math.fsum(series[str(s)][k][1] for s in seeds) / len(seeds)
        if l != exact:
            rep.problems.append(f"{call['id']}: mean row {k} is {l!r}, fsum of the seeds gives {exact!r}")
        ref = math.fsum(r[k] for r in refs) / len(seeds)
        values.append((*_l_check(l, ref, call["q"]), 0))
    return values


def _check_compare(call: dict, rows, comments, refs, rep: Report) -> None:
    worst = 0.0
    for (b, numeric, closed, err), ref in zip(rows, refs):
        recomputed = abs(float(numeric) - float(closed))
        if float(err) != recomputed:
            rep.problems.append(f"{call['id']}: abs_error at beta={b} is {err}, recomputed {recomputed!r}")
        if abs(float(closed) - ref) > L_TOL * (call["q"] - 1):
            rep.problems.append(f"{call['id']}: closed form at beta={b} is {closed}, reference {ref!r}")
        worst = max(worst, float(err))
    footer = [c for c in comments if c.startswith("# max_abs_error = ")]
    if len(footer) != 1 or float(footer[0].split("= ", 1)[1]) != worst:
        rep.problems.append(f"{call['id']}: max_abs_error footer {footer} disagrees with the column max {worst!r}")


def _check_limits(call: dict, comments, rep: Report) -> None:
    q, couplings = call["q"], call["couplings"]
    at_min = [k for k, j in enumerate(couplings) if j == min(couplings)]
    found = {}
    for line in comments:
        key, _, value = line[2:].partition(" = ")
        found[key] = value
    zero = found.get("investment_at_beta_zero")
    if zero is None or float(zero) != (q - 1) / 2.0:
        rep.problems.append(f"{call['id']}: beta=0 limit {zero!r}, expected {(q - 1) / 2.0!r}")
    inf = found.get("investment_at_beta_infinity", "")
    if len(at_min) == 1:
        ok = inf.split(" ")[0] != "undefined" and float(inf.split(" ")[0]) == at_min[0]
        ok = ok and inf.endswith(f"level {at_min[0]})")
    else:
        ok = inf.startswith("undefined")
    if not ok:
        rep.problems.append(f"{call['id']}: beta=infinity limit {inf!r}, minimum at levels {at_min}")
