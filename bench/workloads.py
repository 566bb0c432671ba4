"""Workload definitions: the calls one benchmark round makes, drawn from a seed.

A round is a list of call specifications, plain dicts that both the worker
(which turns them into pottsinvest calls) and the checker (which computes
reference values from them) read.  Every round of a run repeats the same
calls, so a run attempts whole rounds of identical operations.

* ``ensemble``: the README's twelve-seed q = 15 random-profile command and a
  four-seed q = 60 ensemble, both through ``pottsinvest.cli.main`` on the
  default 200-point grid.  Seed n picks random-profile seeds 12(n-1)+1 ..
  12n at q = 15 (n = 1 gives the README's 1..12) and 4(n-1)+1 .. 4n at q = 60.
* ``curves``: single curves across the regime map, in an order shuffled by
  the seed; the inputs themselves are fixed, so the calls whose values the
  program gets wrong fail on every seed.
* ``finite_ring``: 46 log Z_N draws, two on each rung of the q ladder
  4, 9, ..., 114, with N log-uniform on 1..2000, a nonzero bias D and
  couplings uniform on [-2, 2] drawn from the seed.  The ladder has an odd
  number of rungs, so the median call time falls inside the middle rung
  (q = 59) instead of between two rungs whose costs differ by a fifth.  beta is capped so that the entries of the transfer
  matrix span at most e^10, which keeps the matrix dense and the cost of
  one call close to a function of q alone.
"""

from __future__ import annotations

import math
import random

import numpy as np

WORKLOADS = ("ensemble", "curves", "finite_ring")

# Grids, as the CLI builds them from its flags.
GRIDS = {
    "lin": {"flags": [], "betas": lambda: np.linspace(0.0, 10.0, 200)},
    "log": {
        "flags": ["--log-grid", "--beta-min", "0.01", "--beta-max", "1000", "--beta-count", "100"],
        "betas": lambda: np.geomspace(0.01, 1000.0, 100),
    },
    "lin20": {"flags": ["--beta-max", "20"], "betas": lambda: np.linspace(0.0, 20.0, 200)},
}

RING_LADDER = tuple(range(4, 115, 5))
RING_DRAWS_PER_RUNG = 2
RING_MAX_SITES = 2000
RING_EXPONENT_SPAN = 10.0


def grid(name: str) -> list[float]:
    return [float(b) for b in GRIDS[name]["betas"]()]


def _cli(call_id: str, q: int, source: list[str], grid_name: str, **extra) -> dict:
    argv = ["--q", str(q)] + source + GRIDS[grid_name]["flags"] + extra.pop("flags", [])
    return {"id": call_id, "kind": "cli", "q": q, "grid": grid_name, "argv": argv, **extra}


def _seed_block(seed: int, size: int) -> list[int]:
    return [size * (seed - 1) + k for k in range(1, size + 1)]


def ensemble_calls(seed: int) -> list[dict]:
    calls = []
    for q, size in ((15, 12), (60, 4)):
        seeds = _seed_block(seed, size)
        source = ["--profile", "random", "--seeds=" + ",".join(map(str, seeds))]
        calls.append(_cli(f"ensemble q={q}", q, source, "lin", mode="ensemble", seeds=seeds))
    return calls


# Coupling patterns with an exact closed form for --compare.
COMPARE_PATTERNS = ((1.0, -1.0), (0.0, 0.0, -1.0), (0.0, -1.0, 0.0), (-1.0, 0.0, 0.0))

# One-point sweeps on tied and near-tied coupling minima.
TIE_POINTS = (((-1.0, -1.0, 0.0), 40.0), ((-1.0, -1.0, 0.0), 1000.0), ((-1.0, -1.0 + 1e-9, 0.0), 20.0))


def _couplings_flag(couplings) -> str:
    return "--couplings=" + ",".join(repr(float(j)) for j in couplings)


def curves_calls(seed: int) -> list[dict]:
    calls = []
    for profile in ("aggressive", "conservative"):
        for q in (3, 10, 40, 200):
            for grid_name in ("lin", "log"):
                calls.append({
                    "id": f"sweep {profile} q={q} {grid_name}", "kind": "sweep",
                    "q": q, "profile": profile, "grid": grid_name,
                })
    for couplings in COMPARE_PATTERNS:
        for grid_name in ("lin", "log"):
            calls.append(_cli(
                f"compare {','.join(map(str, couplings))} {grid_name}", len(couplings),
                [_couplings_flag(couplings)], grid_name, flags=["--compare"],
                mode="compare", couplings=list(couplings),
            ))
    calls.append(_cli("readme q=10 aggressive", 10, ["--profile", "aggressive"], "lin",
                      mode="single", profile="aggressive"))
    calls.append(_cli("readme emit-limits", 3, [_couplings_flag((0.0, 0.0, -1.0))], "lin20",
                      flags=["--emit-limits"], mode="limits", couplings=[0.0, 0.0, -1.0]))
    for couplings, beta in TIE_POINTS:
        calls.append({
            "id": f"tie {','.join(map(repr, couplings))} beta={beta!r}", "kind": "sweep",
            "q": len(couplings), "couplings": list(couplings), "betas": [beta],
        })
    random.Random(seed).shuffle(calls)
    return calls


def finite_ring_calls(seed: int) -> list[dict]:
    rng = random.Random(seed)
    calls = []
    for q in [q for q in RING_LADDER for _ in range(RING_DRAWS_PER_RUNG)]:
        n_sites = min(RING_MAX_SITES, math.floor(math.exp(rng.random() * math.log(RING_MAX_SITES + 1))))
        field = (0.05 + 0.95 * rng.random()) * (1.0 if rng.random() < 0.5 else -1.0)
        couplings = [-2.0 + 4.0 * rng.random() for _ in range(q)]
        beta_max = RING_EXPONENT_SPAN / ((q - 1) * abs(field) + 4.0)
        beta = (0.02 + 0.98 * rng.random()) * beta_max
        calls.append({
            "id": f"logz q={q} N={n_sites}", "kind": "logz", "q": q, "n_sites": n_sites,
            "beta": beta, "field": field, "couplings": couplings,
        })
    return calls


def calls_for(workload: str, seed: int) -> list[dict]:
    return {"ensemble": ensemble_calls, "curves": curves_calls, "finite_ring": finite_ring_calls}[workload](seed)


def betas_for(call: dict) -> list[float]:
    """The beta values a call asks for, in order."""
    return call["betas"] if "betas" in call else grid(call["grid"])


def expected_ops(call: dict) -> int:
    """Operations a call attempts: one per l(beta) value, or one log Z."""
    if call["kind"] == "logz":
        return 1
    points = len(betas_for(call))
    return points * (len(call["seeds"]) + 1) if call.get("mode") == "ensemble" else points
