"""Command-line sweep runner: investment curves as CSV, plus a compare mode.

One command, two modes.  The default mode sweeps l(beta) over a grid and
writes CSV rows ``beta,l`` (or ``beta,l,seed`` for random-profile
ensembles, where the pointwise mean series is tagged ``seed=mean``).  With
``--compare`` the numeric curve is evaluated against the matching exact
closed form (q = 2, or the three integrable q = 3 coupling patterns) and
the per-point absolute error is emitted instead.  Every l(beta) comes from
the exact secular-equation path of :func:`.derivatives.per_capita_investment`;
the finite-difference stencil is a library-only cross-check.

Configuration comes from flags, from a ``key=value`` file via ``--config``
(``#`` starts a comment), or both; flags override the file.  Floats are
written with repr, which round-trips exactly.  Exit codes: 0 success,
2 configuration error, 3 numerical failure (the message names the beta
and, for ensembles, the seed).
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass

import numpy as np

from .closedform import (
    classify_limits,
    investment_q2,
    investment_q3_case1,
    investment_q3_case2,
    investment_q3_case3,
)
from .derivatives import InvestmentCurve, SweepError, sweep_curve
from .model import CouplingProfile, ModelParams
from .profiles import ProfileSpec, ensemble_sweep, make_profile
from .transfer import ConvergenceError

__all__ = ["ConfigError", "RunConfig", "main"]

_PROFILE_CHOICES = ("aggressive", "conservative", "random")

_DEFAULTS = {
    "beta_min": 0.0,
    "beta_max": 10.0,
    "beta_count": 200,
    "log_grid": False,
    "out": "-",
    "emit_limits": False,
    "compare": False,
}


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run request."""

    q: int
    profile: str | None
    couplings: tuple[float, ...] | None
    beta_min: float
    beta_max: float
    beta_count: int
    log_grid: bool
    seeds: tuple[int, ...] | None
    out: str
    emit_limits: bool
    compare: bool


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pottsinvest",
        description="Sweep the per-capita investment curve l(beta) of a ring "
        "of q-level agents and write it as CSV.",
    )
    p.add_argument("--config", metavar="PATH", help="key=value config file; flags override it")
    p.add_argument("--q", type=int, help="number of investment levels (>= 2)")
    p.add_argument(
        "--profile",
        choices=_PROFILE_CHOICES,
        help="coupling profile; 'random' draws couplings per seed",
    )
    p.add_argument(
        "--couplings",
        metavar="J0,J1,...",
        help="explicit comma-separated coupling strengths (exactly q of them)",
    )
    p.add_argument("--beta-min", type=float, help="grid start (default 0)")
    p.add_argument("--beta-max", type=float, help="grid end (default 10)")
    p.add_argument("--beta-count", type=int, help="number of grid points (default 200)")
    p.add_argument(
        "--log-grid",
        action="store_const",
        const=True,
        help="space the grid logarithmically (requires beta-min > 0)",
    )
    p.add_argument("--seeds", metavar="S1,S2,...", help="seeds for random-profile ensembles")
    p.add_argument("--out", metavar="PATH", help="output file, '-' for stdout (default)")
    p.add_argument(
        "--emit-limits",
        action="store_const",
        const=True,
        help="append the exact beta=0 value and large-beta classification as comments",
    )
    p.add_argument(
        "--compare",
        action="store_const",
        const=True,
        help="emit numeric-vs-closed-form errors instead of the curve",
    )
    return p


# List flags whose value may begin with a minus sign.  argparse reads a
# token such as "-1.0,1.0" as an unknown flag, so such a value is joined to
# its flag with '=' before parsing, which argparse always takes as a value.
_LIST_FLAGS = ("--couplings", "--seeds")
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _join_negative_lists(argv: list[str]) -> list[str]:
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in _LIST_FLAGS and _NEGATIVE_VALUE.match(arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _parse_floats(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(not p for p in parts):
        raise ValueError("expected a non-empty comma-separated list")
    return tuple(float(p) for p in parts)


def _parse_ints(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(not p for p in parts):
        raise ValueError("expected a non-empty comma-separated list")
    return tuple(int(p) for p in parts)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got '{text}'")


# Config-file keys and their coercions; keys match the flag names.
_FILE_KEYS = {
    "q": int,
    "profile": str,
    "couplings": str,
    "beta_min": float,
    "beta_max": float,
    "beta_count": int,
    "log_grid": _parse_bool,
    "seeds": str,
    "out": str,
    "emit_limits": _parse_bool,
    "compare": _parse_bool,
}


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        val = val.strip()
        if key not in _FILE_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        try:
            values[key] = _FILE_KEYS[key](val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: invalid value for '{key}': {exc}") from exc
    return values


def _merge_settings(args: argparse.Namespace) -> dict:
    settings = dict(_DEFAULTS)
    if args.config is not None:
        settings.update(_read_config_file(args.config))
    for key in _FILE_KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            settings[key] = flag_value
    return settings


def _validate(settings: dict) -> RunConfig:
    q = settings.get("q")
    if q is None:
        raise ConfigError("q is required (flag --q or config key q)")
    profile = settings.get("profile")
    if profile is not None and profile not in _PROFILE_CHOICES:
        raise ConfigError(f"profile must be one of {_PROFILE_CHOICES}")
    couplings_text = settings.get("couplings")
    couplings: tuple[float, ...] | None = None
    if couplings_text is not None:
        try:
            couplings = _parse_floats(str(couplings_text))
        except ValueError as exc:
            raise ConfigError(f"invalid couplings '{couplings_text}': {exc}") from exc
    if (profile is None) == (couplings is None):
        raise ConfigError("exactly one of profile or couplings must be given")
    seeds: tuple[int, ...] | None = None
    seeds_text = settings.get("seeds")
    if seeds_text is not None:
        try:
            seeds = _parse_ints(str(seeds_text))
        except ValueError as exc:
            raise ConfigError(f"invalid seeds '{seeds_text}': {exc}") from exc
        if not seeds:
            raise ConfigError("seeds list must not be empty")
    if profile == "random" and seeds is None:
        raise ConfigError("the random profile requires --seeds")
    if seeds is not None and profile != "random":
        raise ConfigError("seeds are only meaningful with --profile random")
    cfg = RunConfig(
        q=int(q),
        profile=profile,
        couplings=couplings,
        beta_min=float(settings["beta_min"]),
        beta_max=float(settings["beta_max"]),
        beta_count=int(settings["beta_count"]),
        log_grid=bool(settings["log_grid"]),
        seeds=seeds,
        out=str(settings["out"]),
        emit_limits=bool(settings["emit_limits"]),
        compare=bool(settings["compare"]),
    )
    if cfg.compare and cfg.seeds is not None:
        raise ConfigError("compare mode needs a single deterministic coupling vector")
    if cfg.compare and cfg.emit_limits:
        raise ConfigError("emit-limits is not available in compare mode")
    return cfg


def _beta_grid(cfg: RunConfig) -> list[float]:
    if cfg.beta_count < 1:
        raise ConfigError("beta-count must be at least 1")
    if cfg.beta_min < 0.0:
        raise ConfigError("beta-min must be non-negative")
    if cfg.beta_count == 1:
        return [cfg.beta_min]
    if cfg.beta_max <= cfg.beta_min:
        raise ConfigError("beta-max must exceed beta-min")
    if cfg.log_grid:
        if cfg.beta_min <= 0.0:
            raise ConfigError("log grid requires beta-min > 0")
        return [float(b) for b in np.geomspace(cfg.beta_min, cfg.beta_max, cfg.beta_count)]
    return [float(b) for b in np.linspace(cfg.beta_min, cfg.beta_max, cfg.beta_count)]


def _resolve_couplings(cfg: RunConfig) -> CouplingProfile:
    """Coupling vector for non-ensemble runs (explicit or deterministic profile)."""
    if cfg.couplings is not None:
        try:
            profile = CouplingProfile(cfg.couplings)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if profile.q != cfg.q:
            raise ConfigError(f"couplings list has {profile.q} entries, expected q={cfg.q}")
        return profile
    return make_profile(ProfileSpec(kind=cfg.profile, q=cfg.q))


def _make_params(cfg: RunConfig, couplings: CouplingProfile) -> ModelParams:
    try:
        return ModelParams(q=cfg.q, beta=0.0, couplings=couplings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _limit_lines(params: ModelParams, seed: int | None = None) -> list[str]:
    info = classify_limits(params)
    tag = "" if seed is None else f"seed {seed}: "
    lines = []
    if seed is None:
        lines.append(f"# {tag}investment_at_beta_zero = {info.beta_zero!r}")
    if info.unique_min:
        lines.append(
            f"# {tag}investment_at_beta_infinity = {info.beta_infinity!r} "
            f"(unique coupling minimum at level {params.couplings.unique_min_index()})"
        )
    else:
        lines.append(
            f"# {tag}investment_at_beta_infinity = undefined "
            "(coupling minimum attained at multiple levels)"
        )
    return lines


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _curve_rows(curve: InvestmentCurve, betas: list[str], suffix: str = "") -> list[str]:
    """CSV rows of a curve, with its beta column already formatted by repr."""
    return [f"{b},{val!r}{suffix}" for b, (_, val) in zip(betas, curve.points)]


def _run_single(cfg: RunConfig, grid: list[float]) -> int:
    couplings = _resolve_couplings(cfg)
    params = _make_params(cfg, couplings)
    curve = sweep_curve(params, grid)
    lines = ["beta,l"]
    lines.extend(_curve_rows(curve, [repr(b) for b, _ in curve.points]))
    if cfg.emit_limits:
        lines.extend(_limit_lines(params))
    _write_text(cfg.out, "\n".join(lines) + "\n")
    return 0


def _run_ensemble(cfg: RunConfig, grid: list[float]) -> int:
    ensemble = ensemble_sweep(cfg.q, cfg.seeds, grid)
    betas = [repr(b) for b in grid]
    lines = ["beta,l,seed"]
    for seed, curve in zip(ensemble.seeds, ensemble.curves):
        lines.extend(_curve_rows(curve, betas, f",{seed}"))
    lines.extend(_curve_rows(ensemble.mean_curve, betas, ",mean"))
    if cfg.emit_limits:
        first = ensemble.curves[0].params_snapshot
        lines.append(f"# investment_at_beta_zero = {sum(first.levels) / cfg.q!r}")
        for seed, curve in zip(ensemble.seeds, ensemble.curves):
            lines.extend(_limit_lines(curve.params_snapshot, seed=seed))
    _write_text(cfg.out, "\n".join(lines) + "\n")
    return 0


def _closed_form_for(cfg: RunConfig, couplings: CouplingProfile):
    """Pick the exact curve matching (q, couplings), or explain why none does."""
    j = couplings.values
    if cfg.q == 2:
        return lambda beta: investment_q2(beta, j[0], j[1])
    if cfg.q == 3:
        if j[0] == 0.0 and j[1] == 0.0:
            return lambda beta: investment_q3_case1(beta, j[2])
        if j[0] == 0.0 and j[2] == 0.0:
            return lambda beta: investment_q3_case2(beta, j[1])
        if j[1] == 0.0 and j[2] == 0.0:
            return lambda beta: investment_q3_case3(beta, j[0])
        raise ConfigError(
            "no closed form for these q=3 couplings; exactly one of "
            "(0,0,J), (0,J,0), (J,0,0) is integrable"
        )
    raise ConfigError("compare mode supports q=2 (any couplings) and the integrable q=3 cases")


def _run_compare(cfg: RunConfig, grid: list[float]) -> int:
    couplings = _resolve_couplings(cfg)
    closed = _closed_form_for(cfg, couplings)
    params = _make_params(cfg, couplings)
    curve = sweep_curve(params, grid)
    lines = ["beta,l_numeric,l_closed_form,abs_error"]
    max_err = 0.0
    for b, numeric in curve.points:
        exact = closed(b)
        err = abs(numeric - exact)
        max_err = max(max_err, err)
        lines.append(f"{b!r},{numeric!r},{exact!r},{err!r}")
    lines.append(f"# max_abs_error = {max_err!r}")
    _write_text(cfg.out, "\n".join(lines) + "\n")
    if cfg.out != "-":
        print(f"max_abs_error = {max_err!r}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_negative_lists(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = _validate(_merge_settings(args))
        grid = _beta_grid(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if cfg.compare:
            return _run_compare(cfg, grid)
        if cfg.seeds is not None:
            return _run_ensemble(cfg, grid)
        return _run_single(cfg, grid)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SweepError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
