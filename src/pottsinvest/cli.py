"""Command-line sweep runner: investment curves as CSV, plus a compare mode.

One command, two modes.  The default mode sweeps l(beta) over a grid and
writes CSV rows ``beta,l`` (or ``beta,l,seed`` for random-profile
ensembles, where the pointwise mean series is tagged ``seed=mean``).  With
``--compare`` the numeric curve is evaluated against the exact closed form
of :mod:`.closedform`'s two-class law, which covers any q whose couplings
take at most two distinct values, and the per-point absolute error is
emitted instead.  Every numeric l(beta) comes from the exact secular
equation: a single curve's points from
:func:`.derivatives.sweep_curve`, bit for bit
:func:`.derivatives.per_capita_investment`, and an ensemble's from the
batched lanes of :func:`.derivatives._sweep_lanes`, the same bits again;
the finite-difference stencil is a library-only cross-check.

Settings come from flags, from a ``key=value`` file via ``--config``
(``#`` starts a comment), or both.  Every long flag except ``--config`` is
a key, spelt with dashes or underscores; a switch such as ``log_grid``
takes true/false, yes/no, on/off or 1/0.  Each file line becomes a flag
token, checked on its own by the same parser, and the file's tokens go in
front of the command line, so flags override the file.  Floats are written
with repr, which round-trips exactly.  Exit codes: 0 success, 2
configuration error, 3 numerical failure (the message names the beta and,
for ensembles, the seed).  The CLI checks only the rules of its own flags;
the library checks the rest (coupling count and finiteness, a grid whose
points round to equal values, and in compare mode couplings with three or
more distinct values), and its ValueError is a configuration error too.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from .closedform import _two_class_curve, classify_limits
from .derivatives import SweepError, sweep_curve
from .model import ModelParams
from .profiles import ProfileSpec, _ensemble_values, _member_params, make_profile

__all__ = ["ConfigError", "main"]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _list_of(kind):
    """argparse type: a non-empty comma-separated list of ``kind`` values, as a tuple."""

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated list of {kind.__name__}s, got '{text}'"
            ) from None

    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The flag parser, built on first use and shared by every later call."""
    p = argparse.ArgumentParser(
        prog="pottsinvest",
        description="Sweep the per-capita investment curve l(beta) of a ring "
        "of q-level agents and write it as CSV.",
        exit_on_error=False,
    )
    p.add_argument("--config", metavar="PATH", help="key=value config file; flags override it")
    p.add_argument("--q", type=int, help="number of investment levels (>= 2)")
    p.add_argument(
        "--profile",
        choices=("aggressive", "conservative", "random"),
        help="coupling profile; 'random' draws couplings per seed",
    )
    p.add_argument(
        "--couplings",
        type=_list_of(float),
        metavar="J0,J1,...",
        help="explicit comma-separated coupling strengths (exactly q of them)",
    )
    p.add_argument("--beta-min", type=float, default=0.0, help="grid start (default 0)")
    p.add_argument("--beta-max", type=float, default=10.0, help="grid end (default 10)")
    p.add_argument("--beta-count", type=int, default=200, help="number of grid points (default 200)")
    p.add_argument(
        "--log-grid",
        action="store_true",
        help="space the grid logarithmically (requires beta-min > 0)",
    )
    p.add_argument(
        "--seeds",
        type=_list_of(int),
        metavar="S1,S2,...",
        help="seeds for random-profile ensembles",
    )
    p.add_argument("--out", default="-", metavar="PATH", help="output file, '-' for stdout (default)")
    p.add_argument(
        "--emit-limits",
        action="store_true",
        help="append the exact beta=0 value and large-beta classification as comments",
    )
    p.add_argument(
        "--compare",
        action="store_true",
        help="emit numeric-vs-closed-form errors instead of the curve",
    )
    return p


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv, reporting a bad flag or value as argparse does (usage, exit 2)."""
    try:
        return parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))


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


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got '{text}'")


def _config_tokens(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """The lines of a key=value file as flag tokens, each checked by ``parser``.

    A key is a long flag's name; a switch (a flag whose default is False)
    becomes the bare flag when its value is true and no token when false.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    defaults = vars(parser.parse_args([]))
    del defaults["config"]
    tokens: list[str] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        val = val.strip()
        if key not in defaults:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        flag = "--" + key.replace("_", "-")
        try:
            if defaults[key] is False:
                token = [flag] if _parse_bool(val) else []
            else:
                token = [f"{flag}={val}"]
                parser.parse_args(token)
        except (argparse.ArgumentError, ValueError) as exc:
            raise ConfigError(f"{path}:{lineno}: invalid value for '{key}': {exc}") from exc
        tokens += token
    return tokens


def _validate(args: argparse.Namespace) -> None:
    """Rules across settings, which no single flag's type or choices can check."""
    if args.q is None:
        raise ConfigError("q is required (flag --q or config key q)")
    if args.q < 2:
        raise ConfigError("q must be at least 2")
    if (args.profile is None) == (args.couplings is None):
        raise ConfigError("exactly one of profile or couplings must be given")
    if args.profile == "random" and args.seeds is None:
        raise ConfigError("the random profile requires --seeds")
    if args.seeds is not None and args.profile != "random":
        raise ConfigError("seeds are only meaningful with --profile random")
    if args.compare and args.seeds is not None:
        raise ConfigError("compare mode needs a single deterministic coupling vector")
    if args.compare and args.emit_limits:
        raise ConfigError("emit-limits is not available in compare mode")


def _beta_grid(args: argparse.Namespace) -> list[float]:
    if args.beta_count < 1:
        raise ConfigError("beta-count must be at least 1")
    if not (math.isfinite(args.beta_min) and math.isfinite(args.beta_max)):
        raise ConfigError("beta-min and beta-max must be finite")
    if args.beta_min < 0.0:
        raise ConfigError("beta-min must be non-negative")
    if args.log_grid and args.beta_min <= 0.0:
        raise ConfigError("log grid requires beta-min > 0")
    if args.beta_count == 1:
        return [args.beta_min]
    if args.beta_max <= args.beta_min:
        raise ConfigError("beta-max must exceed beta-min")
    if args.log_grid:
        return np.geomspace(args.beta_min, args.beta_max, args.beta_count).tolist()
    return np.linspace(args.beta_min, args.beta_max, args.beta_count).tolist()


def _params(args: argparse.Namespace) -> ModelParams:
    """Zero-bias model of a non-ensemble run (explicit couplings or a deterministic profile)."""
    couplings = args.couplings
    if couplings is None:
        couplings = make_profile(ProfileSpec(kind=args.profile, q=args.q))
    return ModelParams(args.q, 0.0, couplings)


def _limit_lines(models: list[tuple[str, ModelParams]]) -> list[str]:
    """The --emit-limits footer for (tag, params) pairs.

    The beta=0 value depends only on the levels, which all models share, so
    it is stated once, first; then one beta->infinity line per model.
    """
    lines = []
    for tag, params in models:
        info = classify_limits(params)
        if not lines:
            lines.append(f"# investment_at_beta_zero = {info.beta_zero!r}")
        lines.append(f"# {tag}investment_at_beta_infinity = {info.beta_infinity!r} ({info.law})")
    return lines


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _rows(betas: list[str], values: list[float], suffix: str = "") -> list[str]:
    """CSV rows of one series, with its beta column already formatted by repr."""
    return [f"{b},{val!r}{suffix}" for b, val in zip(betas, values)]


def _run_single(args: argparse.Namespace, grid: list[float]) -> list[str]:
    params = _params(args)
    betas, values = zip(*sweep_curve(params, grid).points)
    lines = ["beta,l"]
    lines.extend(_rows([repr(b) for b in betas], values))
    if args.emit_limits:
        lines.extend(_limit_lines([("", params)]))
    return lines


def _run_ensemble(args: argparse.Namespace, grid: list[float]) -> list[str]:
    seeds, couplings, _, values, mean = _ensemble_values(args.q, args.seeds, grid)
    betas = [repr(b) for b in grid]
    lines = ["beta,l,seed"]
    for seed, row in zip(seeds, values):
        lines.extend(_rows(betas, row, f",{seed}"))
    lines.extend(_rows(betas, mean, ",mean"))
    if args.emit_limits:
        members = zip(seeds, _member_params(args.q, couplings))
        lines.extend(_limit_lines([(f"seed {s}: ", p) for s, p in members]))
    return lines


def _run_compare(args: argparse.Namespace, grid: list[float]) -> list[str]:
    params = _params(args)
    closed = _two_class_curve(params.levels, params.couplings.values)
    curve = sweep_curve(params, grid)
    lines = ["beta,l_numeric,l_closed_form,abs_error"]
    max_err = 0.0
    for b, numeric in curve.points:
        exact = closed(b)
        err = abs(numeric - exact)
        max_err = max(max_err, err)
        lines.append(f"{b!r},{numeric!r},{exact!r},{err!r}")
    lines.append(f"# max_abs_error = {max_err!r}")
    return lines


def main(argv=None) -> int:
    parser = _build_parser()
    argv = _join_negative_lists(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(parser, argv)
        if args.config is not None:
            args = _parse(parser, _config_tokens(parser, args.config) + argv)
        _validate(args)
        grid = _beta_grid(args)
        ensemble = args.seeds is not None
        run = _run_compare if args.compare else _run_ensemble if ensemble else _run_single
        lines = run(args, grid)
        _write_text(args.out, "\n".join(lines) + "\n")
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except ValueError as exc:
        # ConfigError, or a library check on user input (grid, couplings):
        # every numerical failure arrives wrapped in SweepError.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    if args.compare and args.out != "-":
        # The last compare line is its "# max_abs_error = ..." footer.
        print(lines[-1].removeprefix("# "))
    return 0


if __name__ == "__main__":
    sys.exit(main())
