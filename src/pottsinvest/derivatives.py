"""Per-capita investment l(beta, D) of the infinite ring, and beta sweeps.

The per-capita investment at inverse control parameter beta and bias D is

    l(beta, D) = -(1 / beta) * (d lambda_1 / dD) / lambda_1,

with lambda_1 the dominant transfer-matrix eigenvalue.  By Hellmann-Feynman
(Feynman, Phys. Rev. 56, 1939) the bias derivative is exact in terms of the
dominant eigenvector v at any bias: l = sum_a d_a v_a^2 / sum_a v_a^2, a
convex combination of the levels.  That is the default path, with v_a^2
and sum_a v_a^2 as the Newton pass that proves the root of a secular solve
of :mod:`.transfer` holds them, v never normalised, since the division by
sum_a v_a^2 does that.  Every solve, of one point or of a block of lanes,
hands back that pair and reads no level; this module alone forms l from
it and clamps l to [d_0, d_{q-1}].

The paper instead differentiates numerically; passing a
:class:`StencilConfig` reproduces that as a cross-check.  Two stencils are
offered:

    two_point:   (f(xi) - f(-xi)) / (2 xi)                      error O(xi^2)
    four_point:  4/3 * two_point(xi) - 1/3 * two_point(2 xi)    error O(xi^4)

Here f(offset) is log lambda_1 at bias D + offset, from the same secular
solve on the arrays of one setup, so l = -f'(0) / beta and the true
eigenvalue, which can be astronomically large, is never formed.

Both beta sweeps live here.  :func:`sweep_curve` solves a single curve
point by point from one setup, each point bit for bit the value
:func:`per_capita_investment` gives.  :func:`_sweep_lanes`, behind the
random-profile ensembles of :mod:`.profiles`, passes every seed's J - J_min
and J_min with a column of -beta to :func:`.transfer._secular_lanes`, a
bounded (seeds, betas) block at a time, forms no exponent itself, and
turns the (v^2, S2) pair of every lane into l.  At
zero bias :mod:`.transfer` alone forms the exponents, and both sweeps take
the one overflow verdict it raises: a point overflows only when -beta
J_min or a gap exponent -beta (J(a) - J_min) is not finite.  Lanes never
mix in an operation and each row is summed as a single point is, so each
seed's curve is bitwise the one :func:`sweep_curve` gives on its
couplings, swept alone or with others, failures included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Literal

import numpy as np

from .model import ModelParams
from .transfer import ConvergenceError, _biased_pair, _secular_lanes, _secular_root

__all__ = [
    "StencilConfig",
    "InvestmentCurve",
    "SweepError",
    "central_difference",
    "richardson_difference",
    "per_capita_investment",
    "sweep_curve",
]

Order = Literal["two_point", "four_point"]
_ORDERS = ("two_point", "four_point")

# Exponent floats per block of the batched ensemble solve; keeps its working
# memory bounded for any number of seeds and betas.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class StencilConfig:
    """Step and order of the finite-difference cross-check."""

    xi: float = 1e-4
    order: Order = "four_point"

    def __post_init__(self) -> None:
        if not math.isfinite(self.xi) or self.xi <= 0.0:
            raise ValueError("xi must be finite and positive")
        if self.order not in _ORDERS:
            raise ValueError(f"order must be one of {_ORDERS}")


class SweepError(RuntimeError):
    """A sweep point failed; carries the offending beta (and seed, if any)."""

    def __init__(self, beta: float, cause: BaseException, seed: int | None = None):
        at = f"beta={beta!r}" if seed is None else f"beta={beta!r}, seed={seed}"
        super().__init__(f"investment evaluation failed at {at}: {cause}")
        self.beta = beta
        self.seed = seed


@dataclass(frozen=True)
class InvestmentCurve:
    """A sampled investment curve: (beta, l) points plus provenance.

    ``params_snapshot`` records the beta-independent part of the model (its
    beta field is zeroed); it is None for aggregate curves that average over
    several coupling vectors.  ``seed`` identifies the coupling draw for
    ensemble members.
    """

    points: tuple[tuple[float, float], ...]
    params_snapshot: ModelParams | None
    seed: int | None = None


def central_difference(f: Callable[[float], float], xi: float) -> float:
    """Two-point central difference (f(xi) - f(-xi)) / (2 xi), O(xi^2)."""
    return (f(xi) - f(-xi)) / (2.0 * xi)


def richardson_difference(f: Callable[[float], float], xi: float) -> float:
    """Four-point stencil: the xi and 2 xi central differences combined.

    The combination 4/3 * delta(xi) - 1/3 * delta(2 xi) cancels the xi^2
    error term, leaving a leading error of xi^4 * f'''''(0) / 30.  Exact on
    polynomials up to degree four.
    """
    return (4.0 / 3.0) * central_difference(f, xi) - (1.0 / 3.0) * central_difference(
        f, 2.0 * xi
    )


def _stencil_investment(setup: tuple, beta: float, cfg: StencilConfig) -> float:
    """l(beta, D) = -(d log lambda_1 / dD) / beta by a finite difference in the bias.

    Every offset's log lambda_1 is one weighted secular solve on the
    setup's arrays, which the solve only reads.
    """
    j, lev, field = setup[:3]

    def f(offset: float) -> float:
        return _biased_pair(j, lev, beta, field + offset)[0]

    diff = central_difference if cfg.order == "two_point" else richardson_difference
    return -diff(f, cfg.xi) / beta


def _curve_setup(params: ModelParams) -> tuple:
    """The beta-independent part of l(beta) for one model, formed once per curve.

    The couplings J and levels as arrays, the bias, J_min as a 1-element
    array, J - J_min and the end levels d_0 and d_{q-1}.
    """
    j, lev = np.array(params.couplings.values), params.levels
    j_min = j.min(keepdims=True)
    with np.errstate(over="ignore"):
        j_span = j - j_min
    return (j, np.array(lev), params.field, j_min, j_span, lev[0], lev[-1])


def _investment(setup: tuple, beta: float) -> float:
    """l at one beta >= 0 from a curve's setup: one secular solve, then sum d v^2 / sum v^2.

    At beta = 0 it is the plain mean of the levels.  Either solve hands
    back v^2 and sum v^2 as the Newton pass that proved its root held
    them: the weighted one of :func:`.transfer._biased_pair` at nonzero
    bias, and at zero bias :func:`.transfer._secular_root`, with the gaps,
    start and overflow verdict every lane of an ensemble is solved from.
    """
    j, lev, field, j_min, j_span, low, high = setup
    if beta == 0.0:
        return math.fsum(lev) / len(lev)
    if field != 0.0:
        _, weights, v2 = _biased_pair(j, lev, beta, field)
    else:
        weights, v2 = _secular_root(j_span, j_min, -beta)
    # v is unnormalised; dividing by sum v_a^2 also makes ties exact: equal
    # weights on levels 0 and 1 give 1/2, not 0.4999999999999999.
    return min(max(float(np.add.reduce(lev * weights)) / v2, low), high)


def per_capita_investment(params: ModelParams, cfg: StencilConfig | None = None) -> float:
    """Per-capita investment l(beta, D) of the infinite ring at the model's bias D.

    beta = 0 is exact: every configuration is equally likely, so the value
    is the plain mean of the levels, (q - 1) / 2 for the default levels.
    For beta > 0 the value is sum_a d_a v_a^2 over the dominant eigenvector,
    clamped to [d_0, d_{q-1}] against rounding; an explicit ``cfg`` takes
    the paper's finite-difference route instead, unclamped.  A bias so
    strong that a secular weight overflows raises ValueError, and so does
    zero bias where -beta J_min or a gap exponent -beta (J(a) - J_min) is
    not finite; a diagonal exponent -beta J(a) below the double range is
    an entry of 0 and does not raise.
    """
    setup = _curve_setup(params)
    if cfg is not None and params.beta != 0.0:
        return _stencil_investment(setup, params.beta, cfg)
    return _investment(setup, params.beta)


def _checked_grid(betas) -> list[float]:
    """The beta grid as floats; it must be non-empty, finite, non-negative and increasing.

    A str or bytes grid, whose characters or bytes would read as betas, and
    bool entries raise ValueError, as :func:`.model._count` rejects bools.
    """
    if isinstance(betas, (str, bytes)):
        raise ValueError("beta grid must be a sequence of numbers, not str or bytes")
    grid = list(betas)
    if not {bool, np.bool_}.isdisjoint(map(type, grid)):
        raise ValueError("beta grid values must be numbers, not bools")
    grid = [float(b) for b in grid]
    if not grid:
        raise ValueError("beta grid must contain at least one point")
    if any(not math.isfinite(b) or b < 0.0 for b in grid):
        raise ValueError("beta grid values must be finite and non-negative")
    if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("beta grid must be strictly increasing")
    return grid


def sweep_curve(params_base: ModelParams, betas) -> InvestmentCurve:
    """Evaluate l(beta) over a grid of beta values.

    The grid must be non-negative and strictly increasing.  The model's
    beta-independent arrays are formed once; each beta then costs one
    secular solve, bit for bit the value :func:`per_capita_investment`
    gives at that beta.  Any point failure aborts the sweep with a
    :class:`SweepError` naming the beta.
    """
    grid = _checked_grid(betas)
    setup = _curve_setup(params_base)
    points = []
    for b in grid:
        try:
            points.append((b, _investment(setup, b)))
        except Exception as exc:
            raise SweepError(b, exc) from exc
    return InvestmentCurve(
        points=tuple(points),
        params_snapshot=replace(params_base, beta=0.0),
        seed=None,
    )


def _sweep_lanes(seeds, couplings, levels, grid) -> np.ndarray:
    """l for every (seed, beta) lane as an (n_seeds, n_beta) array; couplings is (n_seeds, q).

    A block is a (seeds, betas) rectangle of lanes, each one contiguous
    row of q levels, in (seed, beta) order.  l = sum_a d_a v_a^2 / S2 is
    formed row by row in the v^2 block :func:`.transfer._secular_lanes`
    hands back, as :func:`_investment` forms one point's, and the whole
    result is clamped to [d_0, d_{q-1}] once.
    """
    q, lev = len(levels), np.array(levels, dtype=float)
    # The grid is increasing and non-negative, so only its first point can be 0.
    skip = 1 if grid[0] == 0.0 else 0
    out = np.full((len(seeds), len(grid)), math.fsum(levels) / q)
    neg_beta = -np.asarray(grid[skip:])[:, None]
    j_min = couplings.min(axis=1)[:, None, None]
    j_span = couplings[:, None, :] - j_min
    # A block holds at most _BLOCK exponents.  It spans several seeds only
    # when it holds their whole grids, so blocks run seed by seed, beta by
    # beta.
    width = max(1, min(len(neg_beta), _BLOCK // q))
    height = max(1, _BLOCK // (q * width))
    for s0 in range(0, len(seeds), height):
        for b0 in range(0, len(neg_beta), width):
            b = neg_beta[b0 : b0 + width]
            try:
                v2, s2 = _secular_lanes(j_span[s0 : s0 + height], j_min[s0 : s0 + height], b)
            except (ValueError, ConvergenceError) as exc:
                seed, beta = divmod(exc.lane, len(b))
                raise SweepError(grid[skip + b0 + beta], exc, seed=seeds[s0 + seed]) from exc
            np.multiply(v2, lev, out=v2)
            out[s0 : s0 + height, skip + b0 : skip + b0 + len(b)] = np.add.reduce(v2, axis=-1) / s2
    return np.minimum(np.maximum(out, lev[0], out=out), lev[-1], out=out)
