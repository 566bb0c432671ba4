"""Per-capita investment l(beta) of the infinite ring, and beta sweeps.

The per-capita investment at inverse control parameter beta is

    l(beta) = -(1 / beta) * (d lambda_1 / dD) / lambda_1   at D = 0,

with lambda_1 the dominant transfer-matrix eigenvalue.  By Hellmann-Feynman
(Feynman, Phys. Rev. 56, 1939) the bias derivative is exact in terms of the
unit dominant eigenvector v: l = sum_a d_a v_a^2, a convex combination of
the levels.  That is the default path, with v from the secular equation in
:mod:`.transfer`.

The paper instead differentiates numerically; passing a
:class:`StencilConfig` reproduces that as a cross-check.  Two stencils are
offered:

    two_point:   (f(xi) - f(-xi)) / (2 xi)                      error O(xi^2)
    four_point:  4/3 * two_point(xi) - 1/3 * two_point(2 xi)    error O(xi^4)

All matrices in one stencil share the log scale of the zero-bias matrix.
A per-matrix scale would shift each eigenvalue by a different factor and
corrupt the difference; with a common scale the factor cancels in the
ratio, so l never touches the (potentially astronomically large) true
eigenvalue magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Literal

import numpy as np

from .model import ModelParams
from .transfer import build_matrix, dominant_eigenvalue

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
    method: Literal["closed_form", "numeric"]
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


def _require_zero_field(params: ModelParams) -> None:
    if params.field != 0.0:
        raise ValueError("derivatives are taken at zero external bias (field = 0)")


def _stencil_investment(params: ModelParams, cfg: StencilConfig) -> float:
    """l(beta) from the bias derivative of the scaled dominant eigenvalue.

    Every matrix is built under the log scale of the zero-offset matrix,
    so the scale cancels in the ratio.
    """
    s0 = build_matrix(params).log_scale

    def f(offset: float) -> float:
        m = build_matrix(replace(params, field=offset), log_scale=s0)
        return float(np.linalg.eigvalsh(m.entries)[-1])

    diff = central_difference if cfg.order == "two_point" else richardson_difference
    return -diff(f, cfg.xi) / (params.beta * f(0.0))


def per_capita_investment(params: ModelParams, cfg: StencilConfig | None = None) -> float:
    """Per-capita investment l(beta) of the infinite ring at zero bias.

    beta = 0 is exact: every configuration is equally likely, so the value
    is the plain mean of the levels, (q - 1) / 2 for the default levels.
    For beta > 0 the value is sum_a d_a v_a^2 over the dominant eigenvector,
    clamped to [d_0, d_{q-1}] against rounding; an explicit ``cfg`` takes
    the paper's finite-difference route instead, unclamped.
    """
    _require_zero_field(params)
    if params.beta == 0.0:
        return math.fsum(params.levels) / params.q
    if cfg is not None:
        return _stencil_investment(params, cfg)
    _, v = dominant_eigenvalue(params)
    # Dividing by sum v_a^2 (1 up to rounding) makes ties exact: equal
    # weights on levels 0 and 1 give 1/2, not 0.4999999999999999.
    weights = v * v
    lev = params.levels
    return min(max(float(np.dot(lev, weights) / weights.sum()), lev[0]), lev[-1])


def sweep_curve(params_base: ModelParams, betas) -> InvestmentCurve:
    """Evaluate l(beta) over a grid of beta values.

    The grid must be non-negative and strictly increasing.  Any point
    failure aborts the sweep with a :class:`SweepError` naming the beta.
    """
    grid = [float(b) for b in betas]
    if not grid:
        raise ValueError("beta grid must contain at least one point")
    if any(not math.isfinite(b) or b < 0.0 for b in grid):
        raise ValueError("beta grid values must be finite and non-negative")
    if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("beta grid must be strictly increasing")
    points = []
    for b in grid:
        try:
            val = per_capita_investment(replace(params_base, beta=b))
        except Exception as exc:
            raise SweepError(b, exc) from exc
        points.append((b, val))
    return InvestmentCurve(
        points=tuple(points),
        method="numeric",
        params_snapshot=replace(params_base, beta=0.0),
        seed=None,
    )
