"""Closed-form per-capita investment curves for the integrable small-q cases.

For q = 2 (levels 0, 1) and three coupling patterns at q = 3 the dominant
transfer-matrix eigenvalue is an explicit radical, so the investment curve

    l(beta) = -(1 / beta) * (d lambda_1 / dD) / lambda_1   at D = 0

has an exact expression.  Each formula below is evaluated in terms of
exp(-beta * |J|) factors only, which keeps every intermediate bounded and
the result finite for beta * |J| up to around 700 regardless of sign.

The large-beta endpoints of the two non-trivial q = 3 curves are exposed as
exact constants rather than numerical limits, and
:func:`investment_at_beta_infinity` gives the large-beta endpoint of any
coupling vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ModelParams

__all__ = [
    "SQRT12",
    "Q3_CASE1_POSITIVE_J_LIMIT",
    "Q3_CASE3_POSITIVE_J_LIMIT",
    "LimitClassification",
    "investment_q2",
    "investment_q3_case1",
    "investment_q3_case2",
    "investment_q3_case3",
    "investment_at_beta_infinity",
    "classify_limits",
]

SQRT12 = math.sqrt(12.0)

# Large-beta endpoint of the case-1 curve for positive coupling, (1 + sqrt 12) / (2 + sqrt 12).
Q3_CASE1_POSITIVE_J_LIMIT = (1.0 + SQRT12) / (2.0 + SQRT12)

# Large-beta endpoint of the case-3 curve for positive coupling, (3 + sqrt 12) / (2 + sqrt 12).
Q3_CASE3_POSITIVE_J_LIMIT = (3.0 + SQRT12) / (2.0 + SQRT12)


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not math.isfinite(beta) or beta < 0.0:
        raise ValueError("beta must be finite and non-negative")
    return beta


def _check_coupling(j: float) -> float:
    j = float(j)
    if not math.isfinite(j):
        raise ValueError("coupling must be finite")
    return j


def investment_q2(beta: float, j0: float, j1: float) -> float:
    """Exact q = 2 curve for arbitrary couplings (j0, j1), levels (0, 1).

    With u = exp(-beta j0), v = exp(-beta j1) and Theta = (u - v)^2 + 4:

        l = [v + (2 + v^2 - u v) / sqrt(Theta)] / [u + v + sqrt(Theta)]

    evaluated after dividing through by m = max(u, v, 1) so no intermediate
    exceeds exp(beta * max(|j0|, |j1|)).  Equal couplings give exactly 1/2
    at every beta.  The value always lies in [0, 1].
    """
    beta = _check_beta(beta)
    j0 = _check_coupling(j0)
    j1 = _check_coupling(j1)
    lu = -beta * j0
    lv = -beta * j1
    lm = max(lu, lv, 0.0)
    a = math.exp(lu - lm)
    b = math.exp(lv - lm)
    inv_m = math.exp(-lm)
    r = math.hypot(a - b, 2.0 * inv_m)
    num = b + (b * (b - a) + 2.0 * inv_m * inv_m) / r
    den = a + b + r
    return min(1.0, max(0.0, num / den))


def _q3_kernel(beta: float, j: float, direct, reciprocal) -> float:
    """Evaluate a q = 3 radical formula on whichever side of j = 0 is bounded."""
    beta = _check_beta(beta)
    j = _check_coupling(j)
    if j >= 0.0:
        x = math.exp(-beta * j)  # in (0, 1]
        return direct(x)
    t = math.exp(beta * j)  # exp(-beta |j|), in (0, 1)
    return reciprocal(t)


def investment_q3_case1(beta: float, j: float) -> float:
    """Exact q = 3 curve for couplings (0, 0, j): only top-level agreement interacts.

    With x = exp(-beta j):

        l = [1 + 2x + (12 - 5x + 2x^2) / sqrt(12 - 4x + x^2)]
            / [2 + x + sqrt(12 - 4x + x^2)]

    For j < 0 the same expression is evaluated in t = 1/x to stay bounded.
    Starts at 1, tends to 2 for j < 0 and to (1 + sqrt 12) / (2 + sqrt 12)
    for j > 0.  The value always lies in [0, 2].
    """

    def direct(x: float) -> float:
        root = math.sqrt(12.0 - 4.0 * x + x * x)
        num = 1.0 + 2.0 * x + (12.0 - 5.0 * x + 2.0 * x * x) / root
        return num / (2.0 + x + root)

    def reciprocal(t: float) -> float:
        root = math.sqrt(12.0 * t * t - 4.0 * t + 1.0)
        num = t + 2.0 + (12.0 * t * t - 5.0 * t + 2.0) / root
        return num / (1.0 + 2.0 * t + root)

    return min(2.0, max(0.0, _q3_kernel(beta, j, direct, reciprocal)))


def investment_q3_case2(beta: float, j: float) -> float:
    """Exact q = 3 curve for couplings (0, j, 0): identically 1 for every beta and j."""
    _check_beta(beta)
    _check_coupling(j)
    return 1.0


def investment_q3_case3(beta: float, j: float) -> float:
    """Exact q = 3 curve for couplings (j, 0, 0): only bottom-level agreement interacts.

    With x = exp(-beta j):

        l = [3 + (12 - 3x) / sqrt(12 - 4x + x^2)] / [x + 2 + sqrt(12 - 4x + x^2)]

    For j < 0 the expression is evaluated in t = 1/x.  Starts at 1, tends
    to 0 for j < 0 and to (3 + sqrt 12) / (2 + sqrt 12) for j > 0.  The
    value always lies in [0, 2].
    """

    def direct(x: float) -> float:
        root = math.sqrt(12.0 - 4.0 * x + x * x)
        num = 3.0 + (12.0 - 3.0 * x) / root
        return num / (x + 2.0 + root)

    def reciprocal(t: float) -> float:
        root = math.sqrt(12.0 * t * t - 4.0 * t + 1.0)
        num = t * (3.0 + (12.0 * t - 3.0) / root)
        return num / (1.0 + 2.0 * t + root)

    return min(2.0, max(0.0, _q3_kernel(beta, j, direct, reciprocal)))


def investment_at_beta_infinity(params: ModelParams) -> float:
    """Exact limit of l(beta) as beta -> infinity, for any coupling vector.

    As beta grows every secular gap Delta_a of :mod:`.transfer` tends to 0,
    1 or infinity, so the limit depends only on the sign of J_min = min J:

    - J_min < 0: the mean level over the levels T attaining J_min (mu -> |T|);
    - J_min > 0: every gap closes, leaving the plain level mean;
    - J_min = 0: with z zero-coupling levels Z and the rest R, mu is the
      positive root of z / mu + (q - z) / (mu + 1) = 1, and the dominant
      eigenvector weighs Z by (mu + 1)^2 against mu^2 on R.

    Each weight multiplies a correctly rounded (fsum) level sum, so a
    symmetric case such as couplings (3, 1, 0, 2, 4) gives exactly 2.0.
    """
    j = params.couplings.values
    lev = params.levels
    lowest = min(j)
    if lowest > 0.0:
        return math.fsum(lev) / params.q
    tied = [d for d, v in zip(lev, j) if v == lowest]
    if lowest < 0.0:
        return math.fsum(tied) / len(tied)
    z, q = len(tied), params.q
    mu = 0.5 * ((q - 1) + math.sqrt((q - 1) ** 2 + 4 * z))
    on_zero, off_zero = (mu + 1.0) ** 2, mu * mu
    rest = math.fsum(d for d, v in zip(lev, j) if v != lowest)
    num = math.fsum((on_zero * math.fsum(tied), off_zero * rest))
    return num / math.fsum((z * on_zero, (q - z) * off_zero))


@dataclass(frozen=True)
class LimitClassification:
    """Endpoint summary of an investment curve.

    ``beta_zero`` is the exact beta = 0 value, the plain mean of the levels.
    ``beta_infinity`` is :func:`investment_at_beta_infinity` when the
    coupling minimum is unique, else None.  ``unique_min`` records whether
    the coupling minimum is attained exactly once.
    """

    beta_zero: float
    beta_infinity: float | None
    unique_min: bool


def classify_limits(params: ModelParams) -> LimitClassification:
    """Classify the beta = 0 and beta -> infinity endpoints for the given model."""
    beta_zero = math.fsum(params.levels) / params.q
    if params.couplings.unique_min_index() is None:
        return LimitClassification(beta_zero=beta_zero, beta_infinity=None, unique_min=False)
    return LimitClassification(
        beta_zero=beta_zero,
        beta_infinity=investment_at_beta_infinity(params),
        unique_min=True,
    )
