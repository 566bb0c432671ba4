"""Closed-form per-capita investment curves for the integrable small-q cases.

For q = 2 (levels 0, 1) and three coupling patterns at q = 3 the dominant
transfer-matrix eigenvalue is an explicit radical, so the investment curve

    l(beta) = -(1 / beta) * (d lambda_1 / dD) / lambda_1   at D = 0

has an exact expression.  Each formula below is evaluated in exp(-beta J)
and 1, both divided by m = max(exp(-beta J), 1), the scaling that
:func:`investment_q2` applies to its two couplings.  The scaled values lie
in [0, 1] and are formed from their exponents, so none overflows whatever
the sign of J, and one expression covers both signs.  That scaling is also
the one place the curves check their inputs: beta finite and
non-negative, each coupling finite.

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


def _scaled(beta: float, *couplings: float) -> list[float]:
    """exp(-beta J) for each coupling, then 1, each divided by m, the largest of them.

    Formed from the exponents, so every value lies in [0, 1] and none
    overflows; the largest is exactly 1, even when beta J overflows.  The
    one check of every closed form's inputs: beta must be finite and
    non-negative, and each coupling finite, else ValueError.
    """
    beta = float(beta)
    if not math.isfinite(beta) or beta < 0.0:
        raise ValueError("beta must be finite and non-negative")
    couplings = [float(j) for j in couplings]
    if not all(math.isfinite(j) for j in couplings):
        raise ValueError("coupling must be finite")
    logs = [-beta * j for j in couplings] + [0.0]
    top = max(logs)
    return [math.exp(v - top) if v < top else 1.0 for v in logs]


def investment_q2(beta: float, j0: float, j1: float) -> float:
    """Exact q = 2 curve for arbitrary couplings (j0, j1), levels (0, 1).

    With u = exp(-beta j0), v = exp(-beta j1) and Theta = (u - v)^2 + 4:

        l = [v + (2 + v^2 - u v) / sqrt(Theta)] / [u + v + sqrt(Theta)]

    evaluated after dividing through by m = max(u, v, 1) so no intermediate
    exceeds exp(beta * max(|j0|, |j1|)).  Equal couplings give exactly 1/2
    at every beta: u = v reduces l to that, and is returned as such, since
    once beta |j0| passes about 745 the scaled 1 / m underflows and Theta
    with it.  The value always lies in [0, 1].
    """
    a, b, inv_m = _scaled(beta, j0, j1)
    if a == b:
        return 0.5
    r = math.hypot(a - b, 2.0 * inv_m)
    num = b + (b * (b - a) + 2.0 * inv_m * inv_m) / r
    den = a + b + r
    return min(1.0, max(0.0, num / den))


def investment_q3_case1(beta: float, j: float) -> float:
    """Exact q = 3 curve for couplings (0, 0, j): only top-level agreement interacts.

    With x = exp(-beta j):

        l = [1 + 2x + (12 - 5x + 2x^2) / sqrt(12 - 4x + x^2)]
            / [2 + x + sqrt(12 - 4x + x^2)]

    evaluated in a = x / m and i = 1 / m with m = max(x, 1), as
    [i + 2a + (12i^2 - 5ai + 2a^2) / r] / [2i + a + r] with
    r = sqrt(12i^2 - 4ai + a^2).  Starts at 1, tends to 2 for j < 0 and to
    (1 + sqrt 12) / (2 + sqrt 12) for j > 0.  The value always lies in [0, 2].
    """
    a, i = _scaled(beta, j)
    root = math.sqrt(12.0 * i * i - 4.0 * a * i + a * a)
    num = i + 2.0 * a + (12.0 * i * i - 5.0 * a * i + 2.0 * a * a) / root
    return min(2.0, max(0.0, num / (2.0 * i + a + root)))


def investment_q3_case2(beta: float, j: float) -> float:
    """Exact q = 3 curve for couplings (0, j, 0): identically 1 for every beta and j."""
    _scaled(beta, j)
    return 1.0


def investment_q3_case3(beta: float, j: float) -> float:
    """Exact q = 3 curve for couplings (j, 0, 0): only bottom-level agreement interacts.

    With x = exp(-beta j):

        l = [3 + (12 - 3x) / sqrt(12 - 4x + x^2)] / [x + 2 + sqrt(12 - 4x + x^2)]

    evaluated in a = x / m and i = 1 / m with m = max(x, 1), as
    i [3 + (12i - 3a) / r] / [a + 2i + r] with r = sqrt(12i^2 - 4ai + a^2).
    Starts at 1, tends to 0 for j < 0 and to (3 + sqrt 12) / (2 + sqrt 12)
    for j > 0.  The value always lies in [0, 2].
    """
    a, i = _scaled(beta, j)
    root = math.sqrt(12.0 * i * i - 4.0 * a * i + a * a)
    num = i * (3.0 + (12.0 * i - 3.0 * a) / root)
    return min(2.0, max(0.0, num / (a + 2.0 * i + root)))


def _limit_and_law(params: ModelParams) -> tuple[float, str]:
    """:func:`investment_at_beta_infinity` and the name of the law that gave it."""
    if params.field != 0.0:
        raise ValueError(f"l(beta -> infinity) is the zero-bias law; field={params.field!r}")
    j = params.couplings.values
    lev = params.levels
    lowest = min(j)
    if lowest > 0.0:
        return math.fsum(lev) / params.q, "coupling minimum above 0: mean of all levels"
    at = [k for k, v in enumerate(j) if v == lowest]
    where = ", ".join(map(str, at))
    tied = [lev[k] for k in at]
    if lowest < 0.0:
        law = f"coupling minimum below 0 at levels {where}: their mean"
        if len(at) == 1:
            law = f"unique coupling minimum at level {where}"
        return math.fsum(tied) / len(tied), law
    z, q = len(tied), params.q
    mu = 0.5 * ((q - 1) + math.sqrt((q - 1) ** 2 + 4 * z))
    on_zero, off_zero = (mu + 1.0) ** 2, mu * mu
    rest = math.fsum(d for d, v in zip(lev, j) if v != lowest)
    num = math.fsum((on_zero * math.fsum(tied), off_zero * rest))
    law = f"coupling minimum 0 at level{'s' if z > 1 else ''} {where}: root law"
    return num / math.fsum((z * on_zero, (q - z) * off_zero)), law


def investment_at_beta_infinity(params: ModelParams) -> float:
    """Exact limit of l(beta) as beta -> infinity at zero bias, for any coupling vector.

    As beta grows every secular gap Delta_a of :mod:`.transfer` tends to 0,
    1 or infinity, so the limit depends only on the sign of J_min = min J:

    - J_min < 0: the mean level over the levels T attaining J_min (mu -> |T|);
    - J_min > 0: every gap closes, leaving the plain level mean;
    - J_min = 0: with z zero-coupling levels Z and the rest R, mu is the
      positive root of z / mu + (q - z) / (mu + 1) = 1, and the dominant
      eigenvector weighs Z by (mu + 1)^2 against mu^2 on R.

    Each weight multiplies a correctly rounded (fsum) level sum, so a
    symmetric case such as couplings (3, 1, 0, 2, 4) gives exactly 2.0.
    A nonzero bias moves the limit, so ``field != 0`` raises ValueError.
    """
    return _limit_and_law(params)[0]


@dataclass(frozen=True)
class LimitClassification:
    """Endpoint summary of an investment curve.

    ``beta_zero`` is the exact beta = 0 value, the plain mean of the levels.
    ``beta_infinity`` is :func:`investment_at_beta_infinity`, and ``law``
    names the case of it that applied, with the levels at the coupling
    minimum.  ``unique_min`` records whether the coupling minimum is
    attained exactly once.
    """

    beta_zero: float
    beta_infinity: float
    unique_min: bool
    law: str


def classify_limits(params: ModelParams) -> LimitClassification:
    """Classify the beta = 0 and beta -> infinity endpoints of a zero-bias model.

    Raises ValueError when ``field != 0``, as :func:`investment_at_beta_infinity` does.
    """
    beta_infinity, law = _limit_and_law(params)
    return LimitClassification(
        beta_zero=math.fsum(params.levels) / params.q,
        beta_infinity=beta_infinity,
        unique_min=params.couplings.unique_min_index() is not None,
        law=law,
    )
