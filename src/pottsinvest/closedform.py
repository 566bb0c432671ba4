"""Closed-form per-capita investment curves: one two-class law for any q.

At zero bias the transfer matrix is diag(c) + 1 1^T with
c_a = exp(-beta J(a)) - 1, and the dominant eigenvector is
v_a proportional to 1 / (mu + Delta_a), with mu the root of the secular
equation sum_a 1 / (mu + Delta_a) = 1 (:mod:`.transfer`).  When the
couplings take two values, J_A on a set A of k levels and J_B > J_A on the
other q - k, every gap is 0 on A and

    Delta = exp(-beta J_A) (1 - exp(-beta (J_B - J_A)))

on the rest, so the secular equation k / mu + (q - k) / (mu + Delta) = 1 is
the quadratic mu^2 + (Delta - q) mu - k Delta = 0, and by Hellmann-Feynman

    l = (S_A (mu + Delta)^2 + S_B mu^2) / (k (mu + Delta)^2 + (q - k) mu^2)

with S_A and S_B the (fsum) level sums of A and of the rest.  A single
class, or Delta = 0, gives the plain level mean.  The root is taken in its
stable form, in units of Delta once Delta passes q, so nothing cancels or
overflows.  The paper's q = 2 curve and its three integrable q = 3 patterns
are instances, and so is every beta -> infinity endpoint: there each gap
tends to infinity, 1 or 0 by the sign of the coupling minimum, which makes
A the levels attaining it.  The curves check their inputs: beta finite and
non-negative, each coupling finite, and at most two distinct values.

The large-beta endpoints of the two non-trivial q = 3 curves are exposed as
exact constants, and :func:`investment_at_beta_infinity` gives the
large-beta endpoint of any coupling vector.
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


def _law(levels, on_a):
    """The two-class law for the levels in A (``on_a`` true) and the rest.

    Returns law(delta), l at the gap Delta = delta in [0, q], and
    law(w, inverse=True), l at Delta = 1 / w >= q, where w = 0 is
    Delta = infinity.  The first solves mu^2 + (Delta - q) mu - k Delta = 0;
    the second the same quadratic in units of Delta, m^2 + (1 - q w) m - k w
    = 0 with m = mu / Delta, from the root's form that does not cancel.
    Both weigh the two level sums by (mu + Delta)^2 and mu^2, and clamp to
    the two class means, between which l lies.
    """
    q, k = len(levels), on_a.count(True)
    s_a = math.fsum(d for d, a in zip(levels, on_a) if a)
    s_b = math.fsum(d for d, a in zip(levels, on_a) if not a)
    mean = math.fsum(levels) / q
    lo, hi = sorted((s_a / k, s_b / (q - k))) if k < q else (mean, mean)

    def law(delta: float, inverse: bool = False) -> float:
        if inverse:
            h = 1.0 - q * delta
            mu = 2.0 * k * delta / (h + math.sqrt(h * h + 4.0 * k * delta))
            nu = mu + 1.0
        elif delta:
            b = q - delta
            mu = 0.5 * (b + math.sqrt(b * b + 4.0 * k * delta))
            nu = mu + delta
        else:
            return mean
        on, off = nu * nu, mu * mu
        return min(hi, max(lo, (s_a * on + s_b * off) / (k * on + (q - k) * off)))

    return law


def _two_class_curve(levels, couplings):
    """beta -> l(beta) at zero bias for couplings taking at most two values, any q.

    Three or more distinct values, a non-finite coupling or a coupling
    spread J_B - J_A that overflows raise ValueError; so does a beta that is
    not finite and non-negative, at each call.
    """
    j = [float(v) for v in couplings]
    if not all(map(math.isfinite, j)):
        raise ValueError("coupling must be finite")
    values = sorted(set(j))
    if len(values) > 2:
        raise ValueError(
            f"no closed form for couplings with {len(values)} distinct values; "
            "the two-class law needs at most two"
        )
    j_a, spread = values[0], values[-1] - values[0]
    if not math.isfinite(spread):
        raise ValueError("coupling spread J_max - J_min overflows")
    law, q = _law(levels, [v == j_a for v in j]), len(j)

    def curve(beta: float) -> float:
        if not 0.0 <= beta < math.inf:
            raise ValueError("beta must be finite and non-negative")
        x = -beta * j_a
        e = -math.expm1(-beta * spread)
        # Past x = 709 exp(x) overflows; there the spread is at least
        # 2^-54 |J_A|, so e > 3e-14 and Delta > q: the clamp only picks the branch.
        delta = math.exp(min(x, 709.0)) * e
        if delta <= q:
            return law(delta)
        return law(math.exp(-x) / e, inverse=True)

    return curve


def investment_q2(beta: float, j0: float, j1: float) -> float:
    """Exact q = 2 curve for arbitrary couplings (j0, j1), levels (0, 1).

    The two-class law with k = 1.  Equal couplings give exactly 1/2 at every
    beta, and the value always lies in [0, 1].
    """
    return _two_class_curve((0.0, 1.0), (j0, j1))(beta)


def investment_q3_case1(beta: float, j: float) -> float:
    """Exact q = 3 curve for couplings (0, 0, j): only top-level agreement interacts.

    Starts at 1, tends to 2 for j < 0 and to (1 + sqrt 12) / (2 + sqrt 12)
    for j > 0.  The value always lies in [0, 2].
    """
    return _two_class_curve((0.0, 1.0, 2.0), (0.0, 0.0, j))(beta)


def investment_q3_case2(beta: float, j: float) -> float:
    """Exact q = 3 curve for couplings (0, j, 0): identically 1 for every beta and j.

    Both classes have level mean 1, so the law's clamp pins it there.
    """
    return _two_class_curve((0.0, 1.0, 2.0), (0.0, j, 0.0))(beta)


def investment_q3_case3(beta: float, j: float) -> float:
    """Exact q = 3 curve for couplings (j, 0, 0): only bottom-level agreement interacts.

    Starts at 1, tends to 0 for j < 0 and to (3 + sqrt 12) / (2 + sqrt 12)
    for j > 0.  The value always lies in [0, 2].
    """
    return _two_class_curve((0.0, 1.0, 2.0), (j, 0.0, 0.0))(beta)


def _limit_and_law(params: ModelParams) -> tuple[float, str]:
    """:func:`investment_at_beta_infinity` and the name of the law that gave it."""
    if params.field != 0.0:
        raise ValueError(f"l(beta -> infinity) is the zero-bias law; field={params.field!r}")
    j = params.couplings.values
    lowest = min(j)
    law = _law(params.levels, [v == lowest for v in j])
    if lowest > 0.0:
        return law(0.0), "coupling minimum above 0: mean of all levels"
    at = [k for k, v in enumerate(j) if v == lowest]
    where = ", ".join(map(str, at))
    if lowest < 0.0:
        text = f"coupling minimum below 0 at levels {where}: their mean"
        if len(at) == 1:
            text = f"unique coupling minimum at level {where}"
        return law(0.0, inverse=True), text
    return law(1.0), f"coupling minimum 0 at level{'s' if len(at) > 1 else ''} {where}: root law"


def investment_at_beta_infinity(params: ModelParams) -> float:
    """Exact limit of l(beta) as beta -> infinity at zero bias, for any coupling vector.

    As beta grows every gap of a level outside the set T attaining
    J_min = min J tends to infinity, 1 or 0 by the sign of J_min, and the
    gaps on T are 0, so the limit is the two-class law with A = T:

    - J_min < 0: Delta -> infinity, the mean level over T (mu -> |T|);
    - J_min > 0: Delta -> 0, every gap closes, leaving the plain level mean;
    - J_min = 0: Delta -> 1, mu is the positive root of
      |T| / mu + (q - |T|) / (mu + 1) = 1, and the dominant eigenvector
      weighs T by (mu + 1)^2 against mu^2 on the rest.

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
