"""Reference implementations the tests check the library against.

Each is written for reading, not speed, and shares no code with the
package beyond the parameter types: the energy of one configuration, the
dense transfer matrix, the pinned random generator, the secular equation
(l and log lambda_1) and its zero-bias gaps in decimal arithmetic, and a
second enumeration of the Gibbs average.
"""

import functools
import itertools
import math
from decimal import Decimal, localcontext

import numpy as np

_MASK64 = (1 << 64) - 1


def energy(sites, params):
    """Ring energy: equal-neighbour couplings plus the bias times the invested total.

    H = sum_i J(sigma_i) [sigma_i == sigma_{i+1}] + D sum_i d(sigma_i), the
    index wrapping around the ring, each sum exactly rounded.
    """
    n = len(sites)
    bond = math.fsum(
        params.couplings.values[sites[i]] for i in range(n) if sites[i] == sites[(i + 1) % n]
    )
    return bond + params.field * math.fsum(params.levels[s] for s in sites)


def dense_matrix(params, exact_exponents=False):
    """(entries, log_scale): the transfer matrix is entries * exp(log_scale).

    M[a][b] = exp(-beta (J(a) [a == b] + D (d_a + d_b) / 2)), scaled by its
    largest raw exponent so that the largest entry is exactly 1.  Raises
    ValueError where an exponent overflows.

    Float exponents are off by up to 2^-53 times their size, and so are the
    entries.  That moves eigenvalues by a relative 2^-53 |x|, but near a tie
    it turns the dominant eigenvector further than one rounding of each
    entry would: at couplings (-2, 0, -3), beta = 10^0.96875 and D = 1/2,
    where the bias ties levels 0 and 2, eigh's l was 2.3e-5 off at a
    relative gap of 1.6e-10.  ``exact_exponents`` forms the exponents in
    decimal arithmetic on the exact float inputs instead, so that each entry
    is its exact value rounded once, at far greater cost.
    """
    lev = np.asarray(params.levels)
    with np.errstate(over="ignore", invalid="ignore"):
        bj = params.beta * np.asarray(params.couplings.values)
        bf = params.beta * params.field
        # lev[a] + lev[b] is bitwise symmetric, so x and exp(x - s) are
        # exactly symmetric matrices.
        x = -(0.5 * bf) * (lev[:, None] + lev[None, :]) - np.diag(bj)
    if not np.isfinite(x).all():
        raise ValueError("transfer-matrix exponents overflow")
    if not exact_exponents:
        s = float(x.max())
        return np.exp(x - s), s
    beta, field = Decimal(params.beta), Decimal(params.field)
    levels = [Decimal(v) for v in params.levels]
    with localcontext() as ctx:
        ctx.prec = 40 + len(str(int(np.abs(x).max())))
        exact = [
            [-beta * (field * (da + db) / 2 + (Decimal(j) if a == b else 0))
             for b, db in enumerate(levels)]
            for a, (da, j) in enumerate(zip(levels, params.couplings.values))
        ]
        s = max(map(max, exact))
        # Entries off the diagonal repeat along each level sum d_a + d_b.
        rounded_exp = functools.cache(lambda y: float(y.exp()) if y > -800 else 0.0)
        entries = [[rounded_exp(xab - s) for xab in row] for row in exact]
    return np.array(entries), float(s)


class SplitMix64:
    """The random profile's 64-bit generator, one Python-int draw at a time."""

    def __init__(self, seed):
        self._state = int(seed) & _MASK64

    def next_uint64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self):
        """Uniform draw on [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0**-53


def secular_oracle(params):
    """l(beta, D) of :func:`secular_solution`."""
    return secular_solution(params)[0]


def secular_solution(params):
    """(l, log lambda_1) at (beta, D) from the secular equation in decimal arithmetic.

    The arithmetic runs on the exact float inputs.  M = diag(e) + s s^T
    with c_a = s_a^2 = exp(-beta D d_a) and e_a = exp(-beta (J(a) + D
    d_a)) - c_a, so lambda_1 = e_max + nu with nu > 0
    the root of sum_a c_a / (nu + Delta_a) = 1, Delta_a = e_max - e_a, and
    l = sum_a d_a c_a w_a^2 / sum_a c_a w_a^2 with w_a = 1 / (nu + Delta_a),
    and log lambda_1 = log(e_max + nu) comes from the same root.  The sum
    is at least 1 at nu = c_m, where Delta_m = 0, and at most 1 at nu =
    sum_a c_a, so the root lies between them; bisection in log nu
    narrows that bracket to a factor of 2, then Newton runs on the
    reciprocal of the sum from its lower end, where the sum is still at
    least 1, so it climbs to the root from below.  Every float converts to
    Decimal exactly, and 40 digits plus the entries' exponent span in
    decades keep each gap Delta_a to far more digits than a float holds,
    however close e_a is to e_max.
    """
    y_float = -params.beta * params.field * np.array(params.levels)
    x_float = y_float - params.beta * np.array(params.couplings.values)
    span = max(x_float.max(), y_float.max()) - min(x_float.min(), y_float.min())
    beta, field = Decimal(params.beta), Decimal(params.field)
    levels = [Decimal(v) for v in params.levels]
    with localcontext() as ctx:
        ctx.prec = 40 + int(span / math.log(10.0))
        y = [-beta * field * d for d in levels]
        x = [ya - beta * Decimal(j) for ya, j in zip(y, params.couplings.values)]
        c = [ya.exp() for ya in y]
        e = [xa.exp() - ca for xa, ca in zip(x, c)]
        e_max = max(e)
        delta = [e_max - ea for ea in e]
        lo, hi = c[delta.index(0)], sum(c)
        while hi > 2 * lo:
            mid = (lo * hi).sqrt()
            if sum(ca / (mid + da) for ca, da in zip(c, delta)) >= 1:
                lo = mid
            else:
                hi = mid
        nu = lo
        tol = Decimal(10) ** (10 - ctx.prec)
        for _ in range(1000):
            w = [1 / (nu + da) for da in delta]
            s1 = sum(ca * wa for ca, wa in zip(c, w))
            s2 = sum(ca * wa * wa for ca, wa in zip(c, w))
            step = (s1 - 1) * s1 / s2
            nu += step
            if step <= tol * nu:
                break
        else:
            raise AssertionError("decimal Newton did not settle")
        weights = [ca / (nu + da) ** 2 for ca, da in zip(c, delta)]
        l = sum(d * wa for d, wa in zip(levels, weights)) / sum(weights)
        return float(l), float((e_max + nu).ln())


def zero_bias_gap(x_max, dx):
    """exp(x_max) (1 - exp(dx)), a zero-bias secular gap, in 60-digit decimal arithmetic.

    x_max and dx are floats, converted to Decimal exactly, and the result
    is returned as a Decimal, so a test can measure a float gap's error in
    ulps of the exact value.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        return Decimal(x_max).exp() * (1 - Decimal(dx).exp())


def reference_expected_investment(params, n):
    """Second, independent enumeration: pure Python, reversed visit order."""
    weighted = []
    weights = []
    for sites in reversed(list(itertools.product(range(params.q), repeat=n))):
        total = sum(params.levels[s] for s in sites)
        w = math.exp(-params.beta * energy(sites, params))
        weights.append(w)
        weighted.append(total * w)
    return math.fsum(weighted) / (math.fsum(weights) * n)
