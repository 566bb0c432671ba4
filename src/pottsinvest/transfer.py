"""Field-dependent transfer matrix, its dominant eigenpair and log Z_N.

The ring partition sum factorises through a symmetric q x q matrix M with

    M[a][b] = exp(-beta * (J(a) * [a == b] + D * (d_a + d_b) / 2))

so that Z_N = Tr M^N = sum_i lambda_i^N.  Raw entries overflow double
precision quickly (strongly negative couplings with beta of a few hundred
push exponents past 700), so every route works from the exponents and
scales the matrix by exp(t), its largest entry up to rounding, which is
carried separately; every spectral quantity is reported either rescaled or
in log space.  The scale and the secular gaps share one anchor, the level
whose diagonal entry is largest in exact arithmetic, so two uniform states
of equal energy J(a) + D d_a stay tied in both.

At any bias M = diag(e) + s s^T with s_a = exp(-beta D d_a / 2) and e_a =
s_a^2 (exp(-beta J(a)) - 1), a rank-one update of a diagonal matrix, so
its dominant eigenpair is the largest root of a scalar secular equation
with weights s_a^2 (Golub, SIAM Rev. 15, 1973) and never needs the matrix
itself.  That one solve gives log lambda_1 and v at any bias, l(beta, D)
at D != 0 and the bias stencil of :mod:`.derivatives`, starting Newton
from a lower bound out of 2 x 2 principal submatrices, and log Z_N on long
rings, starting from the Rayleigh floor that chose that route.  At zero
bias every weight is 1, and l takes the unit-weight solve of
:func:`_secular_root`, from the gaps, start and overflow verdict of
:func:`_secular_start`, the one place the zero-bias exponents are formed
and judged: a point overflows only where -beta J_min or a gap exponent
-beta (J(a) - J_min) is not finite, and a diagonal entry below the double
range is 0.  Its Newton start is a Jensen bound on the root.  Both solves
end alike: the Newton pass that proves the root hands back v_a^2 and
sum_a v_a^2, with v the raw secular weights, unnormalised, so l, which
divides by sum_a v_a^2 anyway, evaluates nothing again (the weighted
solve takes one more pass only after a step down from a start above the
root); only
:func:`dominant_eigenvalue`, which returns v, scales it to unit length,
from the same pair.  Every sum in these O(q) solves
is a numpy reduction, not a BLAS call, so the BLAS kernel decides none of
their bits; BLAS serves only the O(q^3) matrix products of log Z's
powering route.  On log Z's path and on zero-bias l's the reductions are
called as ufunc methods (np.add.reduce for .sum()), the same loops without
the Python layer of the ndarray methods, which shows on calls that run
with cold caches.
:func:`_secular_lanes` runs the unit-weight solve on many coupling
vectors and betas at once, one contiguous row of q levels per lane, each
row summed as a single point is, and hands back every lane's v_a^2 and
sum_a v_a^2 bit for bit as the single solve does; no zero-bias solve
reads the levels, and :mod:`.derivatives` forms every l.  log Z_N
decides its route once from the same O(q) decomposition: N = 1 from the
diagonal exponents; N log lambda_1 when interlacing and a lower bound on
lambda_1 prove the rest of the spectrum below rounding, solved from that
bound; otherwise Tr M^N of the positive rescaled matrix by binary
powering, where nothing cancels.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams, _count

__all__ = [
    "ConvergenceError",
    "dominant_eigenvalue",
    "log_partition_function",
]

# Newton steps allowed for the secular equation.  At zero bias, from the
# Jensen start and counting the pass that proves the root, at most 7 were
# needed over 4,500 draws with q up to 300, beta from 1e-3 to 1e3 and tied
# or near-tied coupling minima, and at most 4 on random-profile ensembles up
# to q = 200 (3 from q = 8 to 60, 2 at q = 100 and 200).
# The weighted solve from the 2 x 2 start (dominant_eigenvalue, the bias
# stencil) took at most 9 over q up to 200, beta to 1e3 and |D| to 10, and
# 3-7 on 5,060 draws shaped like the finite_ring benchmark; log Z's
# shortcut, from its Rayleigh floor, took 2-6 on the 3,383 of those draws
# that take it, 2-5 on the benchmark's own seeds 1-10.
_NEWTON_CAP = 100
_NEWTON_RTOL = 1e-14

# log of the share of Z_N below which the subdominant eigenvalues leave
# log Z_N = N log lambda_1 to rounding.
_LOG_NEGLIGIBLE = -53.0 * math.log(2.0)

# Smallest bias weight s_a^2 the secular solve uses; far below the rounding
# of any scaled entry, it keeps every weight, and so every secular term
# and derivative, finite and nonzero.
_WEIGHT_FLOOR = 1e-300


class ConvergenceError(RuntimeError):
    """A solver ran out of iterations or of precision; carries the last residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


_OVERFLOW = "transfer-matrix exponents overflow; reduce beta*J or beta*D"

# Largest scale exponent of the zero-bias gaps; exp of it is finite.  A lane
# past it has J_min < 0, so an untied gap exponent, at least beta ulp(J_min)
# in size, is above 709 * 2^-53, and its gap, clamped, above about 6e294:
# the secular term, below 1e-294, leaves every sum as an exact gap would.  A
# 0-d array, as a Python float costs a scalar conversion on every call.
_SCALE_CAP = np.array(709.0)


def _require_finite(x: np.ndarray) -> None:
    if not np.logical_and.reduce(np.isfinite(x)):
        raise ValueError(_OVERFLOW)


def _largest(x: np.ndarray) -> float:
    """The largest entry of a vector, nan if it holds one, as max gives it.

    Read off at argmax, which on vectors of a few hundred costs a fraction
    of numpy's max reduction.
    """
    return float(x[x.argmax()])


def _secular_start(j_span, j_min, neg_beta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gaps Delta, Newton starts and overflow verdicts at zero bias, one per lane.

    The zero-bias exponents are x_max + dx, with scale x_max = -beta J_min
    and gap exponents dx = -beta (J - J_min) <= 0, formed here and nowhere
    else; dx keeps the split of a near-tie.  Delta_a = -exp(x_max)
    expm1(dx_a), formed in place in dx as :func:`_gaps` forms the biased
    gaps, C-ordered whatever layout the inputs have, is 0 on tied levels;
    x_max is clamped at ``_SCALE_CAP``, so no gap overflows and no lane
    holds a nan.  The start is mu_0 = max(1, q - mean_a Delta_a), a lower
    bound on the root by Jensen's inequality, sum_a 1 / (mu + Delta_a) >= q
    / (mu + mean Delta), and by the zero gap of the J_min level; the mean
    sums each lane's contiguous row as a single point's vector is summed.  A
    lane is finite, the one overflow verdict, when x_max and every dx_a are,
    which the largest span decides, as spans are >= 0 and never nan: a
    diagonal exponent x_max + dx_a below the double range is an entry of 0
    and does not count.  The arguments broadcast, levels on the last axis: a
    point passes J - J_min, a 1-element J_min and a float -beta; a block of
    lanes a (seeds, 1, q) span, a (seeds, 1, 1) J_min and a (betas, 1)
    column of -beta.  Starts and verdicts keep a last axis of length 1.
    """
    with np.errstate(over="ignore"):
        x_max = neg_beta * j_min
        finite = np.isfinite(neg_beta * np.maximum.reduce(j_span, axis=-1, keepdims=True))
        finite &= np.isfinite(x_max)
        delta = np.multiply(neg_beta, j_span, order="C")
        np.multiply(np.expm1(delta, out=delta), -np.exp(np.minimum(x_max, _SCALE_CAP)), out=delta)
        q = delta.shape[-1]
        mu = np.maximum(q - np.add.reduce(delta, axis=-1, keepdims=True) / q, 1.0)
    return delta, mu, finite


def _unsettled(residual: float) -> ConvergenceError:
    return ConvergenceError(
        f"secular equation did not converge in {_NEWTON_CAP} Newton steps", residual=residual
    )


def _arrays(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The couplings and levels of a model as the float arrays :func:`_rank_one` reads."""
    return np.array(params.couplings.values, dtype=float), np.array(params.levels, dtype=float)


def _rank_one(
    j: np.ndarray, lev: np.ndarray, beta: float, field: float
) -> tuple[float, float, np.ndarray, int, np.ndarray, np.ndarray, np.ndarray]:
    """t, z_max, g, m, c = s^2, z and u with M = exp(t) (diag(exp(z_max + dz) - c) + s s^T).

    With y_a = -beta D d_a and x_a = -beta J(a), M[a][b] = exp((y_a + y_b) / 2
    + x_a [a == b]), so the log diagonal is z = x + y - t, u = y - t and c =
    exp(u), all in O(q); exp(-t) M is exp(z_a) on the diagonal and exp((u_a
    + u_b) / 2) off it.  m is the level of least g_a = (J(a) - J(k)) + D (d_a
    - d_k), k at the top of x + y, and the gap exponents are dz_a = -beta
    (g_a - g_m) <= 0, so an ulp split keeps its sign; :func:`_gaps` forms
    them, on the routes that read them.  The one anchor is m: t is the
    larger of its diagonal exponent and the pair exponent of the two most
    weighted levels (y is monotone in the level), so z_max = z_m is exactly
    0 whenever a diagonal entry is on top, and the gaps and the scale agree
    on which level that is where uniform states tie.
    Weights below ``_WEIGHT_FLOOR`` are raised to it; one can exceed 1, and
    overflows only when beta |D| times the end levels' step passes 1400.
    j and lev are the couplings and levels as arrays, which are only read.
    Callers hold ``np.errstate(over="ignore", invalid="ignore")``, here and
    around :func:`_weighted_root`: an exponent that overflows is caught by
    the finiteness check instead.
    """
    bias = -(beta * field)
    y = lev * bias
    z = y - beta * j
    k = int(z.argmax())
    g = (j - j[k]) + field * (lev - lev[k])
    m = int(g.argmin())
    t = max(float(z[m]), 0.5 * float(max(y[0] + y[1], y[-1] + y[-2])))
    u = y - t
    c = np.exp(u)
    np.maximum(c, _WEIGHT_FLOOR, out=c)
    z -= t
    _require_finite(z)
    return t, float(z[m]), g, m, c, z, u


def _gaps(g: np.ndarray, m: int, beta: float, z_max: float) -> tuple[float, np.ndarray]:
    """top = exp(z_max) and the gaps Delta_a = top (1 - exp(dz_a)) of :func:`_rank_one`'s g and m.

    The gaps are formed in place in g.  top <= 1, so no gap overflows, and a
    gap is 0 exactly where g_a = g_m.
    """
    top = math.exp(z_max)
    g -= g[m]
    g *= -beta
    return top, np.multiply(np.expm1(g, out=g), -top, out=g)


def _secular_root(j_span, j_min, neg_beta) -> tuple[np.ndarray, float]:
    """w_a^2 and S2 = sum_a w_a^2 at the root mu of sum_a w_a = 1, w_a = 1 / (mu + Delta_a).

    This is the zero-bias solve of one point, from the gaps, start and
    overflow verdict of :func:`_secular_start` on its arguments, with every
    s_a = 1, written for mu = nu + 1: mu is the root in [1, q], the start
    is the Jensen bound, and the dominant eigenvector is v = w,
    unnormalised; a gap formed at the clamped scale adds a term below
    1e-294, which no sum keeps.  A point that is not finite raises
    ValueError.  Newton runs on the reciprocal h(mu) = 1 / S1 with S1 =
    sum_a w_a, whose root h = 1 is the same (Moré & Sorensen, SIAM J. Sci.
    Stat. Comput. 4, 1983): the step is (S1 - 1) S1 / S2.  h is a scaled
    harmonic mean of the denominators, so it is concave and increasing, and
    Newton from a start where h <= 1 increases monotonically to the root
    without overshooting; being nearly linear it needs only a few steps.
    The pass whose step is at most 1e-14 mu proves convergence and ends the
    solve without adding that step, so l reads its w^2 and S2 and nothing
    is evaluated again; a start that rounding puts a few ulps above the
    root takes a step below 0 and ends there.  Raises
    :class:`ConvergenceError` if it has not settled within a fixed step
    cap.
    """
    delta, mu, finite = _secular_start(j_span, j_min, neg_beta)
    if not finite[0]:
        raise ValueError(_OVERFLOW)
    mu = float(mu[0])
    for _ in range(_NEWTON_CAP):
        w = 1.0 / (mu + delta)
        ww = w * w
        s1, s2 = float(np.add.reduce(w)), float(np.add.reduce(ww))
        step = (s1 - 1.0) * s1 / s2
        if step <= _NEWTON_RTOL * mu:
            return ww, s2
        mu += step
    raise _unsettled(step)


def _lower_bound(delta: np.ndarray, c: np.ndarray, top: float) -> float:
    """A lower bound on nu, :func:`_biased_pair`'s Newton start, from 2 x 2 principal submatrices.

    lambda_1 is at least the largest scaled entry, 1, and at least the top
    eigenvalue of the submatrix on a level m at the top of the diagonal and
    any level b, which exceeds the diagonal entry at m by s / (r + sqrt(r^2
    + 1)) with s = s_m s_b and r = Delta_b / (2 s), and by s on a tie.  In
    this form nothing overflows, and s stays at least the weight floor where
    c_m c_b would underflow.  Without that bound a tiny c_m puts a near-pole
    just below nu = 0, and Newton would climb from it by doubling its step.
    m is the most weighted level with a zero gap, whose pairs bound nu best.
    As :func:`_rank_one` takes t and the gaps from one level, top is exactly
    1 where a diagonal entry is on top, so the bound 1 - top is 0 there.
    """
    m = int(np.where(delta == 0.0, c, 0.0).argmax())
    s = math.sqrt(c[m]) * np.sqrt(c)
    r = delta / (2.0 * s)
    pair = s / (r + np.hypot(r, 1.0))
    pair[m] = 0.0
    return max(1.0 - top, _largest(pair))


def _weighted_root(
    nu: float, top: float, delta: np.ndarray, c: np.ndarray
) -> tuple[float, float, int, np.ndarray, float]:
    """log(lambda_1) - t, root nu, Newton steps, v^2 and sum_a v_a^2 from a start nu <= the root.

    lambda_1 = exp(t) (top + nu), top = exp(z_max), with nu >= 0 the root
    of sum_a c_a / (nu + Delta_a + c_a) = 1 and the gaps Delta of
    :func:`_gaps`.  Every denominator is a sum of non-negative terms, so
    nothing cancels however large a weight is against lambda_1.  Newton
    runs on the reciprocal as :func:`_secular_root` does: the step is (S1 -
    1) S1 / S2 with S1 = sum c w and S2 = sum c w^2, w_a = 1 / (nu + Delta_a
    + c_a), both summed in one reduction over the rows of a C-ordered (2, q)
    buffer, each row as numpy sums a single vector.  A term c_m w_m can lie
    so close to 1 that rounding hides how it moves with nu, as when c_m is
    far above nu + Delta_m; S1 - 1 therefore takes the largest term as c_m
    w_m - 1 = -(nu + Delta_m) w_m, which cancels nothing.  From a start
    where the sum is at least 1 the steps climb to the root without
    overshooting; a start that rounding puts above it (by up to 4.5e-13
    relative, for the 2 x 2 start) takes one step down, which ends the
    loop.  The step that ends the loop is still added to nu, but v^2 = c
    w^2, the unnormalised dominant eigenvector v_a = s_a w_a squared, and
    S2 are those of the pass that proved the root, so nothing is evaluated
    again.  A step down of more than 1e-14 nu shows that pass was the
    start's, not the root's, so one more pass forms them at the final nu;
    a smaller one, as rounding leaves at the end of a climb, does not.
    :func:`_biased_pair` starts from :func:`_lower_bound` and settled in
    3-7 steps on draws shaped like the ``finite_ring`` benchmark; the
    shortcut of :func:`log_partition_function` starts from L - top, with L
    its Rayleigh floor, where every denominator is L - e_a > 0, and
    settled in 2-6 (a mean of 2.6 at seeds 1-3, against 3.96 from the 2 x
    2 start).  lambda_1 is at least every diagonal entry, so a root that
    rounding puts below 0 is 0.
    """
    gap = delta + c
    w, cw, cww = work = np.empty((3, len(gap)))
    pair = work[1:]
    for steps in range(1, _NEWTON_CAP + 1):
        np.divide(1.0, np.add(gap, nu, out=w), out=w)
        np.multiply(c, w, out=cw)
        np.multiply(cw, w, out=cww)
        m = int(cw.argmax())
        cw[m] = -(nu + delta[m]) * w[m]
        excess, s2 = np.add.reduce(pair, axis=-1).tolist()
        step = excess * (excess + 1.0) / s2
        nu += step
        if step <= _NEWTON_RTOL * nu:
            break
    else:
        raise _unsettled(step)
    nu = max(nu, 0.0)
    if step < -_NEWTON_RTOL * nu:
        w = 1.0 / (gap + nu)
        cww = c * w * w
        s2 = float(np.add.reduce(cww))
    return math.log(top + nu), nu, steps, cww, s2


def _biased_pair(
    j: np.ndarray, lev: np.ndarray, beta: float, field: float
) -> tuple[float, np.ndarray, float]:
    """(log lambda_1, v^2, sum_a v_a^2) at bias ``field`` from the arrays :func:`_rank_one` reads.

    v_a = s_a / (nu + Delta_a + c_a) is the dominant eigenvector
    unnormalised, squared as :func:`_weighted_root`'s last pass holds it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        t, z_max, g, m, c, _, _ = _rank_one(j, lev, beta, field)
        _require_finite(c)
        top, delta = _gaps(g, m, beta, z_max)
        log_top, _, _, v2, s2 = _weighted_root(_lower_bound(delta, c, top), top, delta, c)
    return t + log_top, v2, s2


def dominant_eigenvalue(params: ModelParams) -> tuple[float, np.ndarray]:
    """Dominant eigenpair of the transfer matrix at any bias, from its secular equation.

    Returns (log lambda_1, v) with v the unit, entrywise positive dominant
    eigenvector.  M = exp(t) (diag(exp(z_max + dz) - c) + s s^T) (see
    :func:`_rank_one`), lambda_1 comes from :func:`_weighted_root`, and v
    is the square root of its v_a^2 / sum_a v_a^2, the one place the
    package normalises v; zero bias takes the same weighted solve, with
    every s_a = 1.
    """
    log_lambda, v2, s2 = _biased_pair(*_arrays(params), params.beta, params.field)
    return log_lambda, np.sqrt(v2 / s2)


def _secular_lanes(j_span, j_min, neg_beta) -> tuple[np.ndarray, np.ndarray]:
    """w^2 and S2 = sum_a w_a^2 at zero bias for every lane of :func:`_secular_start`'s inputs.

    w^2 has the lanes' shape plus a last axis of q levels, S2 the lanes'
    shape, (seeds, betas) for a block: per lane, the pair
    :func:`_secular_root` returns for one point.  Each lane is solved as
    that point is, with the same gaps and start: Newton steps on the
    concave reciprocal 1 / sum_a w_a, under the same cap, and a lane stops,
    without adding it, at the first step of at most 1e-14 mu.  Every step
    runs on the whole block, with the steps of settled lanes set to 0; an
    overflowing lane's gaps are finite too, so it settles as any lane does
    and fails only after the loop.  A settled lane recomputes the same pass
    from its unchanged mu, so it takes exactly the steps it would take
    alone, and the last pass holds every lane's w^2 and S2 as they were in
    the pass that settled it.  The terms of every sum over levels sit in
    one contiguous row per lane of a C-ordered work buffer, whatever layout
    the inputs have, and numpy sums each row with the pairwise loop it runs
    on a single vector: each lane's bits are those of the single solve,
    alone, in any block and in any memory layout.

    A lane that is not finite raises ValueError, and a lane whose last
    step is not 0, a nan step included, raises :class:`ConvergenceError`;
    the exception's ``lane`` attribute is the lowest such lane, as a flat
    index in C order.
    """
    delta, mu, finite = _secular_start(j_span, j_min, neg_beta)
    pair = np.empty((2,) + delta.shape)
    w, ww = pair
    for _ in range(_NEWTON_CAP):
        np.divide(1.0, np.add(delta, mu, out=w), out=w)
        np.multiply(w, w, out=ww)
        s1, s2 = np.add.reduce(pair, axis=-1, keepdims=True)
        step = (s1 - 1.0) * s1 / s2
        np.copyto(step, 0.0, where=step <= _NEWTON_RTOL * mu)
        if not np.logical_or.reduce(step, axis=None):
            break
        mu += step
    failed = np.flatnonzero((step != 0.0) | ~finite)
    if failed.size:
        lane = int(failed[0])
        exc = _unsettled(float(step.flat[lane])) if finite.flat[lane] else ValueError(_OVERFLOW)
        exc.lane = lane
        raise exc
    return ww, s2[..., 0]


def _lambda1_floor(diag: np.ndarray, c: np.ndarray) -> float:
    """L <= lambda_1 e^-t: the top scaled entry 1, or the Rayleigh quotient of s if larger.

    It is (c . diag + 2 sum_{a > b} c_a c_b) / sum c, where sum c e + (sum
    c)^2 would cancel; a weight that overflows makes it nan, and L is 1.
    Its two sums are 1-D reductions: on calls run cold, as the benchmark
    runs them, summing both series as the rows of one (2, q) buffer made
    log Z about 4 % slower end to end.  L is the shortcut's Newton start
    as well as its proof: from nu = L - exp(z_max) the weighted solve
    settled in 2-5 steps on the ``finite_ring`` draws of seeds 1-10 and 2-6
    over seeds 100-199, 6 only where L = 1.
    """
    cum = np.add.accumulate(c)
    rayleigh = (np.add.reduce(c * diag) + 2.0 * np.add.reduce(c[1:] * cum[:-1])) / cum[-1]
    return float(rayleigh) if rayleigh > 1.0 else 1.0


def _log_trace_power(a: np.ndarray, n: int) -> float:
    """log Tr a^n, n >= 2, of a symmetric, entrywise non-negative matrix a, by binary powering.

    p = a^(n // 2) is built bit by bit, each product divided in place by its
    largest entry, whose log joins p's scale; every sum adds non-negative
    terms, so nothing cancels.  Tr a^n is sum(p * p) >= 1, or sum(p * (p @
    a)) for odd n, which raises ConvergenceError below the smallest normal
    double (beta times the entry span past about 708): its terms then have
    few bits.
    """
    p, log_p = a, 0.0
    for bit in bin(n // 2)[3:]:
        p = p @ p @ a if bit == "1" else p @ p
        top = float(np.maximum.reduce(p, axis=None))
        np.divide(p, top, out=p)
        log_p = 2.0 * log_p + math.log(top)
    trace = float(np.vdot(p, p @ a if n % 2 else p))
    if trace < np.finfo(float).tiny:
        raise ConvergenceError("Tr M^N underflows; reduce beta*J or beta*D", residual=trace)
    return 2.0 * log_p + math.log(trace)


def log_partition_function(params: ModelParams, n_sites: int) -> float:
    """log Z_N of the ring, Z_N = Tr M^N = sum_i lambda_i^N, by a route chosen before any solve.

    Each route reads only the O(q) parts of :func:`_rank_one` it needs.  N
    = 1 is t + logsumexp(z), exact at any beta.  Else M = exp(t) (diag(e) +
    s s^T), so by interlacing (Golub, SIAM Rev. 15, 1973; Bunch, Nielsen &
    Sorensen, Numer. Math. 31, 1978) every eigenvalue but lambda_1 is at
    most B = max_a |e_a| in size, and Z_N = lambda_1^N (1 + r) with |r| <=
    (q - 1) (B / lambda_1)^N.  When (q - 1) (B / L)^N < 2^-53, with L <=
    lambda_1 e^-t from :func:`_lambda1_floor`, log Z_N = N log lambda_1 to
    rounding, from one weighted secular solve (:func:`_weighted_root`)
    started at nu = L - exp(z_max): there L > B >= |e_a|, so every
    denominator L - e_a of the first step is positive and no near-pole
    needs :func:`_lower_bound`'s guard.  A weight c_a that overflows makes
    B infinite, and a finite B proves every weight finite.

    Every other ring takes :func:`_log_trace_power` of exp(-t) M, formed
    from the same exponents as exp(z_a) on the diagonal and exp((u_a +
    u_b) / 2) off it, never as s_a s_b, which overflows where the matrix
    does not.  The matrix is entrywise positive, so odd rings whose
    eigenvalues of both signs cancel in sum_i lambda_i^N lose no digits;
    only a trace that underflows below the smallest normal double raises
    :class:`ConvergenceError`.
    """
    n_sites = _count(n_sites, 1, "n_sites must be a positive integer")
    with np.errstate(over="ignore", invalid="ignore"):
        t, z_max, g, m, c, z, u = _rank_one(*_arrays(params), params.beta, params.field)
        if n_sites == 1:
            return t + z_max + math.log(float(np.add.reduce(np.exp(z - z_max))))
        diag = np.exp(z)
        bound = _largest(np.abs(diag - c))
        floor = _lambda1_floor(diag, c)
        log_ratio = math.log(bound) - math.log(floor) if bound else -math.inf
        if math.log(params.q - 1) + n_sites * log_ratio < _LOG_NEGLIGIBLE:
            top, delta = _gaps(g, m, params.beta, z_max)
            return n_sites * (t + _weighted_root(floor - top, top, delta, c)[0])
        # The diagonal of the outer sum is u_a, which can overflow exp
        # where the diagonal exponent z_a does not; it is overwritten.
        u *= 0.5
        a = np.exp(np.add.outer(u, u))
    np.fill_diagonal(a, diag)
    return n_sites * t + _log_trace_power(a, n_sites)
