"""Field-dependent transfer matrix, its dominant eigenpair and log Z_N.

The ring partition sum factorises through a symmetric q x q matrix M with

    M[a][b] = exp(-beta * (J(a) * [a == b] + D * (d_a + d_b) / 2))

so that Z_N = Tr M^N = sum_i lambda_i^N.  Raw entries overflow double
precision quickly (strongly negative couplings with beta of a few hundred
push exponents past 700), so the matrix is stored rescaled: entries hold
exp(x_ab - s) with s the largest raw exponent, and s is carried separately
as ``log_scale``.  The maximal rescaled entry is exactly 1 and every
spectral quantity is reported either rescaled or in log space.

At zero bias M = diag(c) + 1 1^T with c_a = exp(-beta J(a)) - 1, a rank-one
update of a diagonal matrix, so its dominant eigenpair is the largest root
of a scalar secular equation (Golub, SIAM Rev. 15, 1973) and never needs
the matrix itself; :func:`investment_rows` runs the same solve on many
coupling vectors at once, one per row.  The full spectrum for log Z_N comes
from LAPACK's symmetric eigensolver (``numpy.linalg.eigvalsh``) on the
rescaled matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams

__all__ = [
    "ConvergenceError",
    "TransferMatrix",
    "build_matrix",
    "dominant_eigenvalue",
    "investment_rows",
    "log_partition_function",
]

# Newton steps allowed for the secular equation.  At most 8 were needed
# over q up to 300, beta from 1e-3 to 1e3 and tied or near-tied coupling
# minima, and at most 4 on random-profile ensembles up to q = 200.
_NEWTON_CAP = 100
_NEWTON_RTOL = 1e-14


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations; carries the last residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Rescaled transfer matrix: true matrix = entries * exp(log_scale)."""

    entries: np.ndarray
    log_scale: float


def build_matrix(params: ModelParams, log_scale: float | None = None) -> TransferMatrix:
    """Construct the rescaled transfer matrix for the given parameters.

    By default the scale is the largest raw exponent, which puts the largest
    entry at exactly 1.  Passing ``log_scale`` pins the scale externally;
    the finite-difference stencil uses this so that matrices at different
    bias offsets stay mutually comparable.
    """
    lev = np.asarray(params.levels)
    # Overflow to inf/nan here is caught by the finiteness check below.
    with np.errstate(over="ignore", invalid="ignore"):
        bj = params.beta * np.asarray(params.couplings.values)
        bf = params.beta * params.field
        # lev[a] + lev[b] is bitwise symmetric, so x and exp(x - s) are
        # exactly symmetric matrices with no per-pair bookkeeping.
        x = -(0.5 * bf) * (lev[:, None] + lev[None, :]) - np.diag(bj)
    _require_finite(x)
    s = float(x.max()) if log_scale is None else float(log_scale)
    return TransferMatrix(entries=np.exp(x - s), log_scale=s)


_OVERFLOW = "transfer-matrix exponents overflow; reduce beta*J or beta*D"


def _require_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise ValueError(_OVERFLOW)


def _secular_start(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maxima, gaps Delta and Newton starts along the last axis of finite exponents x.

    Delta_a = exp(x_max + log(1 - exp(x_a - x_max))) is exactly 0 on levels
    tied at the maximum, where the logarithm is -inf, and inf where it
    overflows; the start is the number of zero gaps.
    """
    x_max = x.max(axis=-1, keepdims=True)
    with np.errstate(over="ignore", divide="ignore"):
        delta = np.exp(x_max + np.log(-np.expm1(x - x_max)))
    return x_max[..., 0], delta, (delta == 0.0).sum(axis=-1, dtype=float)


def _unsettled(residual: float) -> ConvergenceError:
    return ConvergenceError(
        f"secular equation did not converge in {_NEWTON_CAP} Newton steps", residual=residual
    )


def dominant_eigenvalue(params: ModelParams) -> tuple[float, np.ndarray]:
    """Dominant eigenpair of the zero-bias transfer matrix, from its secular equation.

    Returns (log lambda_1, v) with v the unit, entrywise positive dominant
    eigenvector.  With x_a = -beta J(a), write lambda_1 = exp(x_max) - 1 + mu
    and Delta_a = exp(x_max) - exp(x_a) >= 0; then mu is the root in [1, q]
    of sum_a 1 / (mu + Delta_a) = 1 and v_a is proportional to
    1 / (mu + Delta_a).  Delta is formed as exp(x_max + log(1 - exp(x_a -
    x_max))), exactly 0 on levels tied at the maximum, so a tie never
    multiplies an overflowed exp(x_max) by zero; an entry that overflows to
    inf simply drops out of the sum.  Newton's method runs on the reciprocal
    h(mu) = 1 / sum_a w_a, w_a = 1 / (mu + Delta_a), whose root h = 1 is the
    same (Moré & Sorensen, SIAM J. Sci. Stat. Comput. 4, 1983): the step is
    (S1 - 1) S1 / S2 with S1 = sum w and S2 = sum w^2.  h is a scaled
    harmonic mean of the mu + Delta_a, so it is concave and increasing, and
    Newton from mu = (number of tied levels), where h <= 1, increases
    monotonically to the root without overshooting, and being nearly linear
    it needs only a few steps.  Raises
    :class:`ConvergenceError` if it has not settled within a fixed step cap.
    """
    if params.field != 0.0:
        raise ValueError("the dominant solve is taken at zero external bias (field = 0)")
    with np.errstate(over="ignore"):
        x = -params.beta * np.asarray(params.couplings.values)
    _require_finite(x)
    x_max, delta, mu = _secular_start(x)
    x_max, mu = float(x_max), float(mu)
    for _ in range(_NEWTON_CAP):
        w = 1.0 / (mu + delta)
        s1 = float(w.sum())
        step = (s1 - 1.0) * s1 / float(w @ w)
        mu += step
        if step <= _NEWTON_RTOL * mu:
            break
    else:
        raise _unsettled(step)
    w = 1.0 / (mu + delta)
    log_value = float(np.logaddexp(x_max, math.log(mu - 1.0))) if mu > 1.0 else x_max
    return log_value, w / float(np.linalg.norm(w))


def investment_rows(x: np.ndarray, levels) -> np.ndarray:
    """Per-capita investment l for every row of exponents x (n, q), x_a = -beta J(a).

    Each row is solved as :func:`dominant_eigenvalue` solves one coupling
    vector: the same gaps, start, Newton steps on the concave reciprocal
    1 / sum_a w_a, and cap.  A row is frozen once its step has settled, so it
    takes exactly the steps it would take alone.  Then l = sum_a d_a w_a^2 /
    sum_a w_a^2 with w_a = 1 / (mu + Delta_a), clamped to [d_0, d_{q-1}].
    Every reduction is an elementwise product summed along the row, never a
    matrix product, whose blocking would make a row's bits depend on the rows
    around it.

    A row with a non-finite exponent raises ValueError, and a row still
    moving after the step cap raises :class:`ConvergenceError`; the
    exception's ``row`` attribute is the lowest such row.
    """
    lev = np.asarray(levels, dtype=float)
    finite = np.isfinite(x).all(axis=1)
    _, delta, mu = _secular_start(x[finite])
    active = np.arange(len(mu))
    for _ in range(_NEWTON_CAP):
        if not active.size:
            break
        w = 1.0 / (mu[active][:, None] + delta[active])
        s1 = w.sum(axis=1)
        step = (s1 - 1.0) * s1 / (w * w).sum(axis=1)
        mu[active] += step
        moving = ~(step <= _NEWTON_RTOL * mu[active])
        active, step = active[moving], step[moving]
    failed = np.union1d(np.flatnonzero(~finite), np.flatnonzero(finite)[active])
    if failed.size:
        row = int(failed[0])
        exc = _unsettled(float(step[0])) if finite[row] else ValueError(_OVERFLOW)
        exc.row = row
        raise exc
    w = 1.0 / (mu[:, None] + delta)
    wt = w * w
    return np.minimum(np.maximum((wt * lev).sum(axis=1) / wt.sum(axis=1), lev[0]), lev[-1])


def log_partition_function(params: ModelParams, n_sites: int) -> float:
    """log Z_N computed from the full transfer-matrix spectrum.

    Z_N = sum_i lambda_i^N; the sum runs in log space with explicit sign
    bookkeeping so that negative eigenvalues raised to odd N subtract.
    """
    if not isinstance(n_sites, int) or isinstance(n_sites, bool) or n_sites < 1:
        raise ValueError("n_sites must be a positive integer")
    matrix = build_matrix(params)
    lam = np.linalg.eigvalsh(matrix.entries)
    lam = lam[lam != 0.0]
    logs = n_sites * np.log(np.abs(lam))
    signs = np.where((lam < 0.0) & (n_sites % 2 == 1), -1.0, 1.0)
    shift = float(logs.max())
    total = float(np.sum(signs * np.exp(logs - shift)))
    if total <= 0.0:
        raise ConvergenceError(
            "partition sum lost all precision to cancellation", residual=total
        )
    return n_sites * matrix.log_scale + shift + math.log(total)
