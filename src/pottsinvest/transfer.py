"""Field-dependent transfer matrix and overflow-safe spectral routines.

The ring partition sum factorises through a symmetric q x q matrix M with

    M[a][b] = exp(-beta * (J(a) * [a == b] + D * (d_a + d_b) / 2))

so that Z_N = Tr M^N = sum_i lambda_i^N.  Raw entries overflow double
precision quickly (strongly negative couplings with beta of a few hundred
push exponents past 700), so the matrix is stored rescaled: entries hold
exp(x_ab - s) with s the largest raw exponent, and s is carried separately
as ``log_scale``.  The maximal rescaled entry is exactly 1 and every
spectral quantity is reported either rescaled or in log space.

The dominant eigenpair comes from Gershgorin-shifted power iteration
from a uniform start; the full spectrum for log Z_N comes from LAPACK's
symmetric eigensolver (``numpy.linalg.eigvalsh``) on the rescaled matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams

__all__ = [
    "ConvergenceError",
    "TransferMatrix",
    "DominantEigen",
    "build_matrix",
    "dominant_eigenvalue",
    "log_partition_function",
]

DEFAULT_TOL = 1e-13
DEFAULT_MAX_ITER = 100_000


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
    q: int


@dataclass(frozen=True, eq=False)
class DominantEigen:
    """Dominant eigenpair of a rescaled matrix.

    ``value_scaled`` is the eigenvalue of ``entries``; ``value_log`` is the
    log of the true eigenvalue, log(value_scaled) + log_scale.  The vector
    is normalised to unit Euclidean length and entrywise positive whenever
    the rescaled entries are all positive.
    """

    value_log: float
    value_scaled: float
    vector: np.ndarray
    iterations: int


def build_matrix(params: ModelParams, log_scale: float | None = None) -> TransferMatrix:
    """Construct the rescaled transfer matrix for the given parameters.

    By default the scale is the largest raw exponent, which puts the largest
    entry at exactly 1.  Passing ``log_scale`` pins the scale externally;
    the finite-difference pipeline uses this so that matrices at different
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
    if not np.isfinite(x).all():
        raise ValueError("transfer-matrix exponents overflow; reduce beta*J or beta*D")
    s = float(x.max()) if log_scale is None else float(log_scale)
    return TransferMatrix(entries=np.exp(x - s), log_scale=s, q=params.q)


def dominant_eigenvalue(
    matrix: TransferMatrix,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> DominantEigen:
    """Dominant eigenpair by shifted power iteration from a uniform start.

    The iteration runs on M + cI with c a Gershgorin bound on -min eigenvalue,
    which makes the shifted spectrum non-negative; otherwise a strongly
    off-diagonal matrix (both couplings penalising, large beta) has its
    second eigenvalue near -lambda_1 and plain power iteration stalls.  The
    shift leaves eigenvectors untouched and is subtracted from the Rayleigh
    quotient, so the reported pair belongs to M itself.  Converged when
    successive Rayleigh quotients agree within ``tol`` and the residual
    max|M v - lambda v| is within ``tol`` (both relative to max(1, lambda)).
    Raises :class:`ConvergenceError` after ``max_iter``.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    a = matrix.entries
    # Entries are non-negative, so row sum minus twice the diagonal bounds
    # -lambda_min from above; c = 0 for diagonally dominant matrices.
    c = max(0.0, float(np.max(a.sum(axis=1) - 2.0 * np.diag(a))))
    v = np.full(matrix.q, 1.0 / math.sqrt(matrix.q))
    w = a @ v + c * v
    lam = float(v @ w) - c
    resid = math.inf
    for it in range(1, max_iter + 1):
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            raise ConvergenceError("matrix annihilated the iterate", residual=None)
        v = w / norm
        w = a @ v + c * v
        lam_new = float(v @ w) - c
        scale = max(1.0, abs(lam_new))
        # w - (lam_new + c) v = M v - lam_new v, the unshifted residual.
        resid = float(np.max(np.abs(w - (lam_new + c) * v)))
        if abs(lam_new - lam) <= tol * scale and resid <= tol * scale:
            if lam_new <= 0.0:
                raise ConvergenceError(
                    "dominant eigenvalue estimate is not positive", residual=resid
                )
            return DominantEigen(
                value_log=math.log(lam_new) + matrix.log_scale,
                value_scaled=lam_new,
                vector=v,
                iterations=it,
            )
        lam = lam_new
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations", residual=resid
    )


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
