"""Ring of q-level investors: domain types and the enumeration oracles.

N agents sit on a ring (agent N neighbours agent 1) and each picks an
investment level sigma_i in {0, ..., q-1}, or more generally a value from a
strictly increasing level vector (d_0, ..., d_{q-1}).  A configuration's
energy adds a per-level interaction J(sigma_i) for every pair of equal
neighbouring choices, plus an external bias D coupled to the invested total:

    H(sigma) = sum_i J(sigma_i) * [sigma_i == sigma_{i+1}] + D * sum_i d(sigma_i)

with the index wrapping around the ring.  The Gibbs weight exp(-beta * H)
turns this into a probability model: beta = 0 makes every configuration
equally likely, large beta concentrates the ensemble on energy minimisers.

Everything here is a pure function of its inputs.  The brute-force routines
enumerate all q**N ring configurations and serve as ground truth for the
spectral machinery in :mod:`.transfer`; they refuse, by an exact integer
test made before any walk, systems larger than ``ENUMERATION_STATE_CAP``
states.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ENUMERATION_STATE_CAP",
    "EnumerationCapError",
    "CouplingProfile",
    "ModelParams",
    "partition_function_bruteforce",
    "expected_investment_bruteforce",
]

# Largest q ** n_sites the enumeration oracles will walk.  Keeps the oracle
# path interactive; larger systems belong to the transfer-matrix path.
ENUMERATION_STATE_CAP = 1 << 24

# Enumeration chunk size; bounds peak memory independent of system size.
_BLOCK = 1 << 16

# Exponents whose exp is a finite normal double.
_LOG_TINY = math.log(sys.float_info.min)
_LOG_HUGE = math.log(sys.float_info.max)


class EnumerationCapError(RuntimeError):
    """Asked a brute-force oracle for more than ENUMERATION_STATE_CAP states."""


def _count(value, least: int, message: str) -> int:
    """``value`` as a Python int, if it is an integer (NumPy's too) of at least ``least``.

    Anything else, bools and integral floats included, raises
    ``ValueError(message)``.
    """
    if not isinstance(value, bool):
        try:
            n = operator.index(value)
        except TypeError:
            pass
        else:
            if n >= least:
                return n
    raise ValueError(message)


@dataclass(frozen=True)
class CouplingProfile:
    """Per-level interaction strengths (J(0), ..., J(q-1)).

    Negative J(k) rewards neighbours who both invest at level k, positive
    J(k) penalises them.  Index k is the level the two neighbours share.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        if len(values) < 2:
            raise ValueError("coupling profile needs at least two levels")
        if not all(math.isfinite(v) for v in values):
            raise ValueError("coupling strengths must be finite")
        object.__setattr__(self, "values", values)

    @property
    def q(self) -> int:
        return len(self.values)

    def unique_min_index(self) -> int | None:
        """Index of the strictly smallest coupling, or None if the minimum ties."""
        lowest = min(self.values)
        hits = [k for k, v in enumerate(self.values) if v == lowest]
        return hits[0] if len(hits) == 1 else None


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set for one model instance.

    ``beta`` is the inverse-temperature-like control parameter, ``field``
    the external bias D, and ``levels`` the investment value of each choice
    (defaults to 0, 1, ..., q-1 and must be strictly increasing).
    """

    q: int
    beta: float
    couplings: CouplingProfile
    field: float = 0.0
    levels: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _count(self.q, 2, "q must be an integer with q >= 2"))
        beta = float(self.beta)
        if not math.isfinite(beta) or beta < 0.0:
            raise ValueError("beta must be finite and non-negative")
        bias = float(self.field)
        if not math.isfinite(bias):
            raise ValueError("field must be finite")
        couplings = self.couplings
        if not isinstance(couplings, CouplingProfile):
            couplings = CouplingProfile(tuple(couplings))
        if couplings.q != self.q:
            raise ValueError(
                f"coupling profile has {couplings.q} levels, expected q={self.q}"
            )
        if self.levels is None:
            levels = tuple(float(k) for k in range(self.q))
        else:
            levels = tuple(float(v) for v in self.levels)
            if len(levels) != self.q:
                raise ValueError(f"levels must have length q={self.q}")
            if not all(math.isfinite(v) for v in levels):
                raise ValueError("levels must be finite")
            if any(b <= a for a, b in zip(levels, levels[1:])):
                raise ValueError("levels must be strictly increasing")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "field", bias)
        object.__setattr__(self, "couplings", couplings)
        object.__setattr__(self, "levels", levels)


def _check_enumerable(q: int, n_sites: int) -> int:
    """``n_sites`` as an int, if the oracles may walk all q**n_sites states.

    Exact and O(1): q >= 2, so q**n_sites >= 2**n_sites exceeds the cap
    once n_sites reaches its bit length, and below that q**n_sites is a
    product of at most 24 factors.
    """
    n_sites = _count(n_sites, 1, "n_sites must be a positive integer")
    if n_sites >= ENUMERATION_STATE_CAP.bit_length() or q**n_sites > ENUMERATION_STATE_CAP:
        raise EnumerationCapError(
            f"{q}**{n_sites} states exceed the enumeration cap of "
            f"{ENUMERATION_STATE_CAP}; use the transfer-matrix path"
        )
    return n_sites


def _config_blocks(q: int, n_sites: int):
    """Yield all q**n_sites ring configurations as (block, n_sites) int arrays."""
    total = q**n_sites
    shape = (q,) * n_sites
    for start in range(0, total, _BLOCK):
        idx = np.arange(start, min(start + _BLOCK, total), dtype=np.int64)
        yield np.stack(np.unravel_index(idx, shape), axis=1)


def _block_energy_and_total(block: np.ndarray, params: ModelParams):
    """H and the invested total of each configuration (row) of a (block, n_sites) array."""
    j = np.asarray(params.couplings.values)
    lev = np.asarray(params.levels)
    nbr = np.roll(block, -1, axis=1)
    bond = np.where(block == nbr, j[block], 0.0).sum(axis=1)
    total = lev[block].sum(axis=1)
    return bond + params.field * total, total


def _gibbs_sums(params: ModelParams, n_sites: int) -> tuple[float, float, float]:
    """Walk all q**n_sites ring configurations: (s, m, t) with Z_N = s exp(-beta m).

    m is the least energy seen, and each configuration weighs exp(-beta (E
    - m)) <= 1 against it, a streaming log-sum-exp: when a block lowers m,
    the sums so far shrink by exp(-beta (m_old - m_new)).  So 1 <= s <=
    q**n_sites, and t = sum of total * weight gives <total> = t / s without
    overflow at any beta.  At beta = 0 every weight is exactly 1 and s is
    the exact state count.
    """
    s = t = 0.0
    m = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _config_blocks(params.q, n_sites):
            energy, total = _block_energy_and_total(block, params)
            low = float(energy.min())
            if low < m:
                if s:
                    shrink = math.exp(-params.beta * (m - low))
                    s, t = s * shrink, t * shrink
                m = low
            w = np.exp(-params.beta * (energy - m))
            s += float(w.sum())
            t += float((total * w).sum())
    # The least-energy state weighs exactly 1, so only an energy or total
    # that overflowed (levels or couplings near the double range) fails this.
    if not (s >= 1.0 and math.isfinite(t)):
        raise ValueError("configuration energies or totals overflow; reduce J, D or levels")
    return s, m, t


def partition_function_bruteforce(params: ModelParams, n_sites: int) -> float:
    """Exact partition sum Z_N = sum over all configurations of exp(-beta * H).

    Strictly positive.  Intended for small rings; raises
    :class:`EnumerationCapError` beyond ``ENUMERATION_STATE_CAP`` states,
    and ``OverflowError``, naming log Z_N, where Z_N leaves the range of
    normal doubles.
    """
    s, m, _ = _gibbs_sums(params, _check_enumerable(params.q, n_sites))
    x = -params.beta * m
    # A subnormal exp(x) holds too few bits; s >= 1 keeps the product normal.
    z = s * math.exp(x) if _LOG_TINY <= x <= _LOG_HUGE else math.inf
    if z == math.inf:
        raise OverflowError(
            f"Z_N = exp({math.log(s) + x!r}) leaves the double range; "
            "log_partition_function gives log Z_N"
        )
    return z


def expected_investment_bruteforce(params: ModelParams, n_sites: int) -> float:
    """Gibbs-average invested value per site, <sum_i levels[sigma_i]> / N.

    Always lies inside [levels[0], levels[q-1]], at any beta.
    """
    n_sites = _check_enumerable(params.q, n_sites)
    s, _, t = _gibbs_sums(params, n_sites)
    return t / (s * n_sites)
