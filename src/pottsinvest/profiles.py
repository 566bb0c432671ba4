"""Agent temperament profiles and seeded ensemble sweeps.

Three coupling profiles over q levels:

    aggressive:    J(k) = -(k + 1)      rewards agreeing at high levels most
    conservative:  J(k) = -(q - k)      rewards agreeing at low levels most
    random:        J(k) = floor(u_k * q) with u_k uniform on [0, 1)

Random draws must reproduce bit-for-bit across platforms and Python
versions, so they come from an explicitly specified 64-bit generator
(SplitMix64) instead of any platform-default RNG.  The full state
transition per draw is:

    state  = (state + 0x9E3779B97F4A7C15) mod 2**64
    z      = state
    z      = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z      = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    output = z ^ (z >> 31)

and a uniform draw on [0, 1) takes the top 53 bits, (output >> 11) / 2**53.

An ensemble sweep draws one random profile per seed and keeps the
bookkeeping: the per-seed curves, their fsum mean and the minimum flags.
The numbers come from :func:`.derivatives._sweep_lanes`, the batched
beta sweep, which solves every (seed, beta) point as one contiguous row of
a block, summed as a single point is, so each member's curve is bit for
bit :func:`.derivatives.sweep_curve` on its couplings.  It fails where that
curve fails, under the one overflow rule of :mod:`.transfer`: a point
raises only where -beta J_min or a gap exponent -beta (J(a) - J_min) is not
finite, and a diagonal exponent -beta J(a) below the double range is an
entry of 0.  This module touches no solver itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .derivatives import InvestmentCurve, _checked_grid, _sweep_lanes
from .model import CouplingProfile, ModelParams, _count

__all__ = [
    "ProfileSpec",
    "make_profile",
    "ensemble_sweep",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

ProfileKind = Literal["aggressive", "conservative", "random"]
_KINDS = ("aggressive", "conservative", "random")


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output for each state of a uint64 array; uint64 wraps modulo 2**64."""
    z = (z ^ (z >> 30)) * _MIX1
    z = (z ^ (z >> 27)) * _MIX2
    return z ^ (z >> 31)


@dataclass(frozen=True)
class ProfileSpec:
    """Which temperament to build: kind, level count, and seed for random draws."""

    kind: ProfileKind
    q: int
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"profile kind must be one of {_KINDS}")
        object.__setattr__(self, "q", _count(self.q, 2, "q must be an integer with q >= 2"))
        if self.kind == "random" and self.seed is None:
            raise ValueError("random profiles require a seed")


def make_profile(spec: ProfileSpec) -> CouplingProfile:
    """Build the coupling vector for a profile specification.

    Random profiles draw q integers in {0, ..., q-1} as floor(u * q); the
    zero-probability rounding case u * q == q is clamped to q - 1.
    """
    q = spec.q
    if spec.kind == "aggressive":
        return CouplingProfile(tuple(-float(k + 1) for k in range(q)))
    if spec.kind == "conservative":
        return CouplingProfile(tuple(-float(q - k) for k in range(q)))
    return CouplingProfile(tuple(_random_couplings(q, [spec.seed])[0].tolist()))


def _random_couplings(q: int, seeds: Sequence[int]) -> np.ndarray:
    """Random-profile couplings for every seed at once, as an (n_seeds, q) array.

    Row i holds the first q draws floor(u * q), clamped to q - 1, of the
    generator seeded with seeds[i] modulo 2**64: draw k of a seed mixes the
    state seed + k * 0x9E3779B97F4A7C15 modulo 2**64, so every state of
    every seed is formed and mixed in one uint64 pass.
    """
    start = np.array([int(seed) & _MASK64 for seed in seeds], dtype=np.uint64)
    states = start[:, None] + np.arange(1, q + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    u = (_mix(states) >> 11).astype(float) * 2.0**-53
    return np.minimum(np.floor(u * q), q - 1.0)


@dataclass(frozen=True)
class SeedEnsemble:
    """Per-seed investment curves plus their pointwise mean.

    ``unique_min_flags[i]`` records whether seed i's coupling vector has a
    strictly unique minimum.  Every seed's large-beta endpoint is exact
    either way (:func:`.closedform.classify_limits`); a unique negative
    minimum is the one case where it is a single level.
    """

    seeds: tuple[int, ...]
    curves: tuple[InvestmentCurve, ...]
    mean_curve: InvestmentCurve
    unique_min_flags: tuple[bool, ...]


def ensemble_sweep(q: int, seeds: Sequence[int], betas) -> SeedEnsemble:
    """Sweep one random-profile curve per seed and average them pointwise.

    Every (seed, beta > 0) lane is solved by :func:`.transfer._secular_lanes`
    in blocks (:func:`.derivatives._sweep_lanes`); beta = 0 lanes take the
    exact level mean.  A seed's curve is bitwise the one
    :func:`.derivatives.sweep_curve` gives on its couplings, swept alone or
    with other seeds.  The mean uses exact (fsum) accumulation, so it is
    invariant under permutations of the seed list.
    The first failing lane, seed by seed and beta by beta, raises
    :class:`.derivatives.SweepError` naming its beta and seed, the beta at
    which that seed's single curve fails.
    """
    seeds, couplings, grid, values, mean = _ensemble_values(q, seeds, betas)
    params = _member_params(q, couplings)
    curves = tuple(
        InvestmentCurve(points=tuple(zip(grid, row)), params_snapshot=p, seed=seed)
        for seed, p, row in zip(seeds, params, values)
    )
    mean_curve = InvestmentCurve(points=tuple(zip(grid, mean)), params_snapshot=None, seed=None)
    return SeedEnsemble(
        seeds=seeds,
        curves=curves,
        mean_curve=mean_curve,
        unique_min_flags=tuple(p.couplings.unique_min_index() is not None for p in params),
    )


def _ensemble_values(q: int, seeds: Sequence[int], betas):
    """(seeds, couplings, grid, values, mean): :func:`ensemble_sweep`'s checks and numbers.

    No curve objects are built: couplings is the (n_seeds, q) draw, and
    the lists values[i], seed i's l at each grid point, and mean, the fsum
    mean over seeds at each point, are what the CLI writes.
    """
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    q = _count(q, 2, "q must be an integer with q >= 2")
    grid = _checked_grid(betas)
    couplings = _random_couplings(q, seeds)
    block = _sweep_lanes(seeds, couplings, tuple(float(k) for k in range(q)), grid)
    mean = [math.fsum(column) / len(seeds) for column in block.T.tolist()]
    return seeds, couplings, grid, block.tolist(), mean


def _member_params(q: int, couplings: np.ndarray) -> tuple[ModelParams, ...]:
    """The zero-beta model of each ensemble member, from its row of couplings."""
    return tuple(
        ModelParams(q=q, beta=0.0, couplings=CouplingProfile(tuple(row)))
        for row in couplings.tolist()
    )

