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

and uniform() maps the top 53 bits to [0, 1) as (output >> 11) / 2**53.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal, Sequence

from .derivatives import InvestmentCurve, SweepError, sweep_curve
from .model import CouplingProfile, ModelParams

__all__ = [
    "SplitMix64",
    "ProfileSpec",
    "SeedEnsemble",
    "make_profile",
    "ensemble_sweep",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

ProfileKind = Literal["aggressive", "conservative", "random"]
_KINDS = ("aggressive", "conservative", "random")


class SplitMix64:
    """Deterministic 64-bit generator with the documented state transition."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform draw on [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0**-53


@dataclass(frozen=True)
class ProfileSpec:
    """Which temperament to build: kind, level count, and seed for random draws."""

    kind: ProfileKind
    q: int
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"profile kind must be one of {_KINDS}")
        if not isinstance(self.q, int) or isinstance(self.q, bool) or self.q < 2:
            raise ValueError("q must be an integer >= 2")
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
    rng = SplitMix64(spec.seed)
    values = tuple(min(float(math.floor(rng.uniform() * q)), q - 1.0) for _ in range(q))
    return CouplingProfile(values)


@dataclass(frozen=True)
class SeedEnsemble:
    """Per-seed investment curves plus their pointwise mean.

    ``unique_min_flags[i]`` records whether seed i's coupling vector has a
    strictly unique minimum, which decides whether its large-beta endpoint
    admits a single-level classification.
    """

    seeds: tuple[int, ...]
    curves: tuple[InvestmentCurve, ...]
    mean_curve: InvestmentCurve
    unique_min_flags: tuple[bool, ...]


def ensemble_sweep(q: int, seeds: Sequence[int], betas) -> SeedEnsemble:
    """Sweep one random-profile curve per seed and average them pointwise.

    The mean uses exact (fsum) accumulation, so it is invariant under
    permutations of the seed list.  Sweep failures propagate as
    :class:`SweepError` with the offending seed attached.
    """
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    curves = []
    flags = []
    for seed in seeds:
        profile = make_profile(ProfileSpec(kind="random", q=q, seed=seed))
        params = ModelParams(q=q, beta=0.0, couplings=profile)
        try:
            curve = sweep_curve(params, betas)
        except SweepError as exc:
            raise SweepError(exc.beta, exc.__cause__ or exc, seed=seed) from exc
        curves.append(replace(curve, seed=seed))
        flags.append(profile.unique_min_index() is not None)
    grid = [pt[0] for pt in curves[0].points]
    mean_points = tuple(
        (b, math.fsum(c.points[k][1] for c in curves) / len(curves))
        for k, b in enumerate(grid)
    )
    mean_curve = InvestmentCurve(
        points=mean_points, method="numeric", params_snapshot=None, seed=None
    )
    return SeedEnsemble(
        seeds=seeds,
        curves=tuple(curves),
        mean_curve=mean_curve,
        unique_min_flags=tuple(flags),
    )
