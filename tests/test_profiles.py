"""Temperament profiles, the pinned RNG, and seeded ensemble sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottsinvest import (
    ConvergenceError,
    CouplingProfile,
    ModelParams,
    ProfileSpec,
    SplitMix64,
    SweepError,
    classify_limits,
    ensemble_sweep,
    make_profile,
    per_capita_investment,
    profiles,
    sweep_curve,
    transfer,
)

# First outputs of the pinned generator for seed 0, frozen from the
# generator's published reference sequence.
SPLITMIX64_SEED0 = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
)

# Coupling draw for the random profile at q=15, seed=42, frozen once.
RANDOM_Q15_SEED42 = (11.0, 2.0, 4.0, 5.0, 0.0, 13.0, 3.0, 12.0, 5.0, 9.0, 3.0, 7.0, 7.0, 7.0, 9.0)


class TestSplitMix64:
    def test_reference_sequence(self):
        rng = SplitMix64(0)
        assert tuple(rng.next_uint64() for _ in range(3)) == SPLITMIX64_SEED0

    def test_uniform_range_and_determinism(self):
        a = SplitMix64(123)
        b = SplitMix64(123)
        for _ in range(100):
            x = a.uniform()
            assert 0.0 <= x < 1.0
            assert x == b.uniform()

    def test_seed_is_wrapped_to_64_bits(self):
        assert SplitMix64(1 << 64).next_uint64() == SplitMix64(0).next_uint64()


class TestMakeProfile:
    def test_aggressive(self):
        assert make_profile(ProfileSpec("aggressive", 4)).values == (-1.0, -2.0, -3.0, -4.0)

    def test_conservative(self):
        assert make_profile(ProfileSpec("conservative", 4)).values == (-4.0, -3.0, -2.0, -1.0)

    def test_aggressive_prefers_top_level(self):
        p = ModelParams(q=6, beta=1.0, couplings=make_profile(ProfileSpec("aggressive", 6)))
        info = classify_limits(p)
        assert info.unique_min and info.beta_infinity == 5.0

    def test_conservative_prefers_bottom_level(self):
        p = ModelParams(q=6, beta=1.0, couplings=make_profile(ProfileSpec("conservative", 6)))
        info = classify_limits(p)
        assert info.unique_min and info.beta_infinity == 0.0

    def test_random_frozen_draw(self):
        got = make_profile(ProfileSpec("random", 15, seed=42))
        assert got.values == RANDOM_Q15_SEED42

    def test_random_is_reproducible_and_seed_sensitive(self):
        a = make_profile(ProfileSpec("random", 8, seed=7))
        b = make_profile(ProfileSpec("random", 8, seed=7))
        c = make_profile(ProfileSpec("random", 8, seed=8))
        assert a.values == b.values
        assert a.values != c.values

    def test_random_values_are_levels(self):
        for seed in range(1, 20):
            vals = make_profile(ProfileSpec("random", 9, seed=seed)).values
            assert all(v == int(v) and 0 <= v <= 8 for v in vals)

    def test_random_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            ProfileSpec("random", 5)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            ProfileSpec("bold", 5)
        with pytest.raises(ValueError):
            ProfileSpec("aggressive", 1)


class TestEnsembleSweep:
    def test_single_seed_mean_is_the_curve(self):
        grid = [0.0, 1.0, 2.0]
        ens = ensemble_sweep(5, [3], grid)
        assert ens.mean_curve.points == ens.curves[0].points
        assert ens.curves[0].seed == 3
        assert ens.mean_curve.seed is None
        assert ens.mean_curve.params_snapshot is None

    def test_mean_is_permutation_invariant(self):
        grid = [0.0, 0.5, 1.5]
        forward = ensemble_sweep(6, [1, 2, 3], grid)
        shuffled = ensemble_sweep(6, [3, 1, 2], grid)
        assert forward.mean_curve.points == shuffled.mean_curve.points

    def test_mean_at_zero_is_exact_level_mean(self):
        ens = ensemble_sweep(15, range(1, 13), [0.0, 1.0])
        assert ens.mean_curve.points[0] == (0.0, 7.0)

    def test_unique_min_bookkeeping(self):
        ens = ensemble_sweep(15, range(1, 13), [0.0])
        assert ens.unique_min_flags == (
            True, True, False, True, True, True,
            True, True, True, False, True, True,
        )

    def test_two_seed_endpoint_classification_average(self):
        # Both seeds have unique coupling minima, so each curve has a
        # classified endpoint; their ensemble average is the level midpoint.
        seeds = (1, 2)
        targets = []
        for s in seeds:
            profile = make_profile(ProfileSpec("random", 15, seed=s))
            info = classify_limits(ModelParams(q=15, beta=0.0, couplings=profile))
            assert info.unique_min
            targets.append(info.beta_infinity)
        assert math.fsum(targets) / 2 == (targets[0] + targets[1]) / 2

    def test_mean_matches_hand_average(self):
        grid = [0.0, 2.0]
        ens = ensemble_sweep(7, [4, 5, 6], grid)
        for k in range(len(grid)):
            want = math.fsum(c.points[k][1] for c in ens.curves) / 3
            assert ens.mean_curve.points[k][1] == want

    def test_failure_reports_seed_and_beta(self):
        with pytest.raises(SweepError) as info:
            ensemble_sweep(15, [42], [1.0, 1.7e308])
        assert info.value.seed == 42
        assert info.value.beta == 1.7e308
        assert "seed=42" in str(info.value)

    def test_multi_seed_failure_names_the_first_seed(self):
        with pytest.raises(SweepError) as info:
            ensemble_sweep(15, [7, 42], [1.0, 1.7e308])
        assert info.value.seed == 7
        assert info.value.beta == 1.7e308
        assert isinstance(info.value.__cause__, ValueError)

    def test_unconverged_lane_maps_back_to_the_earliest_seed_and_beta(self, monkeypatch):
        seeds, grid = [5, 8, 2], [0.0, 0.3, 2.0, 50.0]
        monkeypatch.setattr(transfer, "_NEWTON_CAP", 1)
        # The lane the per-point loop fails on first, seed by seed, beta by beta.
        first = None
        for seed in seeds:
            profile = make_profile(ProfileSpec("random", 9, seed=seed))
            for b in grid:
                try:
                    per_capita_investment(ModelParams(q=9, beta=b, couplings=profile))
                except ConvergenceError:
                    first = first or (seed, b)
        assert first is not None
        with pytest.raises(SweepError) as info:
            ensemble_sweep(9, seeds, grid)
        assert (info.value.seed, info.value.beta) == first
        assert isinstance(info.value.__cause__, ConvergenceError)

    def test_rejects_empty_seed_list(self):
        with pytest.raises(ValueError):
            ensemble_sweep(5, [], [0.0, 1.0])


# Increasing grids that start at 0 and end at 1e3.
beta_grids = st.lists(
    st.floats(min_value=1e-3, max_value=999.0, allow_nan=False), max_size=12, unique=True
).map(lambda inner: [0.0] + sorted(inner) + [1e3])


class TestBatchedEnsemble:
    """ensemble_sweep solves all (seed, beta) lanes together; each curve must not notice."""

    @given(
        q=st.integers(2, 60),
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8, unique=True),
        grid=beta_grids,
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_curves_are_batch_invariant(self, q, seeds, grid, data):
        together = ensemble_sweep(q, seeds, grid)
        by_seed = dict(zip(together.seeds, together.curves))
        for seed in seeds:
            assert ensemble_sweep(q, [seed], grid).curves[0].points == by_seed[seed].points
        shuffled = data.draw(st.permutations(seeds))
        for seed, curve in zip(shuffled, ensemble_sweep(q, shuffled, grid).curves):
            assert curve.points == by_seed[seed].points
        block = data.draw(st.integers(1, 4 * q))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(profiles, "_BLOCK", block)
            assert ensemble_sweep(q, seeds, grid).curves == together.curves

    @pytest.mark.parametrize("q, seeds", [(15, range(1, 13)), (200, (1, 2, 3))])
    def test_matches_the_per_point_sweep(self, q, seeds):
        # A linear stretch near 0 plus a log grid out to 1e3.
        log_part = np.geomspace(1e-3, 1e3, 81).tolist()
        grid = sorted({0.0, *(1e-2 * k for k in range(1, 11)), *log_part})
        ens = ensemble_sweep(q, seeds, grid)
        for curve in ens.curves:
            want = sweep_curve(curve.params_snapshot, grid)
            for (b, got), (b_ref, ref) in zip(curve.points, want.points):
                assert b == b_ref
                assert abs(got - ref) <= 1e-14 * (q - 1)

    def test_every_lane_settles_within_five_newton_steps(self, monkeypatch):
        # Newton on the reciprocal secular function takes at most 4 steps per
        # point on the benchmarked ensembles, counting the last one, which
        # confirms the root; a cap of 5 must change no bit.
        grid = np.linspace(0.0, 10.0, 200)
        cases = ((15, range(1, 13)), (60, range(1, 5)))

        def curve_bits(ens):
            return np.array([[l for _, l in c.points] for c in ens.curves]).tobytes()

        free = [curve_bits(ensemble_sweep(q, seeds, grid)) for q, seeds in cases]
        monkeypatch.setattr(transfer, "_NEWTON_CAP", 5)
        assert [curve_bits(ensemble_sweep(q, seeds, grid)) for q, seeds in cases] == free
