"""Temperament profiles, the pinned RNG, and seeded ensemble sweeps."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pottsinvest import (
    ConvergenceError,
    CouplingProfile,
    ModelParams,
    ProfileSpec,
    SweepError,
    classify_limits,
    derivatives,
    ensemble_sweep,
    make_profile,
    per_capita_investment,
    profiles,
    sweep_curve,
    transfer,
)
from oracles import SplitMix64

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
    """The reference generator that the batched draws are checked against."""

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

    @pytest.mark.parametrize("q", [2, 15, 60, 200])
    def test_batched_draws_match_the_generator(self, q):
        # All seeds are drawn in one uint64 pass; each row must be the
        # generator's own stream, floor(u * q) clamped to q - 1.
        seeds = [0, -1, 2**64 - 1, 2**64 + 5]
        rows = profiles._random_couplings(q, seeds)
        for seed, row in zip(seeds, rows.tolist()):
            rng = SplitMix64(seed)
            want = [min(float(math.floor(rng.uniform() * q)), q - 1.0) for _ in range(q)]
            assert row == want
            assert make_profile(ProfileSpec("random", q, seed=seed)).values == tuple(want)

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

    @pytest.mark.parametrize(
        "grid", ["12", "05", b"05", [False, True], [0.5, True], np.array([False, True])]
    )
    def test_rejects_strings_and_bools_as_grids(self, grid):
        with pytest.raises(ValueError, match="str or bytes|bools"):
            ensemble_sweep(3, [1], grid)


# Increasing grids that start at 0 and end at 1e3.
beta_grids = st.lists(
    st.floats(min_value=1e-3, max_value=999.0, allow_nan=False), max_size=12, unique=True
).map(lambda inner: [0.0] + sorted(inner) + [1e3])


# Grids as the CLI builds them: linear from 0, or logarithmic.
linear_grids = st.builds(
    lambda top, n: np.linspace(0.0, top, n).tolist(), st.floats(0.1, 50.0), st.integers(2, 40)
)
log_grids = st.builds(
    lambda low, decades, n: np.geomspace(low, low * 10.0**decades, n).tolist(),
    st.floats(1e-3, 1.0),
    st.floats(1.0, 6.0),
    st.integers(2, 40),
)
LOG_GRID = np.geomspace(1e-3, 1e3, 81).tolist()
LINEAR_GRID = np.linspace(0.0, 10.0, 200).tolist()


class TestOneZeroBiasL:
    """An ensemble member's l, and each lane's (v^2, S2), is the single solve's, bit for bit."""

    @given(
        q=st.integers(2, 200),
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4, unique=True),
        grid=linear_grids | log_grids,
        picks=st.lists(st.integers(0, 10**6), min_size=3, max_size=3),
    )
    # numpy sums a row of fewer than 8 terms in order, up to 128 in eight
    # running sums, and beyond that in halves: q = 8, 9, 129 and 130 sit on
    # those edges.
    @example(q=8, seeds=[1, 2, 3, 4], grid=LOG_GRID, picks=[0, 40, 80])
    @example(q=9, seeds=[5], grid=LINEAR_GRID, picks=[0, 1, 199])
    @example(q=129, seeds=[1, 2], grid=LINEAR_GRID, picks=[1, 100, 199])
    @example(q=130, seeds=[3, 4, 5], grid=LOG_GRID, picks=[0, 60, 80])
    @settings(max_examples=60, deadline=None)
    def test_ensemble_values_are_the_single_curve(self, q, seeds, grid, picks):
        # Every block the ensemble solves is kept with its (v^2, S2), copied
        # before l is formed in place in v^2.
        blocks = []

        def solve(j_span, j_min, neg_beta):
            v2, s2 = transfer._secular_lanes(j_span, j_min, neg_beta)
            blocks.append((j_span, j_min, neg_beta, v2.copy(), s2.copy()))
            return v2, s2

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(derivatives, "_secular_lanes", solve)
            ens = ensemble_sweep(q, seeds, grid)
        for seed, curve in zip(seeds, ens.curves):
            couplings = make_profile(ProfileSpec("random", q, seed))
            alone = sweep_curve(ModelParams(q, 0.0, couplings), grid)
            assert curve.points == alone.points
            for k in picks:
                beta, l = curve.points[k % len(grid)]
                assert per_capita_investment(ModelParams(q, beta, couplings)) == l
        # Each lane's pair is the one _secular_root returns at that point.
        lanes = 0
        for j_span, j_min, neg_beta, v2, s2 in blocks:
            assert v2.shape == s2.shape + (q,)
            for (seed, k), s2_lane in np.ndenumerate(s2):
                w2, s2_point = transfer._secular_root(
                    j_span[seed, 0], j_min[seed, 0], float(neg_beta[k, 0])
                )
                assert (v2[seed, k].tobytes(), s2_lane) == (w2.tobytes(), s2_point)
                lanes += 1
        assert lanes == len(seeds) * sum(b > 0.0 for b in grid)

    @pytest.mark.parametrize("grid", [[0.0, 1e308], [1e308, 1.7e308]])
    def test_a_diagonal_entry_below_the_double_range_is_zero(self, grid):
        # Seed 1 draws (1, 2, 2): -beta J_min and every gap exponent are
        # finite, while -beta J(a) of levels 1 and 2 is below the double
        # range.  Those entries are 0, every gap is 0, and l is the level
        # mean 1, exactly, as a single curve and as an ensemble member.
        couplings = make_profile(ProfileSpec("random", 3, 1))
        assert couplings.values == (1.0, 2.0, 2.0)
        alone = sweep_curve(ModelParams(3, 0.0, couplings), grid)
        assert alone.points == tuple((b, 1.0) for b in grid)
        assert ensemble_sweep(3, [1], grid).curves[0].points == alone.points
        for beta in grid:
            assert per_capita_investment(ModelParams(3, beta, couplings)) == 1.0

    @given(
        q=st.integers(2, 6),
        seed=st.integers(0, 2**64 - 1),
        exponents=st.lists(
            st.floats(306.0, math.log10(1.7e308)), min_size=1, max_size=3, unique=True
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_the_same_overflow_verdict_near_the_double_range(self, q, seed, exponents):
        # Either both sweeps give the same bits, or both fail at the same beta.
        grid = sorted({10.0**e for e in exponents})
        couplings = make_profile(ProfileSpec("random", q, seed))

        def outcome(sweep):
            try:
                return sweep().points
            except SweepError as exc:
                return exc.beta, type(exc.__cause__)

        alone = outcome(lambda: sweep_curve(ModelParams(q, 0.0, couplings), grid))
        member = outcome(lambda: ensemble_sweep(q, [seed], grid).curves[0])
        assert member == alone
        # Point by point: the sweep's bits, or its error at its failing beta.
        failed_at = alone[0] if isinstance(alone[0], float) else math.inf
        for beta in grid:
            params = ModelParams(q, beta, couplings)
            if beta == failed_at:
                with pytest.raises(alone[1], match="overflow"):
                    per_capita_investment(params)
                break
            value = per_capita_investment(params)
            assert failed_at < math.inf or (beta, value) in alone


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
            mp.setattr(derivatives, "_BLOCK", block)
            assert ensemble_sweep(q, seeds, grid).curves == together.curves

    def test_a_long_grid_is_split_into_bounded_blocks(self, monkeypatch):
        # 1 999 beta > 0 lanes of 60 levels hold about 120k exponents per
        # seed, more than one block: each seed's grid is split.
        q, seeds, grid = 60, (1, 2), np.linspace(0.0, 10.0, 2000).tolist()
        sizes = []

        def solve(j_span, j_min, neg_beta):
            sizes.append(np.broadcast(j_span, neg_beta).size)  # exponents in the block
            return transfer._secular_lanes(j_span, j_min, neg_beta)

        monkeypatch.setattr(derivatives, "_secular_lanes", solve)
        split = ensemble_sweep(q, seeds, grid)
        assert len(sizes) == 4 and max(sizes) <= derivatives._BLOCK
        monkeypatch.setattr(derivatives, "_BLOCK", q * len(seeds) * len(grid))
        sizes.clear()
        whole = ensemble_sweep(q, seeds, grid)
        assert len(sizes) == 1
        assert split.curves == whole.curves
        assert split.mean_curve == whole.mean_curve

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

    def test_every_lane_settles_within_three_newton_passes(self, monkeypatch):
        # From the Jensen start, Newton on the reciprocal secular function
        # takes at most 3 passes per point on the benchmarked ensembles,
        # counting the last one, which confirms the root and gives l; a cap
        # of 3 must change no bit.
        grid = np.linspace(0.0, 10.0, 200)
        cases = ((15, range(1, 13)), (60, range(1, 5)))

        def curve_bits(ens):
            return np.array([[l for _, l in c.points] for c in ens.curves]).tobytes()

        free = [curve_bits(ensemble_sweep(q, seeds, grid)) for q, seeds in cases]
        monkeypatch.setattr(transfer, "_NEWTON_CAP", 3)
        assert [curve_bits(ensemble_sweep(q, seeds, grid)) for q, seeds in cases] == free
