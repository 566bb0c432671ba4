"""Exact small-q investment curves and endpoint classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottsinvest import (
    CouplingProfile,
    LimitClassification,
    ModelParams,
    Q3_CASE1_POSITIVE_J_LIMIT,
    Q3_CASE3_POSITIVE_J_LIMIT,
    classify_limits,
    investment_at_beta_infinity,
    investment_q2,
    investment_q3_case1,
    investment_q3_case2,
    investment_q3_case3,
    per_capita_investment,
)


def naive_q2(beta, j0, j1):
    """Direct transcription of the two-level curve, no overflow guards.

    Numerator and denominator are written in the e^{beta(J1-J0)} and
    e^{2 beta J1} variables; valid while the exponents stay in range.
    """
    e = math.exp(beta * (j1 - j0))
    g = math.exp(2 * beta * j1)
    delta = (
        4.0 * g
        - 2.0 * math.exp(beta * j1) * math.exp(-beta * j0)
        + math.exp(-2.0 * beta * j0) * g
        + 1.0
    )
    root = math.sqrt(delta)
    num = -e + 2.0 * g + 1.0 + root
    den = 4.0 * g - 2.0 * e + e * e + e * root + root + 1.0
    return num / den


def naive_q3_case1(beta, j):
    x = math.exp(-beta * j)
    root = math.sqrt(12.0 - 4.0 * x + x * x)
    return (1.0 + 2.0 * x + (12.0 - 5.0 * x + 2.0 * x * x) / root) / (2.0 + x + root)


def naive_q3_case3(beta, j):
    x = math.exp(-beta * j)
    root = math.sqrt(12.0 - 4.0 * x + x * x)
    return (3.0 + (12.0 - 3.0 * x) / root) / (x + 2.0 + root)


class TestTwoLevel:
    def test_matches_direct_transcription(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            beta = float(rng.uniform(0.0, 5.0))
            j0, j1 = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
            assert investment_q2(beta, j0, j1) == pytest.approx(
                naive_q2(beta, j0, j1), abs=1e-12
            )

    def test_starts_at_half(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            j0, j1 = (float(v) for v in rng.uniform(-10.0, 10.0, 2))
            assert investment_q2(0.0, j0, j1) == 0.5

    def test_equal_couplings_pin_one_half(self):
        rng = np.random.default_rng(9)
        for c in rng.uniform(-5.0, 5.0, 10):
            for beta in np.linspace(0.0, 50.0, 11):
                assert investment_q2(float(beta), float(c), float(c)) == 0.5

    def test_frozen_endpoints(self):
        # Favoured high level wins, favoured low level wins, both-positive ties.
        assert investment_q2(80.0, 1.0, -1.0) == pytest.approx(1.0, abs=1e-3)
        assert investment_q2(80.0, -1.0, 1.0) == pytest.approx(0.0, abs=1e-3)
        assert investment_q2(80.0, 2.0, 1.0) == pytest.approx(0.5, abs=1e-3)

    def test_survives_extreme_arguments(self):
        assert investment_q2(1000.0, -1.0, 1.0) == 0.0
        assert investment_q2(1000.0, 1.0, -1.0) == 1.0
        assert math.isfinite(investment_q2(5000.0, -3.0, -2.9))

    @given(
        beta=st.floats(0.0, 100.0),
        j0=st.floats(-5.0, 5.0),
        j1=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_range_and_finiteness(self, beta, j0, j1):
        val = investment_q2(beta, j0, j1)
        assert 0.0 <= val <= 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            investment_q2(-1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            investment_q2(1.0, math.inf, 0.0)


class TestThreeLevelCase1:
    def test_starts_at_one(self):
        assert investment_q3_case1(0.0, 1.7) == 1.0
        assert investment_q3_case1(0.0, -0.4) == 1.0

    def test_negative_branch_matches_direct_formula(self):
        # The rearranged negative-coupling branch must agree with the plain
        # formula wherever the latter still evaluates.
        for beta in (0.5, 1.0, 2.0, 3.0):
            assert investment_q3_case1(beta, -1.3) == pytest.approx(
                naive_q3_case1(beta, -1.3), rel=1e-12
            )

    def test_positive_branch_matches_direct_formula(self):
        for beta in (0.5, 1.0, 2.0, 3.0):
            assert investment_q3_case1(beta, 0.8) == pytest.approx(
                naive_q3_case1(beta, 0.8), rel=1e-12
            )

    def test_continuous_across_zero_coupling(self):
        lo = investment_q3_case1(2.0, -1e-12)
        hi = investment_q3_case1(2.0, 1e-12)
        assert lo == pytest.approx(hi, abs=1e-9)

    def test_rewarded_top_level_saturates(self):
        assert investment_q3_case1(20.0, -1.0) >= 1.999
        assert investment_q3_case1(80.0, -1.0) == pytest.approx(2.0, abs=1e-3)

    def test_penalised_top_level_settles_below_one(self):
        assert investment_q3_case1(80.0, 1.0) == pytest.approx(
            Q3_CASE1_POSITIVE_J_LIMIT, abs=1e-4
        )

    def test_limit_constant_value(self):
        assert Q3_CASE1_POSITIVE_J_LIMIT == pytest.approx(0.8169872981, abs=1e-9)


class TestThreeLevelCase2:
    @pytest.mark.parametrize("beta,j", [(0.0, 2.0), (5.0, -3.0), (100.0, 7.0)])
    def test_identically_one(self, beta, j):
        assert investment_q3_case2(beta, j) == 1.0

    def test_still_validates_arguments(self):
        with pytest.raises(ValueError):
            investment_q3_case2(-1.0, 0.0)
        with pytest.raises(ValueError):
            investment_q3_case2(1.0, math.nan)


class TestThreeLevelCase3:
    def test_starts_at_one(self):
        assert investment_q3_case3(0.0, 0.9) == 1.0

    def test_negative_branch_matches_direct_formula(self):
        for beta in (0.5, 1.0, 2.0, 3.0):
            assert investment_q3_case3(beta, -1.3) == pytest.approx(
                naive_q3_case3(beta, -1.3), rel=1e-12
            )

    def test_rewarded_bottom_level_empties(self):
        assert investment_q3_case3(80.0, -1.0) == pytest.approx(0.0, abs=1e-3)

    def test_penalised_bottom_level_settles_above_one(self):
        assert investment_q3_case3(80.0, 1.0) == pytest.approx(
            Q3_CASE3_POSITIVE_J_LIMIT, abs=1e-4
        )

    def test_limit_constant_value(self):
        assert Q3_CASE3_POSITIVE_J_LIMIT == pytest.approx(1.1830127019, abs=1e-9)

    @given(beta=st.floats(0.0, 100.0), j=st.floats(-5.0, 5.0))
    @settings(max_examples=120, deadline=None)
    def test_range_and_finiteness(self, beta, j):
        for fn in (investment_q3_case1, investment_q3_case3):
            val = fn(beta, j)
            assert 0.0 <= val <= 2.0


class TestClassifyLimits:
    def test_unique_minimum(self):
        p = ModelParams(q=5, beta=1.0, couplings=CouplingProfile((3.0, 1.0, 0.0, 2.0, 4.0)))
        info = classify_limits(p)
        assert info == LimitClassification(beta_zero=2.0, beta_infinity=2.0, unique_min=True)

    def test_tied_minimum_is_unclassified(self):
        p = ModelParams(q=4, beta=1.0, couplings=CouplingProfile((0.0, 0.0, 1.0, 2.0)))
        info = classify_limits(p)
        assert not info.unique_min
        assert info.beta_infinity is None

    def test_two_level_mean(self):
        p = ModelParams(q=2, beta=1.0, couplings=CouplingProfile((0.3, -0.8)))
        assert classify_limits(p).beta_zero == 0.5

    def test_custom_levels(self):
        p = ModelParams(
            q=3,
            beta=1.0,
            couplings=CouplingProfile((1.0, 0.0, -1.0)),
            levels=(-1.0, 0.0, 2.0),
        )
        info = classify_limits(p)
        assert info.beta_zero == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert info.beta_infinity == 2.0


def limit_of(couplings, levels=None):
    q = len(couplings)
    return investment_at_beta_infinity(
        ModelParams(q=q, beta=0.0, couplings=CouplingProfile(tuple(couplings)), levels=levels)
    )


class TestInvestmentAtBetaInfinity:
    def test_negative_minimum_averages_the_levels_attaining_it(self):
        assert limit_of((-1.0, -1.0, 0.0)) == 0.5
        assert limit_of((1.0, -1.0)) == 1.0
        assert limit_of((1.0, -2.0, -2.0), levels=(-1.0, 0.5, 3.0)) == 1.75

    def test_positive_minimum_gives_the_level_mean(self):
        assert limit_of((1.0, 2.0)) == 0.5
        assert limit_of((4.0, 0.5, 0.5, 9.0)) == 1.5

    def test_zero_minimum_is_the_quadratic_weighted_mean(self):
        assert limit_of((3.0, 1.0, 0.0, 2.0, 4.0)) == 2.0
        assert limit_of((0.0, 0.0, 0.0)) == 1.0
        # Both q = 3 endpoints have mu = 1 + sqrt 3.
        assert limit_of((0.0, 0.0, 1.0)) == pytest.approx(Q3_CASE1_POSITIVE_J_LIMIT, rel=2e-16)
        assert limit_of((1.0, 0.0, 0.0)) == pytest.approx(Q3_CASE3_POSITIVE_J_LIMIT, rel=2e-16)

    @given(
        ints=st.lists(st.integers(-3, 3), min_size=2, max_size=40),
        shift=st.sampled_from(("none", "zero", "positive")),
    )
    @settings(max_examples=150, deadline=None)
    def test_large_beta_curve_converges_to_it(self, ints, shift):
        # Integer couplings keep every gap at least 1, so beta = 60 is within
        # exp(-60) of the limit.
        offset = {"none": 0, "zero": -min(ints), "positive": 1 - min(ints)}[shift]
        j = tuple(float(v + offset) for v in ints)
        q = len(j)
        far = per_capita_investment(ModelParams(q=q, beta=60.0, couplings=CouplingProfile(j)))
        assert abs(limit_of(j) - far) <= 1e-14 * (q - 1)
