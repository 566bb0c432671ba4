"""Exact investment curves from the two-class law, and endpoint classification."""

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
from pottsinvest.closedform import _two_class_curve

from oracles import secular_oracle


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


def two_branch_q3_case1(beta, j):
    """Case 1 as two formulas: direct in x = e^{-beta j} for j >= 0, else in t = e^{beta j}."""
    if j >= 0.0:
        val = naive_q3_case1(beta, j)
    else:
        t = math.exp(beta * j)
        root = math.sqrt(12.0 * t * t - 4.0 * t + 1.0)
        val = (t + 2.0 + (12.0 * t * t - 5.0 * t + 2.0) / root) / (1.0 + 2.0 * t + root)
    return min(2.0, max(0.0, val))


def two_branch_q3_case3(beta, j):
    """Case 3 as two formulas: direct in x = e^{-beta j} for j >= 0, else in t = e^{beta j}."""
    if j >= 0.0:
        val = naive_q3_case3(beta, j)
    else:
        t = math.exp(beta * j)
        root = math.sqrt(12.0 * t * t - 4.0 * t + 1.0)
        val = t * (3.0 + (12.0 * t - 3.0) / root) / (1.0 + 2.0 * t + root)
    return min(2.0, max(0.0, val))


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

    @pytest.mark.parametrize("beta", [0.15000000000000002, 1.1, 700.0, 745.0, 800.0, 1e4, 1e300])
    def test_equal_couplings_are_one_half_at_any_beta(self, beta):
        # Once beta |c| passes about 745 the scaled 1 / m underflows to 0,
        # and Theta with it: the radical was 0 / 0 there.  It also read
        # 0.5000000000000001 at beta 0.15000000000000002 (c = -2) and 1.1
        # (c = -0.3).
        for c in (-2.0, -1.0, -0.3, 0.0, 0.3, 2.0):
            assert investment_q2(beta, c, c) == 0.5

    def test_frozen_endpoints(self):
        # Favoured high level wins, favoured low level wins, both-positive ties.
        assert investment_q2(80.0, 1.0, -1.0) == pytest.approx(1.0, abs=1e-3)
        assert investment_q2(80.0, -1.0, 1.0) == pytest.approx(0.0, abs=1e-3)
        assert investment_q2(80.0, 2.0, 1.0) == pytest.approx(0.5, abs=1e-3)

    def test_survives_extreme_arguments(self):
        assert investment_q2(1000.0, -1.0, 1.0) == 0.0
        assert investment_q2(1000.0, 1.0, -1.0) == 1.0
        assert math.isfinite(investment_q2(5000.0, -3.0, -2.9))
        # beta J overflows to infinity; the favoured level still wins.
        assert investment_q2(1e300, 0.0, -1e300) == 1.0

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
        assert investment_q3_case1(1e300, -1e300) == 2.0

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
        assert investment_q3_case3(1e300, -1e300) == 0.0

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


class TestThreeLevelScaling:
    @given(
        beta=st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.floats(0.0, 10.0)),
        j=st.one_of(
            st.sampled_from([0.0, -0.0]), st.floats(-700.0, 700.0), st.floats(-5.0, 5.0)
        ),
    )
    @settings(max_examples=500, deadline=None)
    def test_the_law_is_within_1e15_of_the_two_branches(self, beta, j):
        # Both q = 3 curves are instances of the two-class law, which rounds
        # differently from the two transcribed branches.  The narrow ranges
        # keep beta |j| moderate, where rounding differences would show.
        assert abs(investment_q3_case1(beta, j) - two_branch_q3_case1(beta, j)) <= 2e-15
        assert abs(investment_q3_case3(beta, j) - two_branch_q3_case3(beta, j)) <= 2e-15


def two_valued(rng, q):
    """Couplings taking two values in [-3, 3] on a random partition of q levels.

    One of the values is 0 a quarter of the time, and the two are 1e-15 to
    1e-6 apart a fifth of the time; either class may be empty.
    """
    values = rng.uniform(-3.0, 3.0, 2)
    if rng.random() < 0.25:
        values[rng.integers(2)] = 0.0
    if rng.random() < 0.2:
        values[1] = values[0] + 10.0 ** rng.uniform(-15.0, -6.0)
    on_first = rng.random(q) < rng.uniform(0.0, 1.0)
    return tuple(float(v) for v in np.where(on_first, values[0], values[1]))


def params_for(j, beta=1.0, levels=None):
    return ModelParams(q=len(j), beta=beta, couplings=CouplingProfile(j), levels=levels)


class TestTwoClassLaw:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_secular_oracle(self, seed):
        rng = np.random.default_rng(900 + seed)
        for _ in range(50):
            j = two_valued(rng, int(rng.integers(2, 61)))
            p = params_for(j, float(10.0 ** rng.uniform(-3.0, 2.0)))
            got = _two_class_curve(p.levels, j)(p.beta)
            assert abs(got - secular_oracle(p)) <= 1e-14 * (len(j) - 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_capita_investment(self, seed):
        rng = np.random.default_rng(910 + seed)
        for _ in range(100):
            j = two_valued(rng, int(rng.integers(2, 201)))
            p = params_for(j, float(10.0 ** rng.uniform(-3.0, 3.0)))
            got = _two_class_curve(p.levels, j)(p.beta)
            assert abs(got - per_capita_investment(p)) <= 1e-14 * (len(j) - 1)

    def test_mirror_identity(self):
        # Reversing the couplings on levels 0..q-1 reflects l about (q - 1) / 2.
        rng = np.random.default_rng(920)
        for _ in range(300):
            q = int(rng.integers(2, 201))
            j = two_valued(rng, q)
            beta = float(10.0 ** rng.uniform(-3.0, 3.0))
            levels = params_for(j).levels
            pair = _two_class_curve(levels, j)(beta) + _two_class_curve(levels, j[::-1])(beta)
            assert abs(pair - (q - 1)) <= 1e-14 * (q - 1)

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    @pytest.mark.parametrize("beta", [1e3, 1e300])
    def test_large_beta_is_the_endpoint_law(self, shift, beta):
        # Integer couplings keep the spread at least 1, so by beta = 1e3 the
        # gap is exactly infinity, 1 or 0 as J_min is below, at or above 0.
        rng = np.random.default_rng(930 + shift)
        for _ in range(100):
            q = int(rng.integers(2, 61))
            low, high = sorted(rng.choice(7, 2, replace=False))
            on_low = rng.random(q) < 0.5
            on_low[rng.integers(q)] = True
            j = tuple(float(v) for v in np.where(on_low, low, high) - low + shift)
            levels = tuple(np.sort(rng.uniform(-5.0, 5.0, q)).tolist()) if q % 2 else None
            p = params_for(j, levels=levels)
            assert _two_class_curve(p.levels, j)(beta) == investment_at_beta_infinity(p)

    def test_beta_zero_is_the_level_mean(self):
        rng = np.random.default_rng(940)
        for _ in range(200):
            q = int(rng.integers(2, 201))
            levels = tuple(np.sort(rng.uniform(-5.0, 5.0, q)).tolist())
            assert _two_class_curve(levels, two_valued(rng, q))(0.0) == math.fsum(levels) / q

    @pytest.mark.parametrize("beta", [0.0, 0.7, 745.0, 1e300])
    def test_one_value_is_the_level_mean(self, beta):
        levels = tuple(float(d) for d in range(7))
        for c in (-2.0, 0.0, 3.0):
            assert _two_class_curve(levels, (c,) * 7)(beta) == 3.0

    def test_three_values_have_no_closed_form(self):
        with pytest.raises(ValueError, match="no closed form for couplings with 3 distinct values"):
            _two_class_curve((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 2.0, 0.0))

    def test_rejects_a_spread_that_overflows(self):
        with pytest.raises(ValueError, match="spread"):
            investment_q2(1.0, 1e308, -1e308)


class TestClassifyLimits:
    def test_unique_minimum(self):
        p = ModelParams(q=5, beta=1.0, couplings=CouplingProfile((3.0, 1.0, 0.0, 2.0, 4.0)))
        info = classify_limits(p)
        assert info == LimitClassification(
            beta_zero=2.0, beta_infinity=2.0, unique_min=True,
            law="coupling minimum 0 at level 2: root law",
        )

    def test_tied_minimum_is_unclassified(self):
        # No single level classifies a tied minimum, but its endpoint is
        # still exact: mu = (3 + sqrt 17) / 2, and l = ((mu + 1)^2 + 5 mu^2)
        # / (2 (mu + 1)^2 + 2 mu^2), correctly rounded.
        p = ModelParams(q=4, beta=1.0, couplings=CouplingProfile((0.0, 0.0, 1.0, 2.0)))
        info = classify_limits(p)
        assert info == LimitClassification(
            beta_zero=1.5, beta_infinity=1.257464374963667, unique_min=False,
            law="coupling minimum 0 at levels 0, 1: root law",
        )

    def test_each_law_names_itself(self):
        def law(j):
            return classify_limits(ModelParams(q=len(j), beta=1.0, couplings=CouplingProfile(j)))

        assert law((0.5, -1.0, 2.0)).law == "unique coupling minimum at level 1"
        tied = law((-1.0, 0.0, -1.0, 2.0))
        assert (tied.beta_infinity, tied.law) == (
            1.0, "coupling minimum below 0 at levels 0, 2: their mean"
        )
        above = law((1.0, 2.0, 1.0))
        assert (above.beta_infinity, above.law) == (
            1.0, "coupling minimum above 0: mean of all levels"
        )
        assert law((1.0, 0.0, 0.0)).law == "coupling minimum 0 at levels 1, 2: root law"

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
        assert limit_of((0.0, 0.0, 1.0)) == Q3_CASE1_POSITIVE_J_LIMIT
        assert limit_of((1.0, 0.0, 0.0)) == Q3_CASE3_POSITIVE_J_LIMIT

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

    @pytest.mark.parametrize("field,far_value", [(5.0, 7.2e-66), (-5.0, 1.0)])
    def test_refuses_a_biased_model(self, field, far_value):
        # The law is the zero-bias one: couplings (1, 2) give 0.5 there, but
        # a bias of +-5 drives l(beta = 50) to the bottom or the top level.
        p = ModelParams(q=2, beta=50.0, couplings=CouplingProfile((1.0, 2.0)), field=field)
        assert per_capita_investment(p) == pytest.approx(far_value, rel=1e-2)
        with pytest.raises(ValueError, match="zero-bias law"):
            investment_at_beta_infinity(p)
        with pytest.raises(ValueError, match="zero-bias law"):
            classify_limits(p)
