"""The exact investment estimator, its finite-difference cross-check, and sweeps."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottsinvest import (
    CouplingProfile,
    InvestmentCurve,
    ModelParams,
    StencilConfig,
    SweepError,
    build_matrix,
    central_difference,
    derivatives,
    investment_q2,
    investment_q3_case1,
    investment_q3_case2,
    investment_q3_case3,
    per_capita_investment,
    richardson_difference,
    sweep_curve,
)


def params_for(q, beta, couplings, field=0.0, levels=None):
    return ModelParams(
        q=q, beta=beta, couplings=CouplingProfile(tuple(couplings)),
        field=field, levels=levels,
    )


def analytic_bias_derivative_q2(beta, j0, j1):
    """d(lambda_1)/dD at D = 0 from the two-level radical, levels (0, 1)."""
    u = math.exp(-beta * j0)
    v = math.exp(-beta * j1)
    theta = (u - v) ** 2 + 4.0
    return -(beta / 2.0) * (v + (2.0 + v * v - u * v) / math.sqrt(theta))


def lambda_q2(beta, j0, j1):
    """Dominant eigenvalue of the two-level transfer matrix at zero bias."""
    u = math.exp(-beta * j0)
    v = math.exp(-beta * j1)
    return 0.5 * ((u + v) + math.sqrt((u - v) ** 2 + 4.0))


def analytic_investment_q2(beta, j0, j1):
    """-(d lambda_1 / dD) / (beta lambda_1) from the two-level radical."""
    return -analytic_bias_derivative_q2(beta, j0, j1) / (beta * lambda_q2(beta, j0, j1))


class TestStencils:
    def test_central_difference_kills_even_functions(self):
        assert central_difference(lambda x: x * x, 0.25) == 0.0

    def test_central_difference_linear_is_exact(self):
        assert central_difference(lambda x: 3.0 * x + 1.0, 0.1) == pytest.approx(3.0, rel=1e-14)

    def test_extrapolation_cancels_cubic_exactly(self):
        assert richardson_difference(lambda x: x**3, 0.5) == 0.0

    def test_extrapolation_exact_through_degree_four(self):
        f = lambda x: x**4 + 2.0 * x**3 - x
        assert richardson_difference(f, 0.5) == pytest.approx(-1.0, abs=1e-14)

    def test_extrapolation_error_scale_on_exponential(self):
        # Leading error xi^4 * f'''''(0) / 30 = 3.3e-6 at xi = 0.1.
        err = abs(richardson_difference(math.exp, 0.1) - 1.0)
        assert 2e-6 < err < 5e-6

    def test_fourth_order_error_ratio(self):
        f = lambda x: math.sin(x) + math.exp(2.0 * x)
        xi = 0.1
        e_coarse = abs(richardson_difference(f, xi) - 3.0)
        e_fine = abs(richardson_difference(f, xi / 2) - 3.0)
        assert 14.0 < e_coarse / e_fine < 18.0


class TestEigenDerivative:
    # l = -(d lambda_1 / dD) / (beta lambda_1), so a tolerance on the
    # derivative divides by beta lambda_1 (about 3.09 here) to become one on l.
    def test_two_point_matches_analytic(self):
        p = params_for(2, 1.0, (1.0, -1.0))
        want = analytic_investment_q2(1.0, 1.0, -1.0)
        got = per_capita_investment(p, StencilConfig(xi=1e-4, order="two_point"))
        assert got == pytest.approx(want, abs=1e-7 / (p.beta * lambda_q2(1.0, 1.0, -1.0)))

    def test_four_point_matches_analytic(self):
        p = params_for(2, 1.0, (1.0, -1.0))
        want = analytic_investment_q2(1.0, 1.0, -1.0)
        got = per_capita_investment(p, StencilConfig(xi=1e-4))
        assert got == pytest.approx(want, abs=1e-10 / (p.beta * lambda_q2(1.0, 1.0, -1.0)))

    def test_infinite_temperature_derivative_vanishes(self):
        # At beta = 0 the matrix is all ones for every bias offset, so the
        # stencil's difference of lambda_1 is exactly zero.
        p = params_for(4, 0.0, (1.0, -2.0, 0.5, 0.0))

        def f(offset):
            m = build_matrix(replace(p, field=offset), log_scale=0.0)
            return float(np.linalg.eigvalsh(m.entries)[-1])

        assert richardson_difference(f, StencilConfig().xi) == 0.0

    def test_requires_zero_bias(self):
        p = params_for(2, 1.0, (1.0, -1.0), field=0.5)
        with pytest.raises(ValueError, match="zero external bias"):
            per_capita_investment(p, StencilConfig(order="two_point"))

    def test_pinned_scale_leaves_investment_ratio_unchanged(self):
        p = params_for(3, 2.0, (0.0, 0.0, 1.0))
        cfg = StencilConfig()
        base = build_matrix(p)

        def ratio_at(scale):
            def f(offset):
                m = build_matrix(replace(p, field=offset), log_scale=scale)
                return float(np.linalg.eigvalsh(m.entries)[-1])

            return -richardson_difference(f, cfg.xi) / (p.beta * f(0.0))

        assert ratio_at(base.log_scale - 10.0) == pytest.approx(
            ratio_at(base.log_scale), rel=1e-11
        )
        assert ratio_at(base.log_scale) == pytest.approx(per_capita_investment(p, cfg), rel=1e-11)


class TestPerCapitaInvestment:
    def test_infinite_temperature_is_exact_mean(self):
        assert per_capita_investment(params_for(7, 0.0, range(7))) == 3.0
        assert per_capita_investment(params_for(2, 0.0, (5.0, -5.0))) == 0.5
        custom = params_for(3, 0.0, (1.0, 2.0, 3.0), levels=(-1.0, 0.0, 2.0))
        assert per_capita_investment(custom) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_rewarded_top_level_saturates(self):
        p = params_for(3, 20.0, (0.0, 0.0, -1.0))
        assert per_capita_investment(p) == pytest.approx(2.0, abs=1e-3)

    def test_matches_two_level_closed_form_on_grid(self):
        for beta in np.linspace(0.1, 10.0, 25):
            p = params_for(2, float(beta), (1.0, 2.0))
            want = investment_q2(float(beta), 1.0, 2.0)
            assert per_capita_investment(p) == pytest.approx(want, abs=1e-6)

    def test_two_point_order_is_honoured(self):
        p = params_for(2, 2.0, (1.0, -1.0))
        exact = investment_q2(2.0, 1.0, -1.0)
        coarse = StencilConfig(xi=1e-2, order="two_point")
        fine = StencilConfig(xi=1e-2, order="four_point")
        err2 = abs(per_capita_investment(p, coarse) - exact)
        err4 = abs(per_capita_investment(p, fine) - exact)
        assert err4 <= err2 + 1e-12

    @pytest.mark.parametrize(
        "q,couplings,closed",
        [
            (2, (1.0, -1.0), lambda b: investment_q2(b, 1.0, -1.0)),
            (2, (0.5, 0.5), lambda b: investment_q2(b, 0.5, 0.5)),
            (3, (0.0, 0.0, 1.0), lambda b: investment_q3_case1(b, 1.0)),
            (3, (0.0, 0.0, -1.0), lambda b: investment_q3_case1(b, -1.0)),
            (3, (0.0, 2.0, 0.0), lambda b: investment_q3_case2(b, 2.0)),
            (3, (1.0, 0.0, 0.0), lambda b: investment_q3_case3(b, 1.0)),
        ],
    )
    def test_extrapolated_never_loses_to_plain_stencil(self, q, couplings, closed):
        beta = 1.5
        p = params_for(q, beta, couplings)
        err2 = abs(per_capita_investment(p, StencilConfig(xi=1e-2, order="two_point")) - closed(beta))
        err4 = abs(per_capita_investment(p, StencilConfig(xi=1e-2, order="four_point")) - closed(beta))
        assert err4 <= err2 + 1e-12

    @pytest.mark.parametrize(
        "q,couplings,closed",
        [
            (2, (1.0, -1.0), lambda b: investment_q2(b, 1.0, -1.0)),
            (3, (0.0, 0.0, 1.0), lambda b: investment_q3_case1(b, 1.0)),
        ],
    )
    def test_step_halving_is_stable(self, q, couplings, closed):
        p = params_for(q, 2.0, couplings)
        at_xi = per_capita_investment(p, StencilConfig(xi=1e-4))
        at_half = per_capita_investment(p, StencilConfig(xi=5e-5))
        assert abs(at_xi - at_half) <= 1e-8

    def test_requires_zero_bias(self):
        p = params_for(2, 1.0, (1.0, -1.0), field=0.1)
        with pytest.raises(ValueError, match="zero external bias"):
            per_capita_investment(p)

    @pytest.mark.parametrize(
        "q,couplings,closed",
        [
            (2, (1.0, -1.0), lambda b: investment_q2(b, 1.0, -1.0)),
            (2, (1.0, 2.0), lambda b: investment_q2(b, 1.0, 2.0)),
            (3, (0.0, 0.0, 1.0), lambda b: investment_q3_case1(b, 1.0)),
            (3, (0.0, 0.0, -1.0), lambda b: investment_q3_case1(b, -1.0)),
            (3, (0.0, 2.0, 0.0), lambda b: investment_q3_case2(b, 2.0)),
            (3, (1.0, 0.0, 0.0), lambda b: investment_q3_case3(b, 1.0)),
            (3, (-1.0, 0.0, 0.0), lambda b: investment_q3_case3(b, -1.0)),
        ],
    )
    def test_exact_path_matches_closed_forms(self, q, couplings, closed):
        for beta in np.geomspace(0.01, 300.0, 60):
            got = per_capita_investment(params_for(q, float(beta), couplings))
            assert got == pytest.approx(closed(float(beta)), abs=1e-14)

    @pytest.mark.parametrize("beta", [40.0, 1000.0])
    def test_tied_minimum_gives_half(self, beta):
        # Levels 0 and 1 share the minimum, so they split the weight evenly.
        assert per_capita_investment(params_for(3, beta, (-1.0, -1.0, 0.0))) == 0.5

    def test_near_tied_minimum(self):
        # The 1e-9 split gives level 1 a gap of about 9.7 at beta = 20.
        p = params_for(3, 20.0, (-1.0, -1.0 + 1e-9, 0.0))
        assert per_capita_investment(p) == pytest.approx(0.010294029868283, abs=1e-12)

    def test_rounding_is_clamped_to_the_level_range(self, monkeypatch):
        # Weight on the top level alone can round the ratio past d_{q-1}:
        # 9 w^2 / w^2 evaluates to 9.000000000000002 at w = 0.67925.
        vector = np.zeros(10)
        vector[-1] = 0.67925
        monkeypatch.setattr(derivatives, "dominant_eigenvalue", lambda params: (0.0, vector))
        assert per_capita_investment(params_for(10, 1.0, range(10))) == 9.0


# Integer couplings in [-3, 3] make tied minima common.
coupling_values = st.integers(-3, 3).map(float)
integer_couplings = st.lists(coupling_values, min_size=2, max_size=60)
palindrome_halves = st.lists(coupling_values, min_size=2, max_size=30)
beta_values = st.floats(0.0, 1e3)


class TestExactProperties:
    """Identities of l(beta) over the regime map, ties included."""

    @given(couplings=integer_couplings, beta=beta_values)
    @settings(max_examples=300, deadline=None)
    def test_within_level_bounds(self, couplings, beta):
        q = len(couplings)
        l = per_capita_investment(params_for(q, beta, couplings))
        assert 0.0 <= l <= q - 1

    @given(couplings=integer_couplings, beta=beta_values)
    @settings(max_examples=300, deadline=None)
    def test_mirror_identity(self, couplings, beta):
        # Reversing the couplings mirrors the levels: l(J) + l(reversed J) = q - 1.
        q = len(couplings)
        forward = per_capita_investment(params_for(q, beta, couplings))
        mirrored = per_capita_investment(params_for(q, beta, couplings[::-1]))
        assert abs(forward + mirrored - (q - 1)) <= 1e-12 * (q - 1)

    @given(half=palindrome_halves, odd=st.booleans(), beta=beta_values)
    @settings(max_examples=300, deadline=None)
    def test_palindrome_sits_at_the_middle(self, half, odd, beta):
        couplings = half + half[-2::-1] if odd else half + half[::-1]
        q = len(couplings)
        l = per_capita_investment(params_for(q, beta, couplings))
        assert abs(l - (q - 1) / 2) <= 1e-12 * q


class TestSweepCurve:
    def test_single_zero_point(self):
        curve = sweep_curve(params_for(4, 0.0, range(4)), [0.0])
        assert curve.points == ((0.0, 1.5),)
        assert curve.method == "numeric"

    def test_constant_case_on_log_grid(self):
        p = params_for(3, 0.0, (0.0, 2.0, 0.0))
        betas = np.geomspace(0.01, 20.0, 50)
        curve = sweep_curve(p, betas)
        assert all(abs(l - 1.0) <= 1e-7 for _, l in curve.points)

    def test_snapshot_strips_beta(self):
        p = params_for(2, 0.0, (1.0, -1.0))
        curve = sweep_curve(p, [0.0, 1.0, 2.0])
        assert curve.params_snapshot.beta == 0.0
        assert curve.params_snapshot.couplings.values == (1.0, -1.0)
        assert curve.seed is None
        assert [b for b, _ in curve.points] == [0.0, 1.0, 2.0]

    def test_values_stay_in_level_range(self):
        j = tuple(-float(k + 1) for k in range(10))
        curve = sweep_curve(params_for(10, 0.0, j), np.linspace(0.0, 10.0, 21))
        for _, l in curve.points:
            assert -1e-8 <= l <= 9.0 + 1e-8

    def test_rejects_bad_grids(self):
        p = params_for(2, 0.0, (1.0, -1.0))
        with pytest.raises(ValueError):
            sweep_curve(p, [])
        with pytest.raises(ValueError):
            sweep_curve(p, [-1.0, 0.0])
        with pytest.raises(ValueError):
            sweep_curve(p, [0.0, 1.0, 1.0])

    def test_failure_names_the_grid_point(self):
        p = params_for(2, 0.0, (-1e308, 0.0))
        with pytest.raises(SweepError) as info:
            sweep_curve(p, [0.5, 2.0])
        assert info.value.beta == 2.0
        assert info.value.seed is None
        assert "beta=2.0" in str(info.value)


class TestStencilConfig:
    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            StencilConfig(xi=0.0)
        with pytest.raises(ValueError):
            StencilConfig(xi=math.inf)
        with pytest.raises(ValueError):
            StencilConfig(order="five_point")

    def test_defaults(self):
        cfg = StencilConfig()
        assert cfg.xi == 1e-4
        assert cfg.order == "four_point"
