"""The exact investment estimator, its finite-difference cross-check, and sweeps."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pottsinvest import (
    CouplingProfile,
    InvestmentCurve,
    ModelParams,
    StencilConfig,
    SweepError,
    central_difference,
    derivatives,
    dominant_eigenvalue,
    ensemble_sweep,
    investment_q2,
    investment_q3_case1,
    investment_q3_case2,
    investment_q3_case3,
    log_partition_function,
    per_capita_investment,
    richardson_difference,
    sweep_curve,
)
from oracles import dense_matrix, secular_oracle, secular_solution

# The decimal oracle costs up to a second per call at large beta, and the
# known-limit inputs are checked by three tests.
cached_solution = functools.cache(secular_solution)


def params_for(q, beta, couplings, field=0.0, levels=None):
    return ModelParams(
        q=q, beta=beta, couplings=CouplingProfile(tuple(couplings)),
        field=field, levels=levels,
    )


def oracle_draw(seed):
    """The biased model of ``seed``: q in 2..20, J and D uniform, beta log-uniform to 40."""
    rng = np.random.default_rng(seed)
    q = int(rng.integers(2, 21))
    couplings = rng.uniform(-2.0, 2.0, q)
    field = float(rng.uniform(-1.0, 1.0))
    beta = 10.0 ** rng.uniform(-2.0, 1.6)
    return params_for(q, beta, couplings, field=field)


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
        # stencil's difference of log lambda_1 is exactly zero.
        p = params_for(4, 0.0, (1.0, -2.0, 0.5, 0.0))

        def f(offset):
            entries, log_scale = dense_matrix(replace(p, field=offset))
            return math.log(np.linalg.eigvalsh(entries)[-1]) + log_scale

        assert richardson_difference(f, StencilConfig().xi) == 0.0

    def test_needs_no_dense_eigensolver(self, monkeypatch):
        # Each stencil point's log lambda_1 comes from the secular solve.
        def refuse(a):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        p = params_for(2, 1.0, (1.0, -1.0))
        want = analytic_investment_q2(1.0, 1.0, -1.0)
        assert per_capita_investment(p, StencilConfig()) == pytest.approx(want, abs=1e-10)

    def test_log_difference_matches_shared_scale_ratio(self):
        # The paper's form: difference lambda_1 itself, every matrix rescaled
        # to the zero-bias scale, and divide by beta lambda_1.
        p = params_for(3, 2.0, (0.0, 0.0, 1.0))
        cfg = StencilConfig()
        _, s0 = dense_matrix(p)

        def f(offset):
            entries, log_scale = dense_matrix(replace(p, field=offset))
            return float(np.linalg.eigvalsh(entries * math.exp(log_scale - s0))[-1])

        ratio = -richardson_difference(f, cfg.xi) / (p.beta * f(0.0))
        assert ratio == pytest.approx(per_capita_investment(p, cfg), rel=1e-11)


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
        assert per_capita_investment(p) == pytest.approx(0.010294028538905504, abs=1e-12)

    def test_rounding_is_clamped_to_the_level_range(self, monkeypatch):
        # Weight on the top level alone can round the ratio past d_{q-1}:
        # 9 w^2 / w^2 evaluates to 9.000000000000002 at w = 0.67925.
        # The zero-bias solve gives v = 1 / (root + gaps): a root of 0 and
        # gaps of inf but on the top level make v that vector.
        gaps = np.full(10, math.inf)
        gaps[-1] = 1.0 / 0.67925
        weights = (1.0 / gaps) ** 2
        monkeypatch.setattr(
            derivatives,
            "_secular_root",
            lambda j_span, j_min, neg_beta: (weights, float(weights.sum())),
        )
        p = params_for(10, 1.0, range(10))
        assert per_capita_investment(p) == 9.0
        assert sweep_curve(p, [1.0]).points == ((1.0, 9.0),)
        # The same pair from the lane block of an ensemble, one seed at
        # two betas; l is formed in place in the block handed back.
        block = np.tile(weights, (1, 2, 1)), np.full((1, 2), weights.sum())
        monkeypatch.setattr(derivatives, "_secular_lanes", lambda j_span, j_min, neg_beta: block)
        assert ensemble_sweep(10, [1], [1.0, 2.0]).curves[0].points == ((1.0, 9.0), (2.0, 9.0))


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


class TestNearTiedMinima:
    """l against the decimal oracle where the coupling minimum is tied or split by a hair."""

    @pytest.mark.parametrize(
        "couplings,beta,want",
        # The exact values for these float inputs; forming the gaps from
        # fl(-beta J) gave 0.02012107892487049 for the first.
        [
            ((-3.0, -2.999999999999999, 0.0), 11.5, 0.010047055874300236),
            ((-1.0, -1.0 + 1e-9, 0.0), 20.0, 0.010294028538905504),
        ],
    )
    def test_oracle_reproduces_the_exact_values(self, couplings, beta, want):
        assert secular_oracle(params_for(3, beta, couplings)) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("field", [0.0, 1e-300])
    def test_an_ulp_split_whose_exponents_round_to_a_tie(self, field):
        # -beta J rounds the two least couplings, an ulp apart, to one
        # float.  The lesser, level 1, still holds the top diagonal entry
        # alone, so l = 1 to far below rounding; taking level 0 as the top
        # and its neighbour as tied to it gave l = 0.5 at D = 1e-300.
        a, beta = -1.8158535541215322, 50.41077502552221
        b = math.nextafter(a, math.inf)
        assert -beta * a == -beta * b
        p = params_for(3, beta, (b, a, 0.0), field=field)
        want = secular_oracle(p)
        assert want == pytest.approx(1.0, abs=1e-15)
        assert abs(per_capita_investment(p) - want) <= 1e-14 * 2

    def test_a_near_tie_split_by_the_bias(self):
        # Levels 0 and 3 tie in J and the bias 1e-14 splits them, so the
        # gaps must come from coupling and level differences: exponents
        # formed from the rounded energies J + D d are off by 1.8e-8 here.
        p = params_for(4, 10.0**0.75, (-3.0, 0.0, 0.0, -3.0), field=1e-14)
        want = secular_oracle(p)
        assert want == pytest.approx(1.4999973156786137, abs=1e-15)
        assert abs(per_capita_investment(p) - want) <= 1e-14 * 3

    @given(
        couplings=st.lists(coupling_values, min_size=2, max_size=24),
        decades=st.floats(6.0, 15.0),
        below=st.booleans(),
        beta=st.floats(0.1, 200.0),
        field=st.sampled_from([0.0, 1e-300]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_decimal_oracle(self, couplings, decades, below, beta, field, data):
        # Zero bias takes the unweighted solve and D = 1e-300 the weighted
        # one; the block kernel gets the gaps -beta (J - J_min) that
        # ensemble sweeps pass it.
        q, couplings = len(couplings), list(couplings)
        m = int(np.argmin(couplings))
        k = (m + data.draw(st.integers(1, q - 1))) % q
        couplings[k] = couplings[m] + (-1.0 if below else 1.0) * 10.0**-decades
        p = params_for(q, beta, couplings, field=field)
        want = secular_oracle(p)
        assert abs(per_capita_investment(p) - want) <= 1e-14 * (q - 1)
        lane = derivatives._sweep_lanes((0,), np.array([couplings]), p.levels, [beta])
        assert abs(float(lane[0, 0]) - want) <= 1e-14 * (q - 1)


# Inputs where the biased solve is wrong today, with the oracle's exact l
# (README "Known limits", ROADMAP items 1 and 12).  In (0, 1, -5, -7) and
# the last four a weight below the 1e-300 floor decides a crossing of two
# uniform states; the mirror of seed 48942 lies near a crossing of a
# uniform state with the alternating pair state, and the rest are at one.
SEED_48942 = oracle_draw(48942)
KNOWN_LIMITS = [
    pytest.param((2.0, 0.0, -3.0), 2.0, beta, (5.0 - math.sqrt(3.0)) / 4.0,
                 id=f"J=(2,0,-3),D=2,beta={beta:g}")
    for beta in (40.0, 60.0, 300.0)
] + [
    pytest.param((-3.0, -3.0, 2.0, 2.0), -2.0, 50.4, 2.0, id="J=(-3,-3,2,2),D=-2,beta=50.4"),
    pytest.param((-3.0, 2.0, 2.0), -2.0, 117.75, 1.0, id="J=(-3,2,2),D=-2,beta=117.75"),
    pytest.param((3.0, 0.0, -3.0), 2.0, 63.4, 1.0, id="J=(3,0,-3),D=2,beta=63.4"),
    pytest.param((-3.0, -3.0, -3.0, 2.0, 2.0), -2.0, 103.8, 3.0,
                 id="J=(-3,-3,-3,2,2),D=-2,beta=103.8"),
    pytest.param((3.0, 0.0, -3.0, 1.0, 3.0), 2.0, 422.0, 1.0, id="J=(3,0,-3,1,3),D=2,beta=422"),
    pytest.param((0.0, 1.0, -5.0, -7.0), 2.0, 117.78603803622242, 2.276393202250021,
                 id="J=(0,1,-5,-7),D=2,beta=117.786"),
    # J(2) + 2 D = 1 = D (d_0 + d_1) / 2: the crossing is exact at every beta.
    pytest.param((3.0, 3.0, -3.0, 3.0, 2.0), 2.0, 12.5, 1.2499988471239374,
                 id="J=(3,3,-3,3,2),D=2,beta=12.5"),
    pytest.param((3.0, 3.0, -3.0, 3.0, 2.0), 2.0, 20.0, 1.2499999993623632,
                 id="J=(3,3,-3,3,2),D=2,beta=20"),
    pytest.param((2.0, 1.0, -3.0, 2.0, -2.0, -3.0), 2.0, 122.5765764208523, 1.0,
                 id="J=(2,1,-3,2,-2,-3),D=2,beta=122.577"),
    # The mirror of seed 48942 of test_matches_the_secular_oracle, where
    # level 3's uniform state lies 1e-3 above the pair state of levels 0
    # and 1.  The seed's own draw, checked as the mirror here, returns l
    # 7.7e-13 above 18.47062255326622, since the exponents y - t round at
    # the size of t, near 161; this side is 2e-14 off.
    pytest.param(SEED_48942.couplings.values[::-1], -SEED_48942.field, SEED_48942.beta,
                 0.5293774467337804, id="J=reversed(seed 48942),D=0.783,beta=11.126"),
] + [
    # Levels 0 and 5 tie in J + D d, and level 5's scaled weight,
    # e^(-12 beta), is below the floor, which then decides the split: l is
    # all but 0, and the solve returns 2.5.
    pytest.param((-2.0, -1.0, -3.0, 0.0, 2.0, -12.0), 2.0, beta, want,
                 id=f"J=(-2,-1,-3,0,2,-12),D=2,beta={beta:g}")
    for beta, want in (
        (80.0, 1.6287442661037608e-69),
        (100.0, 6.919482633683687e-87),
        (115.91, 1.0491152729964389e-100),
        (130.0, 6.059052415414287e-113),
    )
]

# Each known limit and its mirror as (couplings, D, beta), but for the three
# where dominant_eigenvalue raises ConvergenceError.
KNOWN_LIMIT_EIGENVALUES = [
    pytest.param(j, d, case.values[2], id=case.id + side)
    for case in KNOWN_LIMITS
    for side, j, d in (("", *case.values[:2]), (",mirror", case.values[0][::-1], -case.values[1]))
    if (j, d, case.values[2]) not in {
        ((2.0, 0.0, -3.0), 2.0, 60.0),
        ((2.0, 2.0, -3.0), 2.0, 117.75),
        ((3.0, 0.0, -3.0, 1.0, 3.0), 2.0, 422.0),
    }
]


class TestBiasedInvestment:
    """l(beta, D) = sum_a d_a v_a^2 at nonzero bias, ties included."""

    # A rounding of one entry turns a dominant eigenvector by about 2^-52
    # over the relative spectral gap (Davis-Kahan), so the reference matrix
    # rounds each entry once, from exact exponents.  Near a tie, or where the
    # bias makes two levels cross, l is only as good as that, so errors are
    # weighted down by the gap below 0.1.  At couplings (0, 0, -2, 0, -2),
    # beta = 10 and D = 5e-231 the gap is 4.1e-9 and eigh's l is 1.1e-7 off;
    # at (-1, 0, 0, 0, -1) and gap 9.1e-5 it is 4.9e-12 off, and l is exact
    # to 7e-57 against a 60-digit reference.

    @given(
        couplings=st.lists(coupling_values, min_size=2, max_size=40),
        log_beta=st.floats(-3.0, 3.0),
        field=st.floats(-1.0, 1.0).filter(lambda d: d != 0.0),
    )
    # 2 x 2 start 4.5e-13 above the root: one Newton step down, and l must
    # come from a pass at the root, not the start's (4.500000000000228).
    @example(couplings=[0.0, 0.0, 0.0, 0.0, 0.0, 1.0], log_beta=3.0, field=-0.9353110122076953)
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_hellmann_feynman(self, couplings, log_beta, field):
        q = len(couplings)
        p = params_for(q, 10.0**log_beta, couplings, field=field)
        values, vectors = np.linalg.eigh(dense_matrix(p, exact_exponents=True)[0])
        v = vectors[:, -1]
        want = float(np.dot(p.levels, v * v))
        gap = (values[-1] - values[-2]) / values[-1]
        err = abs(per_capita_investment(p) - want)
        assert err * min(1.0, gap / 0.1) <= 1e-14 * (q - 1)

    @given(couplings=integer_couplings, beta=beta_values, field=st.floats(-1.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_within_level_bounds(self, couplings, beta, field):
        q = len(couplings)
        l = per_capita_investment(params_for(q, beta, couplings, field=field))
        assert 0.0 <= l <= q - 1

    @given(couplings=integer_couplings, beta=beta_values, field=st.floats(-1.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_mirror_identity(self, couplings, beta, field):
        # Mirroring the levels reverses the couplings and the bias's sign.  A
        # level that the bias ties with another, such as levels 0 and 4 of
        # (-1, 0, 0, 0, -3) at D = 1/2, stays tied in one rounding of the
        # diagonal exponents but not in the mirrored one, so the gap weighs
        # the error as above.
        q = len(couplings)
        p = params_for(q, beta, couplings, field=field)
        forward = per_capita_investment(p)
        mirrored = per_capita_investment(params_for(q, beta, couplings[::-1], field=-field))
        values = np.linalg.eigvalsh(dense_matrix(p)[0])
        gap = (values[-1] - values[-2]) / values[-1]
        assert abs(forward + mirrored - (q - 1)) * min(1.0, gap / 0.1) <= 1e-12 * (q - 1)

    @given(
        couplings=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=10),
        beta=st.floats(0.01, 30.0),
        field=st.floats(-1.0, 1.0).filter(lambda d: d != 0.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_stencil_matches_hellmann_feynman(self, couplings, beta, field):
        q = len(couplings)
        p = params_for(q, beta, couplings, field=field)
        cfg = StencilConfig()
        err = abs(per_capita_investment(p, cfg) - per_capita_investment(p))
        # The stencil's truncation error grows as r^4 with r = xi beta (q - 1)
        # / gap, the largest shift of a diagonal exponent against the relative
        # spectral gap.  Near a tie or a crossing that is the method's own
        # error (2.3e-4 at gap 1.1e-2, beta = 17.7, q = 8, D = 0.73, with
        # eigvalsh in place of the secular solve too), so it is weighted down
        # once r exceeds 1e-2.
        values = np.linalg.eigvalsh(dense_matrix(p)[0])
        gap = (values[-1] - values[-2]) / values[-1]
        assert err * min(1.0, gap / (1e2 * cfg.xi * beta * (q - 1))) ** 4 <= 1e-7

    @given(
        couplings=st.one_of(
            st.lists(coupling_values, min_size=2, max_size=12),
            st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=12),
        ),
        beta=st.floats(0.01, 30.0),
        field=st.floats(-1.0, 1.0).filter(lambda d: d != 0.0),
        order=st.sampled_from(["two_point", "four_point"]),
        xi=st.sampled_from([1e-6, 1e-4, 1e-2]),
    )
    @settings(max_examples=200, deadline=None)
    def test_stencil_is_the_bias_difference_of_dominant_eigenvalue(
        self, couplings, beta, field, order, xi
    ):
        # The public definition of the cross-check, bit for bit: the bias
        # difference of log lambda_1 from dominant_eigenvalue, over -beta.
        p = params_for(len(couplings), beta, couplings, field=field)
        cfg = StencilConfig(xi=xi, order=order)
        diff = central_difference if order == "two_point" else richardson_difference

        def f(offset):
            return dominant_eigenvalue(replace(p, field=p.field + offset))[0]

        assert per_capita_investment(p, cfg) == -diff(f, cfg.xi) / p.beta

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_secular_oracle(self, seed):
        # Continuous draws land on no exact crossing of two states, where
        # the known limits below live.  The oracle solves the same secular
        # equation in decimal arithmetic, so no spectral gap weighs the error.
        p = oracle_draw(seed)
        assert abs(per_capita_investment(p) - secular_oracle(p)) <= 1e-14 * (p.q - 1)

    def test_crossing_of_two_uniform_states(self):
        # J + D d is -2 at levels 0 and 2, so their uniform states cross and
        # l is their mean level; mpmath eigsy at 300 and 600 digits agrees.
        # A scale and gaps anchored at levels an ulp apart pick level 0
        # alone, and give 6.33e-48.
        p = params_for(4, 109.37205691948307, (-2.0, 1.0, -3.0, -2.0), field=0.5)
        want = secular_oracle(p)
        assert want == pytest.approx(1.0, abs=1e-15)
        assert abs(per_capita_investment(p) - want) <= 1e-14 * 3

    @pytest.mark.parametrize(
        "couplings,field,beta,want",
        # Two uniform states of equal energy J(a) + D d_a hold the top of the
        # diagonal, so l is the mean of their levels.  A scale and gaps
        # anchored at levels an ulp apart split them, and give 2.2e-33,
        # 1.0, 7.5e-50, 1.0, 3.0 and 3.0.
        [
            ((-2.0, -3.0), 1.0, 75.21085970476601, 0.5),
            ((-1.0, -3.0), 2.0, 47.510651315828014, 0.5),
            ((-3.0, -2.0, -7.0), 2.0, 28.451189858987007, 1.0),
            ((3.0, -7.0, 0.0, -3.0), -2.0, 20.177146452672773, 2.0),
            ((-9.0, -2.0, -3.0, -3.0), -2.0, 119.79794465871421, 1.5),
            ((-2.0, -3.0, -2.5, 2.0), -0.5, 149.02444212935856, 1.5),
        ],
    )
    def test_exact_uniform_crossings_and_their_mirrors(self, couplings, field, beta, want):
        # The mirror, reversed couplings at bias -D, is the same crossing
        # seen from the other end of the levels, so it gives q - 1 - l.
        q = len(couplings)
        p = params_for(q, beta, couplings, field=field)
        mirror = params_for(q, beta, couplings[::-1], field=-field)
        assert secular_oracle(p) == pytest.approx(want, abs=1e-15)
        assert secular_oracle(mirror) == pytest.approx(q - 1 - want, abs=1e-15)
        forward, mirrored = per_capita_investment(p), per_capita_investment(mirror)
        assert abs(forward - secular_oracle(p)) <= 1e-14 * (q - 1)
        assert abs(mirrored - secular_oracle(mirror)) <= 1e-14 * (q - 1)
        assert abs(forward + mirrored - (q - 1)) <= 1e-14 * (q - 1)

    @pytest.mark.parametrize("couplings,field,beta,want", KNOWN_LIMITS)
    def test_oracle_settles_on_the_known_limits(self, couplings, field, beta, want):
        q = len(couplings)
        p = params_for(q, beta, couplings, field=field)
        mirror = params_for(q, beta, couplings[::-1], field=-field)
        assert cached_solution(p)[0] == pytest.approx(want, abs=1e-15)
        assert cached_solution(mirror)[0] == pytest.approx(q - 1 - want, abs=1e-15)

    # A uniform state crossing the alternating pair state, or a crossing
    # that a weight floored at 1e-300 decides, gives a wrong l or raises
    # ConvergenceError (README "Known limits").  Once the solve mends a
    # case it passes, the strict mark fails the suite, and the case's mark
    # comes off.
    @pytest.mark.xfail(strict=True, reason="biased crossings the solve gets wrong")
    @pytest.mark.parametrize("couplings,field,beta,want", KNOWN_LIMITS)
    def test_known_limits(self, couplings, field, beta, want):
        q = len(couplings)
        p = params_for(q, beta, couplings, field=field)
        mirror = params_for(q, beta, couplings[::-1], field=-field)
        forward, mirrored = per_capita_investment(p), per_capita_investment(mirror)
        assert abs(forward - cached_solution(p)[0]) <= 1e-14 * (q - 1)
        assert abs(mirrored - cached_solution(mirror)[0]) <= 1e-14 * (q - 1)
        assert abs(forward + mirrored - (q - 1)) <= 1e-14 * (q - 1)

    # Where l goes wrong, lambda_1 is still well conditioned, and log Z_N
    # with it: its log is within 4 eps of the decimal one.
    @pytest.mark.parametrize("couplings,field,beta", KNOWN_LIMIT_EIGENVALUES)
    def test_log_lambda_is_exact_at_the_known_limits(self, couplings, field, beta):
        p = params_for(len(couplings), beta, couplings, field=field)
        want = cached_solution(p)[1]
        assert abs(dominant_eigenvalue(p)[0] - want) <= 4.0 * 2.0**-52 * abs(want)

    @pytest.mark.parametrize("couplings,field", [((-2.0, -1.0), -1.0), ((-1.0, -2.0), 1.0)])
    def test_bias_tie_with_underflowing_weights_splits_evenly(self, couplings, field):
        p = params_for(2, 249.0, couplings, field=field)
        assert per_capita_investment(p) == pytest.approx(0.5, abs=1e-15)

    def test_sweep_is_per_point_calls(self):
        p = params_for(10, 0.0, [-float(k + 1) for k in range(10)], field=0.4)
        betas = np.linspace(0.0, 10.0, 50)
        curve = sweep_curve(p, betas)
        want = tuple((float(b), per_capita_investment(replace(p, beta=float(b)))) for b in betas)
        assert curve.points == want
        assert curve.params_snapshot.field == 0.4


class TestExtremeBias:
    """A bias that overflows a secular weight fails loudly; log Z falls back."""

    # Level 1's weight, e^750 after scaling by the largest entry, overflows.
    P = params_for(2, 1000.0, (0.0, 1.0), field=-1.5)

    def test_investment_raises(self):
        with pytest.raises(ValueError, match="overflow"):
            per_capita_investment(self.P)

    def test_sweep_names_the_beta(self):
        with pytest.raises(SweepError) as info:
            sweep_curve(self.P, [1.0, 1000.0])
        assert info.value.beta == 1000.0
        assert "beta=1000.0" in str(info.value)

    def test_log_partition_function_takes_the_full_spectrum(self):
        # Tr M^2 = 1 + 2 e^1500 + e^1000.
        assert log_partition_function(self.P, 2) == pytest.approx(1500.0 + math.log(2.0), rel=1e-15)


class TestSweepCurve:
    def test_single_zero_point(self):
        curve = sweep_curve(params_for(4, 0.0, range(4)), [0.0])
        assert curve.points == ((0.0, 1.5),)

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

    # A str or bytes grid would sweep its characters or bytes, "12" as
    # beta = 1, 2 and b"05" as 48, 53, and bools would sweep as 0 and 1.
    @pytest.mark.parametrize(
        "grid", ["12", "05", b"05", [False, True], [0.5, True], np.array([False, True])]
    )
    def test_rejects_strings_and_bools(self, grid):
        with pytest.raises(ValueError, match="str or bytes|bools"):
            sweep_curve(params_for(2, 0.0, (1.0, -1.0)), grid)

    def test_failure_names_the_grid_point(self):
        p = params_for(2, 0.0, (-1e308, 0.0))
        with pytest.raises(SweepError) as info:
            sweep_curve(p, [0.5, 2.0])
        assert info.value.beta == 2.0
        assert info.value.seed is None
        assert "beta=2.0" in str(info.value)

    def test_overflow_is_caught_at_the_first_beta_that_overflows(self):
        # -beta J_min = 1e308 still fits at beta = 1 and overflows at 2.
        p = params_for(2, 0.0, (-1e308, 0.0))
        assert per_capita_investment(replace(p, beta=1.0)) == 0.0
        with pytest.raises(SweepError) as info:
            sweep_curve(p, (0.5, 1.0, 2.0))
        assert info.value.beta == 2.0
        assert isinstance(info.value.__cause__, ValueError)
        assert "overflow" in str(info.value.__cause__)

    @pytest.mark.parametrize("field", [0.0, 0.4])
    def test_one_model_build_per_curve(self, monkeypatch, field):
        # Only the snapshot builds a ModelParams; no beta of the grid does.
        p = params_for(10, 0.0, [-float(k + 1) for k in range(10)], field=field)
        builds = []
        post_init = ModelParams.__post_init__

        def counted(self):
            builds.append(self.beta)
            post_init(self)

        monkeypatch.setattr(ModelParams, "__post_init__", counted)
        curve = sweep_curve(p, np.linspace(0.0, 10.0, 200))
        assert len(curve.points) == 200
        assert builds == [0.0]

    @given(
        q=st.integers(2, 200),
        integer=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        split=st.sampled_from([None, 0.0, 1e-9, -1e-9]),
        overflow=st.sampled_from([False, False, False, True]),
        field=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
        betas=st.lists(beta_values, min_size=1, max_size=8, unique=True).map(sorted),
    )
    @settings(max_examples=200, deadline=None)
    def test_points_are_the_per_point_values_bit_for_bit(
        self, q, integer, seed, split, overflow, field, betas
    ):
        # Integer couplings in [-3, 3] tie often; a split of 0 or 1e-9 ties
        # or near-ties the minimum with another level; J = -1e306 at one
        # level overflows -beta J past beta = 180.  The sweep must round
        # exactly as one call per beta, and fail at the same beta with the
        # same error.
        rng = np.random.default_rng(seed)
        couplings = rng.integers(-3, 4, q).astype(float) if integer else rng.uniform(-3.0, 3.0, q)
        m = int(np.argmin(couplings))
        if split is not None:
            couplings[(m + rng.integers(1, q)) % q] = couplings[m] + split
        if overflow:
            couplings[rng.integers(q)] = -1e306
        p = params_for(q, 0.0, couplings, field=field)
        want, failure = [], None
        for b in betas:
            try:
                want.append(per_capita_investment(replace(p, beta=b)))
            except Exception as exc:
                failure = (b, type(exc), str(exc))
                break
        if failure is None:
            curve = sweep_curve(p, betas)
            assert [b for b, _ in curve.points] == betas
            assert all(type(l) is float for _, l in curve.points)
            assert [l.hex() for _, l in curve.points] == [l.hex() for l in want]
        else:
            with pytest.raises(SweepError) as info:
                sweep_curve(p, betas)
            cause = info.value.__cause__
            assert (info.value.beta, type(cause), str(cause)) == failure


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
