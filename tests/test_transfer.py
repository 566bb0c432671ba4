"""Transfer-matrix construction, scaling policy, the secular solve and log Z."""

import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pottsinvest import (
    ConvergenceError,
    CouplingProfile,
    ModelParams,
    dominant_eigenvalue,
    log_partition_function,
    partition_function_bruteforce,
    per_capita_investment,
    transfer,
)
from oracles import dense_matrix, zero_bias_gap


def params_for(q, beta, couplings, field=0.0):
    return ModelParams(q=q, beta=beta, couplings=CouplingProfile(tuple(couplings)), field=field)


def raw_matrix(p):
    entries, log_scale = dense_matrix(p)
    return entries * math.exp(log_scale)


def logsumexp(x):
    top = float(np.max(x))
    return top + math.log(float(np.sum(np.exp(x - top))))


class TestBuildMatrix:
    """The dense reference matrix against the entries' closed forms."""

    def test_infinite_temperature_gives_all_ones(self):
        entries, log_scale = dense_matrix(params_for(4, 0.0, (1.0, -2.0, 0.3, 5.0), field=0.9))
        assert log_scale == 0.0
        assert np.array_equal(entries, np.ones((4, 4)))

    def test_two_level_entries(self):
        beta, j0, j1, d = 0.8, 0.6, -0.4, 0.3
        p = params_for(2, beta, (j0, j1), field=d)
        want = np.array(
            [
                [math.exp(-beta * j0), math.exp(-beta * d / 2)],
                [math.exp(-beta * d / 2), math.exp(-beta * j1 - beta * d)],
            ]
        )
        assert raw_matrix(p) == pytest.approx(want, rel=1e-12)

    def test_three_level_entries_single_top_coupling(self):
        beta, j, d = 1.1, 0.7, 0.4
        x = math.exp(-beta * j)
        y = math.exp(-beta * d / 2)
        p = params_for(3, beta, (0.0, 0.0, j), field=d)
        want = np.array(
            [
                [1.0, y, y**2],
                [y, y**2, y**3],
                [y**2, y**3, x * y**4],
            ]
        )
        assert raw_matrix(p) == pytest.approx(want, rel=1e-12)

    def test_entries_exactly_symmetric(self):
        entries, _ = dense_matrix(params_for(5, 1.7, (0.3, -1.2, 0.9, 2.0, -0.5), field=0.77))
        assert np.array_equal(entries, entries.T)

    def test_scaled_maximum_is_one(self):
        entries, _ = dense_matrix(params_for(3, 6.0, (-4.0, 1.0, -2.0), field=-0.6))
        assert float(entries.max()) == 1.0
        assert float(entries.min()) > 0.0

    def test_invariant_under_compensated_rescaling(self):
        # Halving beta while doubling J and D leaves every raw exponent
        # unchanged, so the scaled matrices agree bit for bit.
        j = (0.7, -0.4, 1.1)
        a, a_scale = dense_matrix(params_for(3, 1.3, j, field=0.9))
        b, b_scale = dense_matrix(params_for(3, 0.65, [2 * v for v in j], field=1.8))
        assert np.array_equal(a, b)
        assert a_scale == b_scale

    def test_rejects_overflowing_exponents(self):
        p = params_for(2, 1e160, (-1e160, 0.0))
        with pytest.raises(ValueError, match="overflow"):
            dense_matrix(p)


class TestDominantEigenvalue:
    def test_all_ones_matrix(self):
        value_log, vector = dominant_eigenvalue(params_for(5, 0.0, range(5)))
        assert math.exp(value_log) == pytest.approx(5.0, rel=1e-13)
        assert value_log == pytest.approx(math.log(5.0), abs=1e-13)
        assert vector == pytest.approx(np.full(5, 1 / math.sqrt(5)), abs=1e-12)

    @pytest.mark.parametrize(
        "beta,j0,j1", [(0.9, 1.0, -1.0), (2.0, 0.5, 0.5), (3.5, -0.7, 0.2)]
    )
    def test_two_level_radical(self, beta, j0, j1):
        u = math.exp(-beta * j0)
        v = math.exp(-beta * j1)
        theta = 4.0 + u * u + v * v - 2.0 * u * v
        want = 0.5 * ((u + v) + math.sqrt(theta))
        value_log, _ = dominant_eigenvalue(params_for(2, beta, (j0, j1)))
        assert math.exp(value_log) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("beta,j", [(0.5, 1.0), (1.5, -1.0), (2.0, 0.3)])
    def test_three_level_radical_top_coupling(self, beta, j):
        x = math.exp(-beta * j)
        want = 0.5 * (2.0 + x + math.sqrt(12.0 - 4.0 * x + x * x))
        value_log, _ = dominant_eigenvalue(params_for(3, beta, (0.0, 0.0, j)))
        assert math.exp(value_log) == pytest.approx(want, rel=1e-12)

    def test_eigenvector_is_positive_unit(self):
        _, vector = dominant_eigenvalue(params_for(4, 1.2, (0.5, -0.8, 1.4, -0.1)))
        assert (vector > 0.0).all()
        assert float(np.linalg.norm(vector)) == pytest.approx(1.0, abs=1e-14)

    def test_residual_within_tolerance(self):
        p = params_for(3, 1.5, (0.4, -0.9, 0.2))
        entries, log_scale = dense_matrix(p)
        value_log, vector = dominant_eigenvalue(p)
        scaled = math.exp(value_log - log_scale)
        resid = float(np.max(np.abs(entries @ vector - scaled * vector)))
        assert resid <= 1e-13 * max(1.0, scaled)

    def test_huge_exponents_stay_finite(self):
        # Raw entries would reach exp(2000); the secular solve never forms them.
        j = tuple(-float(k + 1) for k in range(10))
        value_log, _ = dominant_eigenvalue(params_for(10, 200.0, j))
        assert math.isfinite(value_log)
        assert value_log == pytest.approx(2000.0, rel=1e-12)

    @given(
        q=st.integers(2, 40),
        beta=st.floats(0.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_eigensolver(self, q, beta, seed):
        j = np.random.default_rng(seed).uniform(-2.0, 2.0, q)
        p = params_for(q, beta, j)
        entries, log_scale = dense_matrix(p)
        values, vectors = np.linalg.eigh(entries)
        value_log, vector = dominant_eigenvalue(p)
        assert value_log == pytest.approx(math.log(values[-1]) + log_scale, abs=1e-13 * q)
        # eigh's own eigenvector error grows like eps / (relative gap), so a
        # near tie at the coupling minimum loosens what the reference can show.
        rel_gap = (values[-1] - values[-2]) / values[-1]
        assert vector == pytest.approx(np.abs(vectors[:, -1]), abs=max(1e-12, 1e-14 / rel_gap))

    @given(
        q=st.integers(2, 40),
        log_beta=st.floats(-3.0, 3.0),
        field=st.floats(-1.0, 1.0).filter(lambda d: d != 0.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_eigensolver_at_any_bias(self, q, log_beta, field, seed):
        # beta up to 1e3 with a bias makes weights s_a^2 that span hundreds
        # of orders of magnitude, one of them far above lambda_1.
        j = np.random.default_rng(seed).uniform(-2.0, 2.0, q)
        p = params_for(q, 10.0**log_beta, j, field=field)
        entries, log_scale = dense_matrix(p)
        values, vectors = np.linalg.eigh(entries)
        value_log, vector = dominant_eigenvalue(p)
        want = math.log(values[-1]) + log_scale
        assert value_log == pytest.approx(want, abs=1e-13 * q * max(1.0, abs(want)))
        assert (vector >= 0.0).all()
        rel_gap = (values[-1] - values[-2]) / values[-1]
        assert vector == pytest.approx(np.abs(vectors[:, -1]), abs=max(1e-12, 1e-14 / rel_gap))

    @pytest.mark.parametrize(
        "couplings,beta,field",
        [
            # One weight 3.5e9 times lambda_1: its secular term is 1 to rounding.
            ((0.2136290402, 0.2136290402), 102.86631762851685, -0.6026588978252883),
            # The top diagonal level carries a weight of e^-400 and the root
            # is near e^-300, so Newton from nu = 0 would double its way up.
            ((-0.8, 1.0, 1.0), 500.0, -0.5),
            # The bias ties both diagonal entries, and the weights e^-498 and
            # e^-249 multiply to an underflow, so only the tie's bound
            # s_0 s_1 = e^-373.5 keeps Newton from climbing from 0 by doubling.
            ((-2.0, -1.0), 249.0, -1.0),
            # Levels 0, 2 and 3 tie at the top of the diagonal, level 0 with
            # a weight of e^-402.  Its pairs bound nu by e^-201, far below the
            # root near e^-67, and Newton doubled its way up past the cap.
            ((-3.0, 0.0, -1.0, 0.0), 134.0, -1.0),
        ],
    )
    def test_extreme_bias_weights_settle_fast(self, monkeypatch, couplings, beta, field):
        monkeypatch.setattr(transfer, "_NEWTON_CAP", 4)
        p = params_for(len(couplings), beta, couplings, field=field)
        entries, log_scale = dense_matrix(p)
        value_log, _ = dominant_eigenvalue(p)
        want = math.log(np.linalg.eigvalsh(entries)[-1]) + log_scale
        assert value_log == pytest.approx(want, rel=1e-14)

    def test_settles_within_six_newton_steps_on_the_readme_grid(self, monkeypatch):
        # The README's --q 10 --profile aggressive grid needs at most 6 steps
        # per point, counting the last one, which confirms the root.
        monkeypatch.setattr(transfer, "_NEWTON_CAP", 6)
        aggressive = [-float(k + 1) for k in range(10)]
        for beta in np.linspace(0.0, 10.0, 200):
            dominant_eigenvalue(params_for(10, float(beta), aggressive))

    def test_newton_cap_raises(self, monkeypatch):
        # The unit-weight solve behind l at zero bias: from mu = 1 the root
        # near 1.37 takes more than two Newton steps.
        monkeypatch.setattr(transfer, "_NEWTON_CAP", 2)
        with pytest.raises(ConvergenceError, match="2 Newton steps") as info:
            per_capita_investment(params_for(2, 1.0, (1.0, -1.0)))
        assert info.value.residual > 0.0

    def test_newton_cap_raises_at_any_bias(self, monkeypatch):
        # The weighted solve behind dominant_eigenvalue and the long-ring
        # log Z also stops at the cap, not at a wrong root.
        monkeypatch.setattr(transfer, "_NEWTON_CAP", 2)
        p = params_for(3, 1.0, (1.0, -1.0, 0.5), field=0.3)
        for solve in (dominant_eigenvalue, lambda p: log_partition_function(p, 10**6)):
            with pytest.raises(ConvergenceError, match="2 Newton steps") as info:
                solve(p)
            assert info.value.residual > 0.0

    def test_scale_and_gaps_share_one_anchor(self):
        # The uniform states of levels 0 and 1 have equal energy J + D d =
        # -2, so both gaps are 0 and the top scaled diagonal entry is 1; a
        # scale from the other level's rounding puts it at exp(-2.84e-14).
        p = params_for(2, 75.21085970476601, (-2.0, -3.0), field=1.0)
        _, z_max, g, m, *_ = rank_one(p)
        assert z_max == 0.0
        assert transfer._gaps(g, m, p.beta, z_max)[1].tolist() == [0.0, 0.0]


def decimal_unit_root(delta):
    """The root mu of sum_a 1 / (mu + delta_a) = 1 for float gaps, in 40-digit decimal arithmetic.

    Newton on the reciprocal of the sum from mu = 1, where the sum is at
    least 1 since one gap is 0, climbs to the root without overshooting.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        gaps = [Decimal(float(d)) for d in delta]
        mu = Decimal(1)
        for _ in range(1000):
            w = [1 / (mu + g) for g in gaps]
            s1 = sum(w)
            step = (s1 - 1) * s1 / sum(x * x for x in w)
            mu += step
            if step <= Decimal(10) ** -36 * mu:
                return float(mu)
    raise AssertionError("decimal Newton did not settle")


class TestSecularStart:
    @given(
        q=st.integers(2, 300),
        seed=st.integers(0, 2**32 - 1),
        split=st.sampled_from([0.0, 1e-9, -1e-9]),
        log_beta=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_the_jensen_start_is_below_the_root(self, q, seed, split, log_beta):
        # Integer couplings in [-3, 3] tie often; a split of 1e-9 turns a
        # tie at the minimum into a near-tie, where the Jensen bound is
        # tight to rounding.
        rng = np.random.default_rng(seed)
        j = rng.integers(-3, 4, q).astype(float)
        if split:
            m = int(j.argmin())
            j[(m + int(rng.integers(1, q))) % q] = j[m] + split
        j_min = j.min(keepdims=True)
        neg_beta = -(10.0**log_beta)
        delta, mu, finite = transfer._secular_start(j - j_min, j_min, neg_beta)
        assert finite[0]
        root = decimal_unit_root(delta)
        assert mu[0] <= root + 4 * math.ulp(root)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transfer, "_NEWTON_CAP", 8)
            transfer._secular_root(j - j_min, j_min, neg_beta)

    @pytest.mark.parametrize("x_max", [-300.0, 0.0, 50.0, 300.0, 700.0])
    def test_gaps_are_within_two_ulps(self, x_max):
        # At beta = 1 the scale is -J_min and the gap exponents -span, both
        # exact, so each gap's error is the start's own: one expm1, one exp
        # and one product.  |dx| is log-uniform on [1e-14, 300].
        rng = random.Random(int(x_max))
        span = np.array([10.0 ** rng.uniform(-14.0, math.log10(300.0)) for _ in range(400)])
        delta, _, finite = transfer._secular_start(span, np.array([-x_max]), -1.0)
        assert finite[0]
        for dx, gap in zip(-span, delta.tolist()):
            want = zero_bias_gap(x_max, dx)
            assert abs(Decimal(gap) - want) <= 2 * Decimal(math.ulp(float(want))), (dx, gap)


def count_steps(monkeypatch, nan_lane=None):
    """Make _secular_lanes' starts count the Newton steps added to them, one entry a step.

    The start of lane ``nan_lane``, if given, is nan.
    """
    secular_start, calls = transfer._secular_start, []

    class Counted(np.ndarray):
        def __iadd__(self, step):
            calls.append(len(step))
            return super().__iadd__(step)

    def counted(*args):
        delta, mu, finite = secular_start(*args)
        if nan_lane is not None:
            mu[nan_lane] = math.nan
        return delta, mu.view(Counted), finite

    monkeypatch.setattr(transfer, "_secular_start", counted)
    return calls


def solve_at_beta_one(*lanes):
    """_secular_lanes at beta = 1 on (J - J_min, J_min) lanes."""
    span, j_min = zip(*lanes)
    return transfer._secular_lanes(np.array(span), np.array(j_min)[:, None], -1.0)


def lane_bytes(*args):
    """The bytes of the (v^2, S2) pair _secular_lanes hands back for ``args``."""
    return tuple(a.tobytes() for a in transfer._secular_lanes(*args))


class TestSecularLanes:
    def test_tied_minima_stay_exact(self):
        # One coupling vector at two betas: the lanes are (betas,), and the
        # pair block is (betas, q).
        j = np.array([-1.0, -1.0, 0.0])
        neg_beta = -np.array([[40.0], [1000.0]])
        v2, s2 = transfer._secular_lanes(j - j.min(), j.min(keepdims=True), neg_beta)
        assert v2.shape == (2, 3) and s2.shape == (2,)
        assert v2[:, 0].tolist() == v2[:, 1].tolist()
        # Level 2's term, below e^-80, leaves S2 the tied pair's sum.
        assert (v2[:, 0] + v2[:, 1]).tolist() == s2.tolist()

    @pytest.mark.parametrize("q", [8, 9, 15, 60])
    def test_bits_do_not_depend_on_block_or_layout(self, q):
        # Random-profile couplings, one vector and one beta per lane; the
        # inputs are only read, so every call shares them.
        rng = np.random.default_rng(q)
        j = rng.integers(0, q, (1000, q)).astype(float)
        neg_beta = -rng.uniform(0.01, 10.0, (1000, 1))
        j_min = j.min(axis=1, keepdims=True)
        span = j - j_min
        want = lane_bytes(span, j_min, neg_beta)
        for n in (1, 2, 3):
            spans = range(0, 1000, n)
            views = [span[i : i + n] for i in spans]
            for blocks in (views, [span[i : i + n].copy() for i in spans]):
                pairs = [
                    transfer._secular_lanes(b, j_min[i : i + n], neg_beta[i : i + n])
                    for b, i in zip(blocks, spans)
                ]
                assert tuple(np.concatenate(a).tobytes() for a in zip(*pairs)) == want
        for layout in (
            np.asfortranarray(span),
            np.ascontiguousarray(span.T).T,  # the level-major (q, n) array, viewed lane-major
            np.stack([span, span], axis=-1)[..., 0],  # strided in both axes
        ):
            assert lane_bytes(layout, j_min, neg_beta) == want

    def test_failure_names_the_lowest_failing_lane(self, monkeypatch):
        monkeypatch.setattr(transfer, "_NEWTON_CAP", 1)
        # (J - J_min, J_min) per lane, all at beta = 1
        settled = ([0.0, 0.0], 0.0)  # all levels tied: the first step is exactly 0
        unsettled = ([2.0, 0.0], -1.0)  # the q = 2 root near 1.37 takes several steps
        overflow = ([0.0, 0.0], -math.inf)
        with pytest.raises(ConvergenceError) as info:
            solve_at_beta_one(settled, unsettled, overflow)
        assert info.value.lane == 1
        assert info.value.residual > 0.0
        with pytest.raises(ValueError, match="overflow") as info:
            solve_at_beta_one(settled, overflow, unsettled)
        assert info.value.lane == 1

    def test_nan_step_keeps_its_lane_moving(self, monkeypatch):
        # A nan start in lane 1 (of 3) makes its steps, and so its mu, nan.
        # A nan step is not a settled one: the lane must run out of steps
        # and raise, not leave the loop with l = nan.
        calls = count_steps(monkeypatch, nan_lane=1)
        span = np.array([[2.0, 0.0], [2.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ConvergenceError) as info:
            transfer._secular_lanes(span, -np.ones((3, 1)), -1.0)
        assert info.value.lane == 1
        assert math.isnan(info.value.residual)
        assert len(calls) >= transfer._NEWTON_CAP

    def test_an_overflowing_lane_does_not_hold_the_block(self, monkeypatch):
        # An overflowing lane's gaps are formed at the clamped scale, so its
        # steps are finite and it settles as any lane does: the block stops
        # when its unsettled lane does, and then raises for the overflow.
        calls = count_steps(monkeypatch)
        overflow = ([0.0, 0.0], -math.inf)
        unsettled = ([2.0, 0.0], -1.0)
        solve_at_beta_one(unsettled)
        alone = len(calls)
        assert alone == 4
        calls.clear()
        with pytest.raises(ValueError, match="overflow") as info:
            solve_at_beta_one(overflow, unsettled)
        assert info.value.lane == 0
        assert len(calls) == alone

    def test_lanes_past_the_clamped_scale(self, monkeypatch):
        # Lanes with -beta J_min past 709, where the gaps are formed at the
        # clamped scale, one lane where -beta J_min is inf, and ordinary
        # lanes, one beta per lane.  At (-1, -1 + 1.4e-13, 0, 2) and beta =
        # 720 the near-tied gap, e^720 * 1e-10, is finite; clamped it is
        # e^709 * 1e-10, and either way its term leaves no trace.
        rng = np.random.default_rng(35)
        ordinary = [(list(rng.uniform(-2.0, 2.0, 4)), rng.uniform(0.1, 10.0)) for _ in range(3)]
        clamped = [
            ([-1.0, -1.0 + 1.4e-13, 0.0, 2.0], 720.0),
            ([0.5, -2.0, -2.0, 1.0], 500.0),
            ([-3.0, 0.0, -2.9, 1.0], 1000.0),
        ]
        overflow = ([-1e308, 0.0, 1.0, 2.0], 2.0)
        lanes = ordinary[:2] + clamped[:2] + [overflow] + clamped[2:] + ordinary[2:]

        def block(lanes):
            j = np.array([couplings for couplings, _ in lanes])
            j_min = j.min(axis=1, keepdims=True)
            neg_beta = -np.array([[beta] for _, beta in lanes])
            return transfer._secular_lanes(j - j_min, j_min, neg_beta)

        finite = [lane for lane in lanes if lane is not overflow]
        v2, s2 = block(finite)
        for (j, beta), v2_lane, s2_lane in zip(finite, v2, s2):
            j = np.array(j)
            w2, s2_point = transfer._secular_root(j - j.min(), j.min(keepdims=True), -beta)
            assert (v2_lane.tobytes(), s2_lane) == (w2.tobytes(), s2_point)
        points = [per_capita_investment(params_for(4, b, j)) for j, b in finite]
        assert points[2:5] == [0.0, 1.5, 0.0]
        calls = count_steps(monkeypatch)
        slowest = 0
        for lane in finite:
            calls.clear()
            block([lane])
            slowest = max(slowest, len(calls))
        calls.clear()
        with pytest.raises(ValueError, match="overflow") as info:
            block(lanes)
        assert info.value.lane == lanes.index(overflow)
        assert len(calls) <= slowest


def rank_one(p):
    """transfer._rank_one of a model, under the errstate its callers hold."""
    with np.errstate(over="ignore", invalid="ignore"):
        return transfer._rank_one(np.array(p.couplings.values), np.array(p.levels), p.beta, p.field)


def raw_exponents(p):
    """x_ab = -beta (J(a) [a == b] + D (d_a + d_b) / 2), with no scaling."""
    d = np.asarray(p.levels)
    unit = -(np.diag(p.couplings.values) + p.field * (d[:, None] + d[None, :]) / 2.0)
    return p.beta * unit


def raw_log_trace(x, n):
    """log Tr M^N for N = 1, 2 or 3 as one logsumexp over the raw exponents of its terms."""
    if n == 1:
        return logsumexp(np.diag(x))
    if n == 2:
        return logsumexp(2.0 * x)
    return logsumexp(x[:, :, None] + x[None, :, :] + x.T[:, None, :])


def spectral_log_z(p, n):
    """log Z_N summed from the eigvalsh spectrum, and how much its signed terms cancel."""
    entries, log_scale = dense_matrix(p)
    lam = np.linalg.eigvalsh(entries)
    lam = lam[lam != 0.0]
    logs = n * np.log(np.abs(lam))
    shift = float(logs.max())
    terms = np.where((lam < 0.0) & (n % 2 == 1), -1.0, 1.0) * np.exp(logs - shift)
    total = float(terms.sum())
    if total <= 0.0:
        return math.nan, math.inf
    return n * log_scale + shift + math.log(total), float(np.abs(terms).sum()) / total


def ring_couplings(q, seed, tie):
    """Couplings uniform on [-2, 2], with the two lowest levels tied or near-tied on request."""
    j = np.random.default_rng(seed).uniform(-2.0, 2.0, q)
    if tie != "none":
        j[0] = j.min()
        j[1] = j[0] if tie == "tied" else j[0] + 1e-9
    return j


EPS = 2.0**-52


def ring_draws(seeds):
    """(params, N) shaped like the finite_ring benchmark, two per rung of q = 4, 9, ..., 114.

    N is log-uniform on 1..2000, |D| uniform on [0.05, 1] with either sign,
    couplings uniform on [-2, 2], and beta capped so that the transfer
    matrix's entries span at most e^10.
    """
    for seed in seeds:
        rng = random.Random(seed)
        for q in [q for q in range(4, 115, 5) for _ in range(2)]:
            n = min(2000, math.floor(math.exp(rng.random() * math.log(2001))))
            field = (0.05 + 0.95 * rng.random()) * (1.0 if rng.random() < 0.5 else -1.0)
            j = [-2.0 + 4.0 * rng.random() for _ in range(q)]
            beta = (0.02 + 0.98 * rng.random()) * 10.0 / ((q - 1) * abs(field) + 4.0)
            yield params_for(q, beta, j, field=field), n


class TestLogPartitionFunction:
    @pytest.mark.parametrize("q,n", [(2, 3), (3, 5), (7, 11)])
    def test_infinite_temperature(self, q, n):
        p = params_for(q, 0.0, range(q), field=0.2)
        assert log_partition_function(p, n) == pytest.approx(n * math.log(q), rel=1e-13)

    def test_matches_enumeration_fixed_cases(self):
        for p, n in [
            (params_for(2, 0.7, (1.0, -1.0), field=0.3), 3),
            (params_for(4, 1.3, (0.9, -1.7, 0.1, 1.2), field=-0.5), 6),
        ]:
            want = math.log(partition_function_bruteforce(p, n))
            got = log_partition_function(p, n)
            assert got == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))

    def test_matches_enumeration_random_draws(self):
        rng = np.random.default_rng(2026)
        for q in (2, 3, 4):
            for n in (2, 5, 8):
                j = tuple(float(v) for v in rng.uniform(-2.0, 2.0, q))
                p = params_for(q, float(rng.uniform(0.0, 5.0)), j, field=float(rng.uniform(-1, 1)))
                want = math.log(partition_function_bruteforce(p, n))
                got = log_partition_function(p, n)
                assert got == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))

    def test_dominant_bounds_the_mean_power(self):
        # lambda_1^N >= Z_N / q for even N, i.e. the dominant eigenvalue is
        # at least the power mean of the spectrum.
        p = params_for(3, 1.9, (0.4, -1.1, 0.6))
        n = 4
        value_log, _ = dominant_eigenvalue(p)
        log_z = log_partition_function(p, n)
        assert value_log >= (log_z - math.log(3)) / n - 1e-12

    def test_rejects_bad_site_counts(self):
        p = params_for(2, 1.0, (0.0, 0.0))
        with pytest.raises(ValueError):
            log_partition_function(p, 0)
        with pytest.raises(ValueError):
            log_partition_function(p, True)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @given(
        q=st.integers(2, 300),
        field=st.floats(0.05, 1.0),
        negative_field=st.booleans(),
        beta_fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_traces_at_any_q(self, n, q, field, negative_field, beta_fraction, seed):
        # Z_1, Z_2 and Z_3 are traces of M, M^2 and M^3, computed here from
        # the raw exponents x_ab with no eigensolver and no enumeration.
        # Z_3 is an odd power, so negative eigenvalues must subtract.
        j = np.random.default_rng(seed).uniform(-2.0, 2.0, q)
        if negative_field:
            field = -field
        d = np.arange(q, dtype=float)
        x_unit = -(np.diag(j) + field * (d[:, None] + d[None, :]) / 2.0)
        # beta is capped so that the entries span at most e^10.
        beta = beta_fraction * 10.0 / float(x_unit.max() - x_unit.min())
        x = beta * x_unit
        if n == 1:
            want = logsumexp(np.diag(x))
        elif n == 2:
            want = logsumexp(2.0 * x)
        else:
            s = float(x.max())
            e = np.exp(x - s)
            want = 3.0 * s + math.log(float(np.trace(e @ e @ e)))
        got = log_partition_function(params_for(q, beta, j, field=field), n)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_one_site_exact_where_the_diagonal_underflows(self):
        # Both scaled diagonal entries are e^-1000 against the off-diagonal 1.
        p = params_for(2, 1000.0, (1.0, 1.0))
        assert log_partition_function(p, 1) == -1000.0 + math.log(2.0)

    @given(
        q=st.integers(2, 300),
        field=st.floats(-1.0, 1.0),
        log_beta=st.floats(-3.0, 3.0),
        contrarian_shift=st.floats(0.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_site_is_the_logsumexp_of_the_diagonal(self, q, field, log_beta, contrarian_shift, seed):
        # No cap on the entry span: Tr M is read off the diagonal exponents
        # however far the scaled diagonal underflows, as it does once every
        # coupling is positive and beta J(a) passes about 708.
        j = np.random.default_rng(seed).uniform(-2.0, 2.0, q) + contrarian_shift
        p = params_for(q, 10.0**log_beta, j, field=field)
        x = raw_exponents(p)
        want = raw_log_trace(x, 1)
        assert abs(log_partition_function(p, 1) - want) <= 4 * EPS * float(np.abs(x).max() + 1.0)

    def test_lambda1_floor_where_one_weight_dominates(self):
        # c = (8.8e-27, 4.9e8) and lambda_1 e^-t = 1: the cancelling form
        # sum c e + (sum c)^2 over sum c reads 4.2e-8 above it.
        p = params_for(2, 40.0, (-1.0, 0.5), field=-2.0)
        t, _, _, _, c, z, _ = rank_one(p)
        diag = np.exp(z)
        scaled = math.exp(dominant_eigenvalue(p)[0] - t)
        assert transfer._lambda1_floor(diag, c) <= scaled
        cancelling = (c @ (diag - c) + c.sum() ** 2) / c.sum()
        assert cancelling > scaled * (1.0 + 1e-8)

    @given(
        q=st.integers(2, 120),
        field=st.floats(0.05, 1.0),
        negative_field=st.booleans(),
        bias_step=st.floats(0.1, 200.0),
        dominance=st.floats(0.0, 60.0),
        n=st.integers(2, 10**5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_lambda1_floor_is_a_lower_bound_and_proves_the_shortcut(
        self, q, field, negative_field, bias_step, dominance, n, seed
    ):
        # beta |D| up to 200 per level step, and the most weighted level's
        # coupling beta J = dominance puts its weight c up to e^60 above its
        # diagonal entry: the band where sum c e + (sum c)^2 cancels.
        beta = bias_step / field
        j = np.random.default_rng(seed).uniform(-2.0, 2.0, q)
        j[-1 if negative_field else 0] = dominance / beta
        p = params_for(q, beta, j, field=-field if negative_field else field)
        log_lambda1, _ = dominant_eigenvalue(p)
        t, _, _, _, c, z, _ = rank_one(p)
        # The scaled entries' exponents round by about eps |t|.
        floor = transfer._lambda1_floor(np.exp(z), c)
        assert math.log(floor) <= log_lambda1 - t + 4 * EPS * (1.0 + abs(t))
        solved = []
        weighted_root = transfer._weighted_root

        def spy(*args):
            solved.append(args)
            return weighted_root(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transfer, "_weighted_root", spy)
            try:
                log_partition_function(p, n)
            except ConvergenceError:  # an odd power's trace underflows
                pass
        assert len(solved) <= 1
        if solved:
            # log |e_a| = y_a + log |expm1(x_a)| from the raw exponents y_a =
            # -beta D d_a and x_a = -beta J(a), with no scaling and no overflow.
            y, x = -beta * p.field * np.arange(q, dtype=float), -beta * j
            with np.errstate(divide="ignore"):
                log_e = y + np.maximum(x, 0.0) + np.log(-np.expm1(-np.abs(x)))
            assert math.log(q - 1) + n * (float(log_e.max()) - log_lambda1) < -53.0 * math.log(2.0)

    @given(
        q=st.integers(2, 120),
        n=st.integers(1, 10**5),
        field=st.floats(-1.0, 1.0),
        beta_fraction=st.floats(0.0, 1.0),
        tie=st.sampled_from(["none", "tied", "near-tied"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_full_spectrum_on_both_sides_of_the_shortcut(
        self, q, n, field, beta_fraction, tie, seed
    ):
        # beta is capped so that the entries span at most e^40.
        beta = beta_fraction * 40.0 / (4.0 + (q - 1) * abs(field))
        p = params_for(q, beta, ring_couplings(q, seed, tie), field=field)
        want, cancelled = spectral_log_z(p, n)
        got = log_partition_function(p, n)
        # The reference is good to about N roundings per unit of cancellation.
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)) + 4 * n * EPS * cancelled

    @given(
        q=st.integers(2, 6),
        n=st.integers(1, 12),
        field=st.floats(-1.0, 1.0),
        beta_fraction=st.floats(0.0, 1.0),
        tie=st.sampled_from(["none", "tied", "near-tied"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_enumeration_on_small_rings(self, q, n, field, beta_fraction, tie, seed):
        assume(q**n <= 4096)
        beta = beta_fraction * 40.0 / (4.0 + (q - 1) * abs(field))
        p = params_for(q, beta, ring_couplings(q, seed, tie), field=field)
        want = math.log(partition_function_bruteforce(p, n))
        got = log_partition_function(p, n)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    @given(
        q=st.integers(2, 4),
        half=st.integers(0, 5),
        field=st.floats(-0.3, 0.3),
        beta=st.floats(0.0, 13.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_odd_contrarian_rings_match_enumeration(self, q, half, field, beta, seed):
        # Contrarian agents (J > 0) on an odd ring: M has eigenvalues of both
        # signs whose odd powers cancel in sum_i lambda_i^N, but not in
        # Tr M^N of the positive matrix.
        n = 2 * half + 1
        assume(q**n <= 4096)
        j = np.random.default_rng(seed).uniform(0.5, 3.0, q)
        p = params_for(q, beta, j, field=field)
        want = math.log(partition_function_bruteforce(p, n))
        assert abs(log_partition_function(p, n) - want) <= 1e-10 * max(1.0, abs(want))

    def test_long_ring_never_takes_the_full_spectrum(self, monkeypatch):
        p = params_for(60, 0.1, ring_couplings(60, 7, "none"), field=0.3)
        want, _ = spectral_log_z(p, 2000)

        def refuse(name):
            def refused(*args):
                raise AssertionError(f"{name} called")

            return refused

        monkeypatch.setattr(transfer, "_log_trace_power", refuse("powering"))
        got = log_partition_function(p, 2000)
        assert got == pytest.approx(want, rel=1e-12)
        # One site is the trace of the diagonal: no solve and no powering.
        monkeypatch.setattr(transfer, "_weighted_root", refuse("the secular solve"))
        want, _ = spectral_log_z(p, 1)
        assert log_partition_function(p, 1) == pytest.approx(want, rel=1e-13)

    def test_shortcut_decomposes_the_matrix_once(self, monkeypatch):
        calls = []
        rank_one = transfer._rank_one

        def counted(*args):
            calls.append(args)
            return rank_one(*args)

        monkeypatch.setattr(transfer, "_rank_one", counted)
        log_partition_function(params_for(60, 0.1, ring_couplings(60, 7, "none"), field=0.3), 2000)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "couplings,beta,field",
        [
            ((1.0, -1.0, 0.5), 1.0, 0.3),
            ((0.6, -0.4), 0.8, -0.7),
            (tuple(np.linspace(-2.0, 2.0, 10)), 0.5, 0.2),
        ],
    )
    def test_a_start_above_the_root_settles_down_in_one_step(self, couplings, beta, field):
        # The Rayleigh floor L that starts the shortcut's solve may round
        # above lambda_1 e^-t by up to 4 eps (1 + |t|), as the floor test
        # above allows.  Newton on the concave reciprocal then steps down
        # once, to within rounding of the root from the 2 x 2 start.
        p = params_for(len(couplings), beta, couplings, field=field)
        with np.errstate(over="ignore", invalid="ignore"):
            t, z_max, g, m, c, _, _ = rank_one(p)
            top, delta = transfer._gaps(g, m, p.beta, z_max)
            nu0 = transfer._lower_bound(delta, c, top)
            _, root, _, _, _ = transfer._weighted_root(nu0, top, delta, c)
            start = (top + root) * (1.0 + 4.0 * EPS * (1.0 + abs(t))) - top
            _, nu, steps, _, _ = transfer._weighted_root(start, top, delta, c)
        assert start > root
        assert steps == 1
        assert nu <= start
        assert abs(nu - root) <= 2.0 * math.ulp(top + root)

    @given(
        q=st.integers(2, 200),
        field=st.floats(0.05, 1.0),
        negative_field=st.booleans(),
        beta_fraction=st.floats(0.0, 1.0),
        log_n=st.floats(math.log(2.0), math.log(1e4)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_shortcut_from_the_floor_is_n_log_lambda1(
        self, q, field, negative_field, beta_fraction, log_n, seed
    ):
        # beta is capped so that the entries span at most e^10.  Only draws
        # that take the shortcut count; its solve starts from the Rayleigh
        # floor, dominant_eigenvalue's from the 2 x 2 bound.
        beta = beta_fraction * 10.0 / ((q - 1) * field + 4.0)
        n = max(2, round(math.exp(log_n)))
        j = np.random.default_rng(seed).uniform(-2.0, 2.0, q)
        p = params_for(q, beta, j, field=-field if negative_field else field)
        solved = []
        weighted_root = transfer._weighted_root

        def spy(*args):
            solved.append(args)
            return weighted_root(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transfer, "_weighted_root", spy)
            got = log_partition_function(p, n)
        assume(solved)
        log_lambda1, _ = dominant_eigenvalue(p)
        assert abs(got - n * log_lambda1) <= 8 * n * EPS * max(1.0, abs(log_lambda1))

    def test_newton_steps_on_finite_ring_shaped_draws(self, monkeypatch):
        # The 460 draws of seeds 1-10: 290 take the shortcut, which settles
        # in 2-5 steps from the Rayleigh floor (7 of 3,093 shortcut draws of
        # seeds 100-199 took 6, each from L = 1, a start of nu = 0), and
        # every biased dominant_eigenvalue solve, from the 2 x 2 bound,
        # settles in 3-6 (at most 7 over seeds 100-199).
        steps = []
        weighted_root = transfer._weighted_root

        def counted(*args):
            result = weighted_root(*args)
            steps.append(result[2])
            return result

        monkeypatch.setattr(transfer, "_weighted_root", counted)
        shortcut, biased = [], []
        for p, n in ring_draws(range(1, 11)):
            log_partition_function(p, n)
            shortcut += steps
            steps.clear()
            dominant_eigenvalue(p)
            biased += steps
            steps.clear()
        assert len(shortcut) == 290 and len(biased) == 460
        assert max(shortcut) <= 5
        assert max(biased) <= 9

    @staticmethod
    def spied_log_z(monkeypatch, p, n):
        """log Z_N, and the private route functions it called in order."""
        calls = []

        def spy(name, f):
            def counted(*args):
                calls.append(name)
                return f(*args)

            monkeypatch.setattr(transfer, name, counted)

        for name in ("_rank_one", "_weighted_root", "_log_trace_power"):
            spy(name, getattr(transfer, name))
        return log_partition_function(p, n), calls

    @pytest.mark.parametrize("n,solves", [(2, False), (3, False), (8, False)])
    def test_powering_decomposes_the_matrix_once(self, monkeypatch, n, solves):
        # The lower bound on lambda_1 cannot prove the rest of the spectrum
        # negligible at these N, so each powers with no secular solve.
        p = params_for(60, 0.1, ring_couplings(60, 7, "none"), field=0.3)
        want, _ = spectral_log_z(p, n)
        got, calls = self.spied_log_z(monkeypatch, p, n)
        assert calls == ["_rank_one", *["_weighted_root"] * solves, "_log_trace_power"]
        assert got == pytest.approx(want, rel=1e-13)

    def test_one_site_reads_the_diagonal_exponents(self, monkeypatch):
        p = params_for(60, 0.1, ring_couplings(60, 7, "none"), field=0.3)
        got, calls = self.spied_log_z(monkeypatch, p, 1)
        assert calls == ["_rank_one"]
        assert got == pytest.approx(raw_log_trace(raw_exponents(p), 1), rel=1e-15)

    @pytest.mark.parametrize("n,want", [(1, 500.0), (2, 1500.0 + math.log(2.0)), (3, 2000.0 + math.log(3.0))])
    def test_overflowing_bias_weight(self, n, want):
        # c_1 = s_1^2 = e^750 overflows, and s_0 s_1 = e^-375 e^375 does
        # not form: the scaled matrix is [[e^-750, 1], [1, e^-250]].
        p = params_for(2, 1000.0, (0.0, 1.0), field=-1.5)
        x = raw_exponents(p)
        assert want == pytest.approx(raw_log_trace(x, n), rel=1e-15)
        assert log_partition_function(p, n) == pytest.approx(want, rel=1e-15)

    @given(
        q=st.integers(2, 4),
        field=st.floats(0.05, 1.0),
        negative_field=st.booleans(),
        bias_span=st.floats(1.5e3, 1e4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_square_trace_past_weight_overflow(self, q, field, negative_field, bias_span, seed):
        # The top weight c_a overflows once beta |D| times a level step
        # passes about 1,420, and s_a once it passes 2,840: with q <= 4 that
        # happens in about a fifth and an eighth of these draws.  The
        # matrix is never s_a s_b, so Z_2 stays exact.
        if negative_field:
            field = -field
        beta = bias_span / (abs(field) * (q - 1))
        p = params_for(q, beta, np.random.default_rng(seed).uniform(-2.0, 2.0, q), field=field)
        want = raw_log_trace(raw_exponents(p), 2)
        assert abs(log_partition_function(p, 2) - want) <= 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("beta,field,n", [(12.0, 0.0, 3), (10.0, 0.0, 3), (8.0, 0.1, 5)])
    def test_odd_power_matches_enumeration(self, beta, field, n):
        # M has eigenvalues close to +1 and -1, whose odd powers cancel to
        # about exp(-beta J) in sum_i lambda_i^N: eigvalsh kept only a few
        # digits of log Z_N here.
        p = params_for(2, beta, (3.0, 3.0), field=field)
        want = math.log(partition_function_bruteforce(p, n))
        assert log_partition_function(p, n) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("beta", [100.0, 200.0])
    def test_odd_contrarian_ring_far_below_rounding(self, beta):
        # Z_3 = Tr M^3 = 2 e^(-9 beta) + 6 e^(-3 beta) for couplings (3, 3):
        # the sum over eigenvalues 1 + e^(-3 beta) and -(1 - e^(-3 beta))
        # keeps none of it.
        p = params_for(2, beta, (3.0, 3.0))
        want = float(np.logaddexp(math.log(2.0) - 9.0 * beta, math.log(6.0) - 3.0 * beta))
        assert log_partition_function(p, 3) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("beta", [247.0, 248.0, 300.0])
    def test_underflowed_trace_raises(self, beta):
        # Tr M^3 of the scaled matrix is carried by the diagonal e^(-3 beta)
        # against the off-diagonal 1.  At beta = 247 that is subnormal with
        # about 5 bits, and log Z_3 would be 1e-2 off; at 248 it rounds to
        # twice the least subnormal, 0.25 off; at 300 it flushes to 0.
        p = params_for(2, beta, (3.0, 3.0))
        with pytest.raises(ConvergenceError, match="underflow"):
            log_partition_function(p, 3)
        assert log_partition_function(p, 2) == pytest.approx(math.log(2.0), rel=1e-15)
