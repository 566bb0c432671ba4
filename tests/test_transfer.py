"""Transfer-matrix construction, scaling policy, the secular solve and log Z."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pottsinvest import (
    ConvergenceError,
    CouplingProfile,
    ModelParams,
    build_matrix,
    dominant_eigenvalue,
    log_partition_function,
    partition_function_bruteforce,
    transfer,
)


def params_for(q, beta, couplings, field=0.0):
    return ModelParams(q=q, beta=beta, couplings=CouplingProfile(tuple(couplings)), field=field)


def raw_matrix(m):
    return m.entries * math.exp(m.log_scale)


def logsumexp(x):
    top = float(np.max(x))
    return top + math.log(float(np.sum(np.exp(x - top))))


class TestBuildMatrix:
    def test_infinite_temperature_gives_all_ones(self):
        m = build_matrix(params_for(4, 0.0, (1.0, -2.0, 0.3, 5.0), field=0.9))
        assert m.log_scale == 0.0
        assert np.array_equal(m.entries, np.ones((4, 4)))

    def test_two_level_entries(self):
        beta, j0, j1, d = 0.8, 0.6, -0.4, 0.3
        m = build_matrix(params_for(2, beta, (j0, j1), field=d))
        want = np.array(
            [
                [math.exp(-beta * j0), math.exp(-beta * d / 2)],
                [math.exp(-beta * d / 2), math.exp(-beta * j1 - beta * d)],
            ]
        )
        assert raw_matrix(m) == pytest.approx(want, rel=1e-12)

    def test_three_level_entries_single_top_coupling(self):
        beta, j, d = 1.1, 0.7, 0.4
        x = math.exp(-beta * j)
        y = math.exp(-beta * d / 2)
        m = build_matrix(params_for(3, beta, (0.0, 0.0, j), field=d))
        want = np.array(
            [
                [1.0, y, y**2],
                [y, y**2, y**3],
                [y**2, y**3, x * y**4],
            ]
        )
        assert raw_matrix(m) == pytest.approx(want, rel=1e-12)

    def test_entries_exactly_symmetric(self):
        m = build_matrix(params_for(5, 1.7, (0.3, -1.2, 0.9, 2.0, -0.5), field=0.77))
        assert np.array_equal(m.entries, m.entries.T)

    def test_scaled_maximum_is_one(self):
        m = build_matrix(params_for(3, 6.0, (-4.0, 1.0, -2.0), field=-0.6))
        assert float(m.entries.max()) == 1.0
        assert float(m.entries.min()) > 0.0

    def test_invariant_under_compensated_rescaling(self):
        # Halving beta while doubling J and D leaves every raw exponent
        # unchanged, so the scaled matrices agree bit for bit.
        j = (0.7, -0.4, 1.1)
        a = build_matrix(params_for(3, 1.3, j, field=0.9))
        b = build_matrix(params_for(3, 0.65, [2 * v for v in j], field=1.8))
        assert np.array_equal(a.entries, b.entries)
        assert a.log_scale == b.log_scale

    def test_pinned_scale_is_respected(self):
        p = params_for(2, 2.0, (1.0, -1.0))
        free = build_matrix(p)
        pinned = build_matrix(p, log_scale=free.log_scale + 3.0)
        assert pinned.log_scale == free.log_scale + 3.0
        assert pinned.entries == pytest.approx(free.entries * math.exp(-3.0), rel=1e-14)

    def test_rejects_overflowing_exponents(self):
        p = params_for(2, 1e160, (-1e160, 0.0))
        with pytest.raises(ValueError, match="overflow"):
            build_matrix(p)


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
        m = build_matrix(p)
        value_log, vector = dominant_eigenvalue(p)
        scaled = math.exp(value_log - m.log_scale)
        resid = float(np.max(np.abs(m.entries @ vector - scaled * vector)))
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
        m = build_matrix(p)
        values, vectors = np.linalg.eigh(m.entries)
        value_log, vector = dominant_eigenvalue(p)
        assert value_log == pytest.approx(math.log(values[-1]) + m.log_scale, abs=1e-13 * q)
        # eigh's own eigenvector error grows like eps / (relative gap), so a
        # near tie at the coupling minimum loosens what the reference can show.
        rel_gap = (values[-1] - values[-2]) / values[-1]
        assert vector == pytest.approx(np.abs(vectors[:, -1]), abs=max(1e-12, 1e-14 / rel_gap))

    def test_requires_zero_bias(self):
        with pytest.raises(ValueError, match="zero external bias"):
            dominant_eigenvalue(params_for(2, 1.0, (1.0, -1.0), field=0.1))

    def test_settles_within_six_newton_steps_on_the_readme_grid(self, monkeypatch):
        # The README's --q 10 --profile aggressive grid needs at most 6 steps
        # per point, counting the last one, which confirms the root.
        monkeypatch.setattr(transfer, "_NEWTON_CAP", 6)
        aggressive = [-float(k + 1) for k in range(10)]
        for beta in np.linspace(0.0, 10.0, 200):
            dominant_eigenvalue(params_for(10, float(beta), aggressive))

    def test_newton_cap_raises(self, monkeypatch):
        # From mu = 1 the root near 1.37 takes more than two Newton steps.
        monkeypatch.setattr(transfer, "_NEWTON_CAP", 2)
        with pytest.raises(ConvergenceError, match="2 Newton steps") as info:
            dominant_eigenvalue(params_for(2, 1.0, (1.0, -1.0)))
        assert info.value.residual > 0.0


class TestInvestmentRows:
    def test_tied_minima_stay_exact(self):
        j = np.array([-1.0, -1.0, 0.0])
        x = -np.array([[40.0], [1000.0]]) * j
        assert transfer.investment_rows(x, (0.0, 1.0, 2.0)).tolist() == [0.5, 0.5]

    def test_failure_names_the_lowest_failing_row(self, monkeypatch):
        monkeypatch.setattr(transfer, "_NEWTON_CAP", 1)
        settled = [0.0, 0.0]  # all levels tied: the first step is exactly 0
        unsettled = [-1.0, 1.0]  # the q = 2 root near 1.37 takes several steps
        overflow = [math.inf, 0.0]
        levels = (0.0, 1.0)
        with pytest.raises(ConvergenceError) as info:
            transfer.investment_rows(np.array([settled, unsettled, overflow]), levels)
        assert info.value.row == 1
        assert info.value.residual > 0.0
        with pytest.raises(ValueError, match="overflow") as info:
            transfer.investment_rows(np.array([settled, overflow, unsettled]), levels)
        assert info.value.row == 1


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

    def test_drops_exact_zero_eigenvalues(self, monkeypatch):
        # An exact zero would put log(0) into the log-sum-exp; it adds
        # nothing to Z_N and is dropped before the logarithm is taken.
        p = params_for(2, 0.8, (0.3, -0.4), field=0.2)
        scale = build_matrix(p).log_scale
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array([0.0, 0.5, 1.0]))
        with np.errstate(all="raise"):
            got = log_partition_function(p, 3)
        assert got == pytest.approx(3 * scale + math.log(1.125), rel=1e-13)

    def test_cancelled_sum_raises(self, monkeypatch):
        # At odd N a spectrum of +x and -x sums to zero, which has no log.
        p = params_for(2, 0.8, (0.3, -0.4), field=0.2)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array([-0.5, 0.5]))
        with pytest.raises(ConvergenceError, match="cancellation"):
            log_partition_function(p, 3)
        assert log_partition_function(p, 2) == pytest.approx(
            2 * build_matrix(p).log_scale + math.log(0.5), rel=1e-13
        )

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
