"""The enumeration's energy rule and the brute-force oracles built on it."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pottsinvest
from pottsinvest import closedform, derivatives, model, profiles, transfer
from pottsinvest import (
    ENUMERATION_STATE_CAP,
    CouplingProfile,
    EnumerationCapError,
    ModelParams,
    expected_investment_bruteforce,
    log_partition_function,
    partition_function_bruteforce,
)
from oracles import dense_matrix, energy, reference_expected_investment


def params_for(q, beta, couplings, field=0.0, levels=None):
    return ModelParams(
        q=q, beta=beta, couplings=CouplingProfile(tuple(couplings)),
        field=field, levels=levels,
    )


def block_form(sites, params):
    """(energy, total) of one configuration as the enumeration computes them."""
    energies, totals = model._block_energy_and_total(np.array([sites]), params)
    return float(energies[0]), float(totals[0])


class TestTotalInvestment:
    def test_all_zero_configuration(self):
        p = params_for(3, 1.0, (0.0, 0.0, 0.0))
        assert block_form((0, 0, 0), p)[1] == 0.0

    def test_maximal_configuration(self):
        p = params_for(3, 1.0, (0.0, 0.0, 0.0))
        assert block_form((2, 2, 2, 2), p)[1] == 8.0

    def test_mixed_configuration(self):
        p = params_for(2, 1.0, (0.0, 0.0))
        assert block_form((0, 1, 0, 1, 1), p)[1] == 3.0

    def test_respects_custom_levels(self):
        p = params_for(2, 1.0, (0.0, 0.0), levels=(-1.5, 2.5))
        assert block_form((0, 1, 1), p)[1] == 3.5


class TestHamiltonian:
    """The enumeration's block form against the readable per-configuration rule."""

    def test_uniform_ring_counts_every_bond(self):
        p = params_for(2, 1.0, (0.7, -0.2))
        assert block_form((0, 0, 0), p)[0] == pytest.approx(3 * 0.7, abs=1e-15)
        assert energy((0, 0, 0), p) == pytest.approx(3 * 0.7, abs=1e-15)

    def test_alternating_ring_has_no_equal_pairs(self):
        p = params_for(2, 1.0, (1.0, -1.0))
        assert block_form((0, 1, 0, 1), p)[0] == energy((0, 1, 0, 1), p) == 0.0

    def test_two_site_ring_double_counts_its_bond(self):
        # Sites 1-2 and 2-1 are distinct ring bonds, so the pair interacts twice.
        p = params_for(3, 1.0, (0.0, 0.0, 5.0), field=2.0)
        assert block_form((2, 2), p)[0] == energy((2, 2), p) == 18.0

    @pytest.mark.parametrize(
        "q,n,couplings,field,levels",
        [
            (2, 1, (0.7, -0.2), 0.0, None),
            (3, 2, (0.0, -1.5, 5.0), 2.0, None),
            (2, 3, (1.0, -1.0), -0.3, (-1.5, 2.5)),
            (3, 4, (-0.4, 1.3, 0.2), 0.7, (0.0, 0.5, 3.0)),
            (2, 5, (2.0, -2.0), 1.1, None),
            (4, 6, (0.3, -1.2, 0.9, 2.0), -0.77, (-2.0, -1.0, 0.25, 4.0)),
        ],
    )
    def test_block_form_matches_the_readable_rule(self, q, n, couplings, field, levels):
        # Every configuration of the ring; the block sums bonds and levels in
        # array order and the rule in exact fsum, so they agree to rounding.
        p = params_for(q, 1.0, couplings, field=field, levels=levels)
        configs = np.array(list(itertools.product(range(q), repeat=n)))
        energies, totals = model._block_energy_and_total(configs, p)
        for sites, got, total in zip(configs.tolist(), energies, totals):
            assert got == pytest.approx(energy(sites, p), rel=1e-15, abs=1e-13)
            assert total == pytest.approx(math.fsum(p.levels[s] for s in sites), abs=1e-13)

    @given(
        q=st.integers(2, 5),
        data=st.data(),
        beta=st.floats(0.0, 3.0),
        field=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_ring_rotation(self, q, data, beta, field):
        n = data.draw(st.integers(1, 7))
        sites = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
        j = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=q, max_size=q))
        p = params_for(q, beta, j, field=field)
        shift = data.draw(st.integers(0, n - 1))
        rotated = tuple(sites[(i + shift) % n] for i in range(n))
        # Rotation permutes the same bond and site terms; fsum is exactly
        # rounded, so the rule's energies agree bit for bit, and the block
        # form, which sums in site order, agrees to rounding.
        want = energy(tuple(sites), p)
        assert energy(rotated, p) == want
        assert block_form(rotated, p)[0] == pytest.approx(want, rel=1e-14, abs=1e-13)


class TestPartitionFunction:
    @pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (5, 3)])
    def test_infinite_temperature_counts_states(self, q, n):
        p = params_for(q, 0.0, range(q), field=0.3)
        assert partition_function_bruteforce(p, n) == float(q**n)

    def test_zero_couplings_zero_field(self):
        p = params_for(2, 1.7, (0.0, 0.0))
        assert partition_function_bruteforce(p, 3) == 8.0

    def test_matches_transfer_matrix_trace(self):
        p = params_for(2, 0.7, (1.0, -1.0), field=0.3)
        z = partition_function_bruteforce(p, 4)
        entries, log_scale = dense_matrix(p)
        lam = np.linalg.eigvalsh(entries)
        trace = float(np.sum(lam**4)) * math.exp(4 * log_scale)
        assert z == pytest.approx(trace, rel=1e-10)

    @given(
        q=st.integers(2, 4),
        n=st.integers(1, 6),
        beta=st.floats(0.0, 4.0),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_infinite_temperature_property(self, q, n, beta, data):
        j = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=q, max_size=q))
        p = params_for(q, 0.0, j, field=data.draw(st.floats(-2.0, 2.0)))
        assert partition_function_bruteforce(p, n) == float(q**n)

    def test_refuses_oversized_systems(self):
        p = params_for(2, 1.0, (0.0, 0.0))
        with pytest.raises(EnumerationCapError):
            partition_function_bruteforce(p, 25)
        assert 2**25 > ENUMERATION_STATE_CAP

    def test_cap_rule_agrees_with_the_exact_state_count(self):
        for q in range(2, 301):
            for n in range(1, 41):
                try:
                    model._check_enumerable(q, n)
                    allowed = True
                except EnumerationCapError:
                    allowed = False
                assert allowed == (q**n <= ENUMERATION_STATE_CAP), (q, n)

    def test_refuses_a_huge_ring_without_counting_its_states(self):
        # 2**(10**7) would be a 1.25 MB integer; the refusal compares the
        # ring length with the cap's bit length and never forms it.
        p = params_for(2, 1.0, (0.0, 0.0))
        with pytest.raises(EnumerationCapError):
            partition_function_bruteforce(p, 10**7)
        with pytest.raises(EnumerationCapError):
            expected_investment_bruteforce(p, 10**7)

    def test_rejects_bad_site_counts(self):
        p = params_for(2, 1.0, (0.0, 0.0))
        with pytest.raises(ValueError):
            partition_function_bruteforce(p, 0)
        with pytest.raises(ValueError):
            partition_function_bruteforce(p, -3)


class TestLargeBeta:
    """Each configuration weighs against the least energy seen, so l never overflows."""

    @staticmethod
    def raised_log_z(p, n):
        with pytest.raises(OverflowError, match="leaves the double range") as info:
            partition_function_bruteforce(p, n)
        return float(re.search(r"exp\((.*?)\)", str(info.value)).group(1))

    def test_bound_ring_past_the_largest_double(self):
        # Z_3 = 2 e^900 (1 + 3 e^-600): the two uniform states carry it.
        p = params_for(2, 300.0, (-1.0, -1.0))
        assert expected_investment_bruteforce(p, 3) == 0.5
        log_z = log_partition_function(p, 3)
        assert log_z == pytest.approx(900.0 + math.log(2.0), rel=1e-15)
        assert self.raised_log_z(p, 3) == pytest.approx(log_z, rel=1e-15)

    def test_contrarian_ring_below_the_least_double(self):
        # Z_3 = 6 e^-900: six states of one equal bond, totals 1 or 2 each.
        p = params_for(2, 300.0, (3.0, 3.0))
        assert expected_investment_bruteforce(p, 3) == pytest.approx(0.5, abs=1e-15)
        assert self.raised_log_z(p, 3) == pytest.approx(-900.0 + math.log(6.0), rel=1e-15)

    def test_lower_minimum_in_a_later_block(self):
        # 2**17 states walk in two blocks; the unique ground state, all sites
        # at level 1, is the last one, so the first block's sums shrink.
        p = params_for(2, 300.0, (1.0, -1.0))
        assert expected_investment_bruteforce(p, 17) == 1.0
        p = params_for(2, 0.4, (1.0, -1.0), field=0.1)
        mirrored = params_for(2, 0.4, (-1.0, 1.0), field=-0.1)
        z = partition_function_bruteforce(p, 17)
        assert math.log(z) == pytest.approx(log_partition_function(p, 17), rel=1e-13)
        lhs = expected_investment_bruteforce(p, 17)
        assert lhs == pytest.approx(1.0 - expected_investment_bruteforce(mirrored, 17), abs=1e-13)

    @pytest.mark.parametrize("beta,couplings", [(1.0, (-1e308, 0.0)), (0.0, (1e308, 0.0))])
    def test_overflowing_energies_raise(self, beta, couplings):
        # Three bonds of 1e308 sum to an infinite energy.
        p = params_for(2, beta, couplings)
        for oracle in (partition_function_bruteforce, expected_investment_bruteforce):
            with pytest.raises(ValueError, match="overflow"):
                oracle(p, 3)


class TestExpectedInvestment:
    @pytest.mark.parametrize(
        "q,n,expected", [(2, 5, 0.5), (2, 3, 0.5), (5, 3, 2.0)]
    )
    def test_infinite_temperature_is_mean_level(self, q, n, expected):
        p = params_for(q, 0.0, [float(3 * k - 1) for k in range(q)])
        assert expected_investment_bruteforce(p, n) == pytest.approx(expected, abs=1e-12)

    def test_matches_independent_enumeration(self):
        p = params_for(2, 3.0, (2.0, -2.0))
        got = expected_investment_bruteforce(p, 6)
        want = reference_expected_investment(p, 6)
        assert got == pytest.approx(want, abs=1e-12)

    @given(
        q=st.integers(2, 4),
        n=st.integers(1, 5),
        beta=st.floats(0.0, 3.0),
        field=st.floats(-1.0, 1.0),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_independent_enumeration(self, q, n, beta, field, data):
        j = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=q, max_size=q))
        p = params_for(q, beta, j, field=field)
        got = expected_investment_bruteforce(p, n)
        want = reference_expected_investment(p, n)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-12)

    @given(
        q=st.integers(2, 4),
        n=st.integers(1, 5),
        beta=st.floats(0.0, 3.0),
        field=st.floats(-1.0, 1.0),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_level_reflection_symmetry(self, q, n, beta, field, data):
        # Relabelling k -> q-1-k maps couplings to their reverse and flips
        # the sign of the bias, sending l to (q-1) - l.
        j = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=q, max_size=q))
        p = params_for(q, beta, j, field=field)
        mirrored = params_for(q, beta, j[::-1], field=-field)
        lhs = expected_investment_bruteforce(p, n)
        rhs = (q - 1) - expected_investment_bruteforce(mirrored, n)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_stays_within_level_range(self):
        p = params_for(3, 2.5, (-1.0, 0.5, -2.0), field=0.7)
        val = expected_investment_bruteforce(p, 5)
        assert 0.0 <= val <= 2.0


class TestValidation:
    def test_coupling_profile_needs_two_levels(self):
        with pytest.raises(ValueError):
            CouplingProfile((1.0,))

    def test_coupling_profile_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CouplingProfile((1.0, math.nan))

    def test_unique_min_index(self):
        assert CouplingProfile((3.0, 1.0, 2.0)).unique_min_index() == 1
        assert CouplingProfile((1.0, 1.0, 2.0)).unique_min_index() is None

    def test_q_must_match_coupling_length(self):
        with pytest.raises(ValueError, match="expected q=3"):
            params_for(3, 1.0, (0.0, 1.0))

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            params_for(2, -0.1, (0.0, 1.0))

    def test_rejects_non_finite_field(self):
        with pytest.raises(ValueError):
            params_for(2, 1.0, (0.0, 1.0), field=math.inf)

    def test_levels_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            params_for(2, 1.0, (0.0, 1.0), levels=(1.0, 1.0))

    @pytest.mark.parametrize(
        "q,levels,message",
        [
            (2.0, None, "q must be an integer"),
            (1, None, "q >= 2"),
            (2, (0.0, 1.0, 2.0), "length q=2"),
            (2, (0.0, math.inf), "levels must be finite"),
            (2, (math.nan, 1.0), "levels must be finite"),
        ],
        ids=["float-q", "q-one", "levels-length", "infinite-level", "nan-level"],
    )
    def test_rejects_malformed_q_and_levels(self, q, levels, message):
        with pytest.raises(ValueError, match=message):
            ModelParams(q=q, beta=1.0, couplings=(0.0, 1.0), levels=levels)

    def test_numpy_integer_counts(self):
        # q and n_sites follow one rule: any integer, NumPy's too, stored
        # and used as a Python int; bools and floats are refused.
        p = params_for(2, 0.7, (0.0, 1.0))
        assert type(ModelParams(q=np.int64(2), beta=0.7, couplings=(0.0, 1.0)).q) is int
        assert type(profiles.ProfileSpec("aggressive", np.int64(4)).q) is int
        sweep = profiles.ensemble_sweep
        assert sweep(np.int64(5), [1], [0.0, 1.0]) == sweep(5, [1], [0.0, 1.0])
        for count in (transfer.log_partition_function, partition_function_bruteforce,
                      expected_investment_bruteforce):
            got = count(p, np.int64(4))
            assert type(got) is float and got == count(p, 4)
        for bad in (True, 2.0):
            with pytest.raises(ValueError, match="q must be an integer"):
                ModelParams(q=bad, beta=1.0, couplings=(0.0, 1.0))
            with pytest.raises(ValueError, match="q must be an integer"):
                profiles.ProfileSpec("aggressive", bad)
            for count in (transfer.log_partition_function, partition_function_bruteforce):
                with pytest.raises(ValueError, match="n_sites must be a positive integer"):
                    count(p, bad)

    def test_default_levels_are_indices(self):
        p = params_for(4, 1.0, range(4))
        assert p.levels == (0.0, 1.0, 2.0, 3.0)


class TestPackage:
    NAMES = {
        "ENUMERATION_STATE_CAP", "ConvergenceError", "CouplingProfile",
        "EnumerationCapError", "InvestmentCurve", "LimitClassification", "ModelParams",
        "ProfileSpec", "Q3_CASE1_POSITIVE_J_LIMIT", "Q3_CASE3_POSITIVE_J_LIMIT",
        "StencilConfig", "SweepError", "central_difference", "classify_limits",
        "dominant_eigenvalue", "ensemble_sweep", "expected_investment_bruteforce",
        "investment_at_beta_infinity", "investment_q2", "investment_q3_case1",
        "investment_q3_case2", "investment_q3_case3", "log_partition_function",
        "make_profile", "partition_function_bruteforce", "per_capita_investment",
        "richardson_difference", "sweep_curve",
    }

    def test_exports_exactly_the_public_names(self):
        assert len(self.NAMES) == 28
        assert set(pottsinvest.__all__) == self.NAMES

    def test_each_name_is_its_one_module_object(self):
        modules = [closedform, derivatives, model, profiles, transfer]
        for name in pottsinvest.__all__:
            owners = [m for m in modules if name in m.__all__]
            assert len(owners) == 1, name
            assert getattr(pottsinvest, name) is getattr(owners[0], name)
