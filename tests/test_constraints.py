import math

import numpy as np
import pytest

from conftest import random_matrix, random_rates
from duelbench import (
    NotAWinnerError,
    PreferenceMatrix,
    RateVector,
    TiedPreferenceError,
    ValidationError,
    check_feasible,
    cw_constraints,
    ecw_constraints,
    ecw_optimal,
    gap_divergence,
    kl_bernoulli,
)
from duelbench.constraints import min_lhs_cw, min_lhs_ecw, pair_count, pair_index
from duelbench.core import _copeland_sets
from oracles import cw_pair_sets, ecw_pair_sets, feasible_brute, min_lhs_brute


def as_pair_sets(family):
    return {frozenset(d.pairs) for d in family.descriptors()}


class TestRateVector:
    def test_round_trip_and_get(self):
        rv = RateVector.from_map(3, {"2-1": 1.5, "3-2": 0.25})
        assert rv.get(2, 1) == 1.5
        assert rv.get(1, 2) == 1.5
        assert rv.get(3, 1) == 0.0
        assert rv.to_map() == {"2-1": 1.5, "3-1": 0.0, "3-2": 0.25}
        again = RateVector.from_map(3, rv.to_map())
        assert np.array_equal(again.values, rv.values)

    def test_as_matrix_symmetric(self):
        rv = RateVector(3, np.array([1.0, 2.0, 3.0]))
        m = rv.as_matrix()
        assert np.array_equal(m, m.T)
        assert m[1, 0] == 1.0 and m[2, 0] == 2.0 and m[2, 1] == 3.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            RateVector(3, np.array([1.0, -2.0, 3.0]))
        with pytest.raises(ValidationError):
            RateVector(3, np.array([1.0, 2.0]))
        with pytest.raises(ValidationError):
            RateVector.from_map(3, {"1-2": 1.0})

    @pytest.mark.parametrize(
        "mapping,key",
        [
            ({"2-1-3": 1.0}, "2-1-3"),
            ({"a-b": 1.0}, "a-b"),
            ({"21": 1.0}, "21"),
            ({"2-1": "x"}, "2-1"),
        ],
    )
    def test_malformed_map_entry(self, mapping, key):
        with pytest.raises(ValidationError, match=repr(key)):
            RateVector.from_map(3, mapping)

    def test_trivial_matches_divergence(self, cyclic):
        rv = RateVector.trivial(cyclic)
        assert rv.get(2, 1) == pytest.approx(1.0 / kl_bernoulli(0.6, 0.5))
        assert rv.get(3, 2) == pytest.approx(1.0 / kl_bernoulli(0.9, 0.5))

    def test_pair_index_enumeration(self):
        seen = [pair_index(i, j) for i in range(5) for j in range(i)]
        assert seen == list(range(pair_count(5)))


class TestFamilies:
    def test_cyclic_cw_contains_expected_descriptors(self, cyclic):
        fam = cw_constraints(cyclic, 1)
        descs = {(d.i2, d.l, d.i_set, d.s_set) for d in fam.descriptors()}
        assert (2, 0, (2,), (4,)) in descs
        assert (2, 1, (3, 4), (4,)) in descs
        got = next(
            d for d in fam.descriptors() if (d.i2, d.l, d.i_set) == (2, 0, (2,))
        )
        assert got.pairs == ((2, 1), (4, 2))

    def test_two_arm_single_descriptor(self, two_arm):
        fam = cw_constraints(two_arm, 1)
        descs = list(fam.descriptors())
        assert len(descs) == 1
        d = descs[0]
        assert (d.i2, d.l, d.i_set, d.s_set) == (2, 0, (2,), ())
        assert d.pairs == ((2, 1),)

    def test_cyclic_ecw_pins_and_vacuous_families(self, cyclic):
        fam = ecw_constraints(cyclic, 1)
        assert fam.pins == ((1, 2), (1, 3), (1, 4))
        assert list(fam.descriptors()) == []

    def test_multisol_ecw_structure(self, multisol):
        # pins run over the arms the candidate beats; every subset family
        # except the one for rival 2 is vacuous
        fam = ecw_constraints(multisol, 1)
        assert fam.pins == ((1, 3), (1, 4), (1, 5))
        descs = list(fam.descriptors())
        assert len(descs) == 1
        assert descs[0].i2 == 2 and descs[0].s_set == (3,)

    def test_two_arm_ecw(self, two_arm):
        fam = ecw_constraints(two_arm, 1)
        assert fam.pins == ((1, 2),)
        assert list(fam.descriptors()) == []

    def test_not_a_winner(self, cyclic):
        with pytest.raises(NotAWinnerError):
            cw_constraints(cyclic, 2)
        with pytest.raises(NotAWinnerError):
            ecw_constraints(cyclic, 3)

    def test_ties_rejected(self):
        tied = PreferenceMatrix([[0.5, 0.5], [0.5, 0.5]], allow_ties=True)
        with pytest.raises(TiedPreferenceError):
            cw_constraints(tied, 1)

    def test_descriptor_stream_matches_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(12):
            k = int(rng.integers(2, 6))
            m = random_matrix(rng, k)
            _, _, losses, _ = _copeland_sets(m.values)
            i1 = losses.index(min(losses)) + 1
            got = sorted(as_pair_sets(cw_constraints(m, i1)), key=sorted)
            vals = m.values.tolist()
            want = sorted(set(cw_pair_sets(vals, i1 - 1)), key=sorted)
            want = [frozenset((a + 1, b + 1) for a, b in ps) for ps in want]
            assert sorted(got, key=sorted) == sorted(want, key=sorted)

    def test_pair_sets_never_empty(self):
        rng = np.random.default_rng(22)
        for _ in range(15):
            k = int(rng.integers(2, 6))
            m = random_matrix(rng, k)
            _, _, losses, _ = _copeland_sets(m.values)
            i1 = losses.index(min(losses)) + 1
            for d in cw_constraints(m, i1).descriptors():
                assert d.pairs
                if not d.i_set:
                    assert len(d.s_set) >= 1


class TestCheckFeasible:
    def test_trivial_rates_always_feasible(self, cyclic, gap, multisol):
        rng = np.random.default_rng(30)
        matrices = [cyclic, gap, multisol] + [
            random_matrix(rng, int(rng.integers(2, 6))) for _ in range(8)
        ]
        for m in matrices:
            rv = RateVector.trivial(m)
            _, _, losses, _ = _copeland_sets(m.values)
            low = min(losses)
            for i1 in range(1, m.k + 1):
                if losses[i1 - 1] != low:
                    continue
                assert check_feasible(cw_constraints(m, i1), rv, m)
                assert check_feasible(ecw_constraints(m, i1), rv, m)

    def test_zero_rates_infeasible(self, cyclic):
        zero = RateVector.zeros(4)
        assert not check_feasible(cw_constraints(cyclic, 1), zero, cyclic)
        assert not check_feasible(ecw_constraints(cyclic, 1), zero, cyclic)

    def test_cyclic_half_rates_boundary(self, cyclic):
        # every binding constraint sums to exactly 1 at these rates
        d_small = kl_bernoulli(0.6, 0.5)
        d_big = kl_bernoulli(0.9, 0.5)
        rv = RateVector.from_map(
            4,
            {
                "2-1": 1 / (2 * d_small),
                "3-1": 1 / (2 * d_small),
                "4-1": 1 / (2 * d_small),
                "3-2": 1 / (2 * d_big),
                "4-3": 1 / (2 * d_big),
                "4-2": 1 / (2 * d_big),
            },
        )
        fam = cw_constraints(cyclic, 1)
        assert check_feasible(fam, rv, cyclic)
        weights = (rv.as_matrix() * gap_divergence(cyclic.values)).tolist()
        sup, inf_sets, losses, _ = _copeland_sets(cyclic.values)
        assert min_lhs_cw(sup, inf_sets, losses, 0, weights) == pytest.approx(1.0)
        shrunk = RateVector(4, rv.values * 0.99)
        assert not check_feasible(fam, shrunk, cyclic)

    def test_tolerance_at_boundary(self, two_arm):
        d = kl_bernoulli(0.6, 0.5)
        exact = RateVector.from_map(2, {"2-1": 1.0 / d})
        fam = cw_constraints(two_arm, 1)
        assert check_feasible(fam, exact, two_arm)
        nudged = RateVector(2, exact.values * (1.0 - 1e-13))
        assert check_feasible(fam, nudged, two_arm)
        off = RateVector(2, exact.values * (1.0 - 1e-9))
        assert not check_feasible(fam, off, two_arm)

    def test_fast_path_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            k = int(rng.integers(2, 7))
            m = random_matrix(rng, k)
            vals = m.values.tolist()
            _, _, losses, _ = _copeland_sets(m.values)
            i1 = losses.index(min(losses)) + 1
            rv = random_rates(rng, k, scale=float(rng.uniform(5, 120)))
            weights = (rv.as_matrix() * gap_divergence(m.values)).tolist()
            fast_cw = check_feasible(cw_constraints(m, i1), rv, m)
            fast_ecw = check_feasible(ecw_constraints(m, i1), rv, m)
            assert fast_cw == feasible_brute(vals, i1 - 1, weights, "cw")
            assert fast_ecw == feasible_brute(vals, i1 - 1, weights, "ecw")

    def test_min_lhs_values_match_brute_force(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            k = int(rng.integers(2, 7))
            m = random_matrix(rng, k)
            vals = m.values.tolist()
            sup, inf_sets, losses, _ = _copeland_sets(m.values)
            i1 = losses.index(min(losses))
            rv = random_rates(rng, k)
            weights = (rv.as_matrix() * gap_divergence(m.values)).tolist()
            fast = min_lhs_cw(sup, inf_sets, losses, i1, weights)
            brute = min_lhs_brute(cw_pair_sets(vals, i1), weights)
            assert fast == pytest.approx(brute, rel=1e-12) or (
                math.isinf(fast) and math.isinf(brute)
            )
            pins, sets = ecw_pair_sets(vals, i1)
            brute_ecw = min(
                min_lhs_brute(sets, weights),
                min((weights[i][j] for i, j in pins), default=math.inf),
            )
            fast_ecw = min_lhs_ecw(sup, inf_sets, losses, i1, weights)
            assert fast_ecw == pytest.approx(brute_ecw, rel=1e-12) or (
                math.isinf(fast_ecw) and math.isinf(brute_ecw)
            )

    def test_ecw_feasible_implies_cw_feasible(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            k = int(rng.integers(3, 6))
            m = random_matrix(rng, k)
            _, _, losses, _ = _copeland_sets(m.values)
            i1 = losses.index(min(losses)) + 1
            base = ecw_optimal(m, i1).rates
            bumped = RateVector(k, base.values + rng.uniform(0, 3, base.values.shape))
            for rv in (base, bumped):
                assert check_feasible(ecw_constraints(m, i1), rv, m)
                assert check_feasible(cw_constraints(m, i1), rv, m)

    def test_k_mismatch(self, cyclic, two_arm):
        fam = cw_constraints(cyclic, 1)
        with pytest.raises(ValidationError):
            check_feasible(fam, RateVector.zeros(2), two_arm)
