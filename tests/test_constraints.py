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
from duelbench.constraints import (
    GroupCache,
    _iter_cw_descriptors,
    _winner_sets,
    min_lhs_cw,
    min_lhs_ecw,
    pair_count,
    pair_index,
)
from duelbench.core import _copeland_sets
from oracles import cw_pair_sets, ecw_pair_sets, feasible_brute, min_lhs_brute


def cw_descriptors(matrix, i1):
    """1-based (i2, l, I, S) and P_IS of the full family, from ``_iter_cw_descriptors``.

    A matrix with exact 1/2 entries uses its tie-tolerant sets, as the
    bandit does on its empirical matrix.
    """
    if matrix.has_ties:
        sup, inf_sets, losses, _ = _copeland_sets(matrix.values)
    else:
        sup, inf_sets, losses, _ = _winner_sets(matrix, i1)
    out = []
    for i2, l, iset, sset in _iter_cw_descriptors(sup, inf_sets, losses, i1 - 1):
        pairs = {tuple(sorted((i1, j + 1), reverse=True)) for j in iset}
        pairs |= {tuple(sorted((i2 + 1, j + 1), reverse=True)) for j in sset}
        desc = (i2 + 1, l, tuple(j + 1 for j in iset), tuple(j + 1 for j in sset))
        out.append((desc, tuple(sorted(pairs))))
    return out


def ecw_family(matrix, i1):
    """1-based pins (i1, j) and subset-constraint pair sets of the relaxed family."""
    ecw_constraints(matrix, i1)  # range, tie and winner checks
    pins, sets = ecw_pair_sets(matrix.values.tolist(), i1 - 1)
    # the oracle's pins are (hi, lo) 0-based pairs that contain i1 - 1
    pins = tuple((i1, (b if a == i1 - 1 else a) + 1) for a, b in pins)
    sets = [frozenset((a + 1, b + 1) for a, b in ps) for ps in sets]
    return pins, sets


def assert_min_lhs_match_brute(vals, copeland, i1, weights):
    """Both sorted budgets, each from a new cache of the ``copeland`` sets,
    equal the brute-force minimum over the enumerated family."""
    fast = min_lhs_cw(GroupCache(copeland), i1, weights)
    brute = min_lhs_brute(cw_pair_sets(vals, i1), weights)
    assert fast == pytest.approx(brute, rel=1e-12) or (math.isinf(fast) and math.isinf(brute))
    pins, sets = ecw_pair_sets(vals, i1)
    brute_ecw = min(
        min_lhs_brute(sets, weights),
        min((weights[i][j] for i, j in pins), default=math.inf),
    )
    fast_ecw = min_lhs_ecw(GroupCache(copeland), i1, weights)
    assert fast_ecw == pytest.approx(brute_ecw, rel=1e-12) or (
        math.isinf(fast_ecw) and math.isinf(brute_ecw)
    )
    for min_lhs, full in ((min_lhs_cw, fast), (min_lhs_ecw, fast_ecw)):
        assert_floor_stops_early(min_lhs, copeland, i1, weights, full)


def assert_floor_stops_early(min_lhs, copeland, i1, weights, full):
    """With a floor, a walk gives the exact minimum when it clears the floor,
    and otherwise a left side of the family below the floor."""
    for floor in (-math.inf, 0.0, full / 2, full, math.nextafter(full, math.inf), 2 * full + 1, math.inf):
        got = min_lhs(GroupCache(copeland), i1, weights, floor)
        if full >= floor:
            assert got == full
        else:
            assert full <= got < floor


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

    @pytest.mark.parametrize(
        "mapping,key",
        [({"2-1": 1.0, "02-1": 5.0}, "02-1"), ({"2-1": 1, "2-1 ": 2}, "2-1 ")],
    )
    def test_repeated_pair(self, mapping, key):
        with pytest.raises(ValidationError, match=f"{key!r} repeats the pair 2-1"):
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
        descs = dict(cw_descriptors(cyclic, 1))
        assert (2, 0, (2,), (4,)) in descs
        assert (2, 1, (3, 4), (4,)) in descs
        got = next(pairs for d, pairs in descs.items() if d[:3] == (2, 0, (2,)))
        assert got == ((2, 1), (4, 2))

    def test_two_arm_single_descriptor(self, two_arm):
        descs = cw_descriptors(two_arm, 1)
        assert descs == [((2, 0, (2,), ()), ((2, 1),))]

    def test_cyclic_ecw_pins_and_vacuous_families(self, cyclic):
        pins, sets = ecw_family(cyclic, 1)
        assert pins == ((1, 2), (1, 3), (1, 4))
        assert sets == []

    def test_multisol_ecw_structure(self, multisol):
        # pins run over the arms the candidate beats; every subset family
        # except the one for rival 2 is vacuous
        pins, sets = ecw_family(multisol, 1)
        assert pins == ((1, 3), (1, 4), (1, 5))
        assert sets == [frozenset({(3, 2)})]
        # arm 3 beats arm 2, so the pair is rival 2's S = (3,), not rival 3's S = (2,)
        assert multisol.values[2][1] > 0.5

    def test_two_arm_ecw(self, two_arm):
        pins, sets = ecw_family(two_arm, 1)
        assert pins == ((1, 2),)
        assert sets == []

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
        matrices = [random_matrix(rng, int(rng.integers(2, 6))) for _ in range(12)]
        # exact 1/2 entries, as in the bandit's empirical matrices, K=1..6
        rng = np.random.default_rng(23)
        matrices += [random_matrix(rng, k, tie_rate=0.3) for k in range(1, 7) for _ in range(4)]
        for m in matrices:
            for i0 in _copeland_sets(m.values)[3]:
                got = {frozenset(pairs) for _, pairs in cw_descriptors(m, i0 + 1)}
                want = {
                    frozenset((a + 1, b + 1) for a, b in ps)
                    for ps in cw_pair_sets(m.values.tolist(), i0)
                }
                assert got == want

    def test_pair_sets_never_empty(self):
        rng = np.random.default_rng(22)
        for _ in range(15):
            k = int(rng.integers(2, 6))
            m = random_matrix(rng, k)
            _, _, losses, _ = _copeland_sets(m.values)
            i1 = losses.index(min(losses)) + 1
            for (_, _, i_set, s_set), pairs in cw_descriptors(m, i1):
                assert pairs
                if not i_set:
                    assert len(s_set) >= 1


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
        groups = GroupCache(_copeland_sets(cyclic.values))
        assert min_lhs_cw(groups, 0, weights) == pytest.approx(1.0)
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
        cases = []
        for _ in range(25):
            k = int(rng.integers(2, 7))
            m = random_matrix(rng, k)
            cases.append((m, random_rates(rng, k), [_copeland_sets(m.values)[3][0]]))
        # exact 1/2 entries, as in the bandit's empirical matrices, K=1..6, every winner
        rng = np.random.default_rng(34)
        for k in range(1, 7):
            for _ in range(6):
                m = random_matrix(rng, k, tie_rate=0.3)
                cases.append((m, random_rates(rng, k), _copeland_sets(m.values)[3]))
        for m, rv, winners in cases:
            vals = m.values.tolist()
            sets = _copeland_sets(m.values)
            weights = (rv.as_matrix() * gap_divergence(m.values)).tolist()
            for i1 in winners:
                assert_min_lhs_match_brute(vals, sets, i1, weights)

    def test_forced_rival_among_smallest_weights(self):
        # arm 1 beats arms 2-4, which beat each other in a cycle; rival 2 has
        # the smallest weight in H = {2, 3, 4}, and the binding descriptor is
        # (i2=2, l=1, I={2, 3}, S={}): its pair (1, 2) is forced in, and I
        # adds the smallest of H - {2}
        vals = [
            [0.5, 0.7, 0.7, 0.7],
            [0.3, 0.5, 0.7, 0.3],
            [0.3, 0.3, 0.5, 0.7],
            [0.3, 0.7, 0.3, 0.5],
        ]
        weights = [
            [0.0, 0.1, 0.7, 1.0],
            [0.1, 0.0, 5.0, 5.0],
            [0.7, 5.0, 0.0, 5.0],
            [1.0, 5.0, 5.0, 0.0],
        ]
        sets = _copeland_sets(np.array(vals))
        assert sets[1][0] == [1, 2, 3]
        assert min_lhs_cw(GroupCache(sets), 0, weights) == 0.1 + 0.7
        assert_min_lhs_match_brute(vals, sets, 0, weights)
        descs = dict(cw_descriptors(PreferenceMatrix(vals), 1))
        assert descs[(2, 1, (2, 3), ())] == ((2, 1), (3, 1))

    def test_relaxed_budget_sums_left_to_right(self):
        # arm 1 beats arms 3-5 and loses to arm 2, which loses to arms 3-5:
        # rival 2's relaxed constraint needs all of S = {3, 4, 5}
        vals = np.full((5, 5), 0.5)
        for winner, loser in [(0, 2), (0, 3), (0, 4), (1, 0), (2, 1), (3, 1), (4, 1),
                              (2, 3), (3, 4), (4, 2)]:
            vals[winner, loser], vals[loser, winner] = 0.8, 0.2
        groups = GroupCache(_copeland_sets(vals))
        weights = [[10.0] * 5 for _ in range(5)]
        for j, w in zip((2, 3, 4), (0.1, 0.2, 0.3)):
            weights[j][1] = weights[1][j] = w
        # not sum(): from Python 3.12 on it compensates and returns 0.6
        assert min_lhs_ecw(groups, 0, weights) == (0.1 + 0.2) + 0.3

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
