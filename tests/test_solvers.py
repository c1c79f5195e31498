import math

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import random_matrix, random_tied_winner_matrix
from duelbench import (
    NotAWinnerError,
    OptimalExploration,
    PreferenceMatrix,
    SubproblemInstance,
    TiedPreferenceError,
    TooLargeError,
    ValidationError,
    builtin_dataset,
    ccb_bound,
    check_feasible,
    cw_constraints,
    ecw_constant,
    ecw_constraints,
    ecw_explicit_bound,
    ecw_optimal,
    ecw_worstcase_bound,
    gap_divergence,
    kl_bernoulli,
    lower_bound,
    lp_cw_optimal,
    simplex_solve,
    solve_subproblem,
)
from duelbench.core import _copeland_sets, _strict_sets
from duelbench.solvers import _optimal, check_lp_size
from oracles import subset_lp_rows, subset_solution_feasible


def brute_force_prefix_objective(costs, slack):
    """Best objective over all prefix block lengths, computed independently."""
    order = sorted(range(len(costs)), key=lambda i: (costs[i], i))
    best = math.inf
    for h in range(slack + 1, len(costs) + 1):
        best = min(best, sum(costs[i] for i in order[:h]) / (h - slack))
    return best


def fields(opt):
    """Everything an OptimalExploration carries, in comparable form."""
    return opt.winner, opt.constant, opt.exactness, opt.rates.to_map()


class TestSubproblem:
    @pytest.mark.parametrize(
        "costs,slack,expected_y,expected_obj",
        [
            ((2.0, 5.0), 0, [1.0, 0.0], 2.0),
            ((1.0, 1.0, 3.0), 1, [1.0, 1.0, 0.0], 2.0),
            ((1.0, 2.0, 3.0, 4.0), 2, [0.5, 0.5, 0.5, 0.5], 5.0),
        ],
    )
    def test_examples(self, costs, slack, expected_y, expected_obj):
        y, obj = solve_subproblem(SubproblemInstance(costs, slack))
        assert obj == pytest.approx(expected_obj)
        assert y.tolist() == pytest.approx(expected_y)
        assert obj == pytest.approx(brute_force_prefix_objective(list(costs), slack))
        assert subset_solution_feasible(y.tolist(), slack)

    def test_empty_family(self):
        y, obj = solve_subproblem(SubproblemInstance((3.0, 4.0), 2))
        assert obj == 0.0 and y.tolist() == [0.0, 0.0]
        y, obj = solve_subproblem(SubproblemInstance((3.0,), 5))
        assert obj == 0.0

    def test_tie_prefers_smaller_block(self):
        # h=1 and h=2 both give objective 1; the sparser solution wins
        y, obj = solve_subproblem(SubproblemInstance((1.0, 1.0), 0))
        assert obj == pytest.approx(1.0)
        assert y.tolist() == [1.0, 0.0]

    def test_validation(self):
        with pytest.raises(ValidationError):
            SubproblemInstance((), 0)
        with pytest.raises(ValidationError):
            SubproblemInstance((1.0,), -1)
        with pytest.raises(ValidationError):
            SubproblemInstance((-1.0,), 0)

    def test_matches_enumerated_lp(self):
        rng = np.random.default_rng(40)
        for _ in range(60):
            n = int(rng.integers(1, 8))
            slack = int(rng.integers(0, n))
            costs = tuple(rng.uniform(0.0, 10.0, n).tolist())
            y, obj = solve_subproblem(SubproblemInstance(costs, slack))
            rows = subset_lp_rows(n, slack)
            x, lp_obj = simplex_solve(np.array(costs), rows, np.ones(n))
            assert obj == pytest.approx(lp_obj, rel=1e-9, abs=1e-12)
            assert subset_solution_feasible(y.tolist(), slack)


class TestSimplex:
    def test_single_variable(self):
        x, val = simplex_solve([2.0], [[1.0]], [3.0])
        assert x.tolist() == pytest.approx([1.0])
        assert val == pytest.approx(2.0)

    def test_subset_example(self):
        rows = subset_lp_rows(3, 1)
        x, val = simplex_solve([1.0, 1.0, 3.0], rows, np.ones(3))
        assert val == pytest.approx(2.0)

    def test_no_rows_drives_to_zero(self):
        x, val = simplex_solve([1.0, 2.0], [], [5.0, 5.0])
        assert x.tolist() == pytest.approx([0.0, 0.0])
        assert val == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            simplex_solve([1.0], [[-1.0]], [1.0])
        with pytest.raises(ValidationError):
            simplex_solve([1.0], [[1.0]], [0.5])  # box point violates the row

    @pytest.mark.parametrize(
        "costs,rows,box",
        [
            ([math.nan], [[1.0]], [1.0]),  # NaN cost
            ([math.inf], [[1.0]], [1.0]),
            ([[1.0]], [[1.0]], [1.0]),  # 2-D costs
            (1.0, [[1.0]], [1.0]),  # scalar costs
            ([1.0, 1.0], [[1.0, 1.0, 1.0, 1.0]], [1.0, 1.0]),  # one row, four wide
            ([1.0, 1.0], [[1.0, 1.0, 1.0]], [1.0, 1.0]),  # three wide
            ([1.0, 1.0], [1.0, 1.0], [1.0, 1.0]),  # a flat row
            ([1.0, 1.0], [[1.0, 1.0], [1.0]], [1.0, 1.0]),  # ragged
            ([1.0], [[math.inf]], [1.0]),
            ([1.0], [[math.nan]], [1.0]),
            ([1.0, 1.0], [[math.nan, 1.0]], [1.0, 1.0]),
            ([], [[]], []),  # no variables: the row cannot hold
            (["a"], [[1.0]], [1.0]),
            ([1.0, 2.0], np.zeros((0, 3)), [1.0, 1.0]),  # no rows, but three wide
            ([1.0, 2.0], np.zeros(0), [1.0, 1.0]),  # a flat empty array
        ],
    )
    def test_malformed_input(self, costs, rows, box):
        with pytest.raises(ValidationError):
            simplex_solve(costs, rows, box)

    @pytest.mark.parametrize("rows", [(), np.zeros((0, 2))])
    def test_empty_tuple_or_r_by_n_array_means_no_rows(self, rows):
        x, val = simplex_solve([1.0, 2.0], rows, [5.0, 5.0])
        assert x.tolist() == [0.0, 0.0]
        assert val == 0.0

    def test_against_scipy_on_random_instances(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            r = int(rng.integers(1, 12))
            rows = rng.uniform(0.0, 2.0, (r, n))
            rows[rng.random((r, n)) < 0.4] = 0.0
            rows = rows[rows.sum(axis=1) > 0]
            if not len(rows):
                continue
            c = rng.uniform(0.0, 5.0, n)
            u = np.array([1.0 / w[w > 0].min() for w in rows]).max() * np.ones(n)
            x, val = simplex_solve(c, rows, u)
            res = linprog(
                c, A_ub=-rows, b_ub=-np.ones(len(rows)), bounds=[(0, ub) for ub in u]
            )
            assert res.success
            assert val == pytest.approx(res.fun, rel=1e-7, abs=1e-9)
            assert (rows @ x >= 1 - 1e-9).all()

    def test_cyclic_lp_value(self, cyclic):
        assert lp_cw_optimal(cyclic, 1).constant == pytest.approx(27.5487, abs=1e-3)


class TestEcwOptimal:
    def test_cyclic(self, cyclic):
        opt = ecw_optimal(cyclic, 1)
        rate = 1.0 / kl_bernoulli(0.6, 0.5)
        assert rate == pytest.approx(49.6635, abs=1e-3)
        for j in (2, 3, 4):
            assert opt.rates.get(1, j) == pytest.approx(rate, abs=1e-3)
        assert opt.rates.get(3, 2) == 0.0
        assert opt.constant == pytest.approx(49.66, abs=0.05)
        assert opt.exactness == "ecw_closed_form"

    def test_two_arm(self, two_arm):
        opt = ecw_optimal(two_arm, 1)
        assert opt.rates.get(2, 1) == pytest.approx(1.0 / kl_bernoulli(0.6, 0.5))
        assert opt.constant == pytest.approx(24.83, abs=0.05)

    def test_multisol_matches_lp(self, multisol):
        for i1 in (1, 2, 3):
            tilde = ecw_optimal(multisol, i1).constant
            exact = lp_cw_optimal(multisol, i1).constant
            assert abs(tilde - exact) <= 1e-6 * exact

    def test_rates_feasible(self, cyclic, gap, multisol):
        rng = np.random.default_rng(42)
        matrices = [cyclic, gap, multisol] + [
            random_matrix(rng, int(rng.integers(2, 6))) for _ in range(10)
        ]
        for m in matrices:
            _, _, losses, _ = _copeland_sets(m.values)
            i1 = losses.index(min(losses)) + 1
            opt = ecw_optimal(m, i1)
            assert check_feasible(ecw_constraints(m, i1), opt.rates, m)
            for i in range(2, m.k + 1):
                for j in range(1, i):
                    cap = 1.0 / kl_bernoulli(m.values[i - 1, j - 1], 0.5)
                    assert opt.rates.get(i, j) <= cap * (1 + 1e-12)
            recomputed = sum(
                opt.rates.get(i, j)
                * ((losses[i - 1] + losses[j - 1] - 2 * min(losses)) / (2 * (m.k - 1)))
                for i in range(1, m.k + 1)
                for j in range(1, i)
            )
            assert opt.constant == pytest.approx(recomputed, rel=1e-12)

    def test_not_a_winner_and_ties(self, cyclic):
        with pytest.raises(NotAWinnerError):
            ecw_optimal(cyclic, 4)
        with pytest.raises(TiedPreferenceError):
            ecw_optimal(builtin_dataset("arxiv"), 1)

    def test_condorcet_pins_only_constant(self):
        # whenever a Condorcet winner exists every rival family is vacuous,
        # so the constant is the pin total
        rng = np.random.default_rng(43)
        found = 0
        for _ in range(40):
            m = random_matrix(rng, int(rng.integers(3, 6)))
            _, inf_sets, losses, _ = _copeland_sets(m.values)
            if min(losses) != 0:
                continue
            found += 1
            i1 = losses.index(0)
            expected = sum(
                (losses[j] / (2.0 * (m.k - 1))) / kl_bernoulli(m.values[i1][j], 0.5)
                for j in inf_sets[i1]
            )
            assert ecw_optimal(m, i1 + 1).constant == pytest.approx(expected, rel=1e-9)
        assert found > 3


class TestLpCwOptimal:
    def test_cyclic_value_and_hand_vertex(self, cyclic):
        opt = lp_cw_optimal(cyclic, 1)
        assert opt.constant == pytest.approx(27.55, abs=0.2)
        assert opt.exactness == "lp_exact"
        # the known optimum splits each budget in half: winner pairs and
        # cycle pairs each carry half a unit; verify feasibility and value
        d1 = kl_bernoulli(0.6, 0.5)
        d2 = kl_bernoulli(0.9, 0.5)
        hand = {
            "2-1": 1 / (2 * d1),
            "3-1": 1 / (2 * d1),
            "4-1": 1 / (2 * d1),
            "3-2": 1 / (2 * d2),
            "4-2": 1 / (2 * d2),
            "4-3": 1 / (2 * d2),
        }
        from duelbench import RateVector

        hand_rv = RateVector.from_map(4, hand)
        assert check_feasible(cw_constraints(cyclic, 1), hand_rv, cyclic)
        hand_obj = 3 * (1 / 3) * hand["2-1"] + 3 * (2 / 3) * hand["3-2"]
        assert opt.constant == pytest.approx(hand_obj, rel=1e-9)

    def test_two_arm_equals_ecw(self, two_arm):
        lp = lp_cw_optimal(two_arm, 1)
        assert lp.constant == pytest.approx(24.83, abs=0.05)
        assert lp.constant == pytest.approx(ecw_optimal(two_arm, 1).constant, rel=1e-12)

    def test_rates_feasible(self, cyclic, multisol):
        rng = np.random.default_rng(44)
        matrices = [cyclic, multisol] + [
            random_matrix(rng, int(rng.integers(2, 6))) for _ in range(8)
        ]
        for m in matrices:
            _, _, losses, _ = _copeland_sets(m.values)
            i1 = losses.index(min(losses)) + 1
            opt = lp_cw_optimal(m, i1)
            assert check_feasible(cw_constraints(m, i1), opt.rates, m)
            for i in range(2, m.k + 1):
                for j in range(1, i):
                    cap = 1.0 / kl_bernoulli(m.values[i - 1, j - 1], 0.5)
                    assert opt.rates.get(i, j) <= cap * (1 + 1e-9)

    def test_size_gate(self):
        sushi = builtin_dataset("sushi")
        with pytest.raises(TooLargeError):
            lp_cw_optimal(sushi, 1)
        with pytest.raises(TooLargeError):
            lower_bound(sushi)

    def test_k_max_override(self, cyclic):
        with pytest.raises(TooLargeError):
            lp_cw_optimal(cyclic, 1, k_max=3)
        with pytest.raises(TooLargeError):
            lower_bound(cyclic, k_max=0)  # a gate of 0 skips every exact LP
        assert lower_bound(cyclic, k_max=8) == lower_bound(cyclic, k_max=4)

    def test_negative_gate_rejected(self, cyclic):
        with pytest.raises(ValidationError, match="nonnegative"):
            check_lp_size(2, -1)
        with pytest.raises(ValidationError, match="nonnegative"):
            lower_bound(cyclic, k_max=-1)

    def test_ties_reported_before_size_gate(self):
        arxiv = builtin_dataset("arxiv")
        with pytest.raises(TiedPreferenceError):
            lower_bound(arxiv, k_max=3)


class TestAggregates:
    def test_lower_bound_cyclic(self, cyclic):
        constant, winner = lower_bound(cyclic)
        assert constant == pytest.approx(27.55, abs=0.2)
        assert winner == 1

    def test_lower_bound_two_arm(self, two_arm):
        constant, _ = lower_bound(two_arm)
        assert constant == pytest.approx(24.83, abs=0.05)

    def test_multisol_min_consistency(self, multisol):
        constant, winner = lower_bound(multisol)
        assert winner == 1
        assert ecw_constant(multisol) == pytest.approx(constant, rel=1e-6)

    def test_gap_dataset_wide_relaxation_gap(self, gap):
        # the gap matrix is the corner case where the relaxed constant
        # exceeds the exact one by more than two orders of magnitude
        exact, winner = lower_bound(gap)
        relaxed = ecw_constant(gap)
        assert winner == 1
        assert relaxed > 100.0 * exact

    def test_relaxed_never_below_exact_small(self):
        rng = np.random.default_rng(45)
        for _ in range(40):
            k = int(rng.integers(3, 6))
            m = random_matrix(rng, k)
            _, _, losses, _ = _copeland_sets(m.values)
            low = min(losses)
            for i1 in range(1, k + 1):
                if losses[i1 - 1] != low:
                    continue
                tilde = ecw_optimal(m, i1).constant
                exact = lp_cw_optimal(m, i1).constant
                assert tilde >= exact - 1e-9

    def test_tied_winner_equality_small(self):
        rng = np.random.default_rng(46)
        for _ in range(5):
            m = random_tied_winner_matrix(rng, int(rng.integers(4, 6)))
            _, _, losses, _ = _copeland_sets(m.values)
            low = min(losses)
            for i1 in range(1, m.k + 1):
                if losses[i1 - 1] != low:
                    continue
                tilde = ecw_optimal(m, i1).constant
                exact = lp_cw_optimal(m, i1).constant
                assert abs(tilde - exact) <= 1e-6 * max(exact, 1e-12)

    def test_best_winner(self):
        # the smallest constant over the winners, ties to the smallest arm
        rng = np.random.default_rng(47)
        for _ in range(5):
            m = random_tied_winner_matrix(rng, int(rng.integers(4, 6)))
            _, _, losses, _ = _copeland_sets(m.values)
            winners = [i + 1 for i, li in enumerate(losses) if li == min(losses)]
            for variant, solve in (("ecw", ecw_optimal), ("cw", lp_cw_optimal)):
                per_winner = [solve(m, i1) for i1 in winners]
                low = min(opt.constant for opt in per_winner)
                first = next(opt for opt in per_winner if opt.constant == low)
                best = _optimal(m, _strict_sets(m), variant)
                assert fields(best) == fields(first)
            assert lower_bound(m) == (low, first.winner)
            assert ecw_constant(m) == min(ecw_optimal(m, i1).constant for i1 in winners)

    def test_ecw_optimal_without_winner_is_best(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            m = random_tied_winner_matrix(rng, int(rng.integers(4, 6)))
            assert fields(ecw_optimal(m)) == fields(_optimal(m, _strict_sets(m), "ecw"))
            assert ecw_optimal(m).constant == ecw_constant(m)

    def test_planners_return_one_rate_per_pair(self):
        # each planner gives (pair index, rate) entries of its nonzero rates
        from duelbench.constraints import GroupCache
        from duelbench.solvers import _cw_lp, _ecw_plan

        rng = np.random.default_rng(59)
        for _ in range(5):
            m = random_matrix(rng, int(rng.integers(3, 6)))
            sets = _copeland_sets(m.values)
            div = gap_divergence(m.values).tolist()
            for planner, solve in ((_ecw_plan, ecw_optimal), (_cw_lp, lp_cw_optimal)):
                for i1 in sets[3]:
                    rates, constant = planner(GroupCache(sets), div, i1)
                    opt = solve(m, i1 + 1)
                    dense = opt.rates.values.tolist()
                    assert sorted(rates) == [(p, x) for p, x in enumerate(dense) if x]
                    assert constant == opt.constant

    def test_single_arm(self):
        m = PreferenceMatrix([[0.5]])
        for opt in (ecw_optimal(m), lp_cw_optimal(m, 1)):
            assert opt.winner == 1
            assert opt.constant == 0.0
            assert opt.rates.values.shape == (0,)


class TestClosedFormBounds:
    def test_ccb(self, cyclic, two_arm):
        assert ccb_bound(cyclic) == pytest.approx(1600.0, rel=1e-12)
        assert ccb_bound(two_arm) == pytest.approx(800.0, rel=1e-12)
        extreme = PreferenceMatrix([[0.5, 1.0], [0.0, 0.5]])
        assert ccb_bound(extreme) == pytest.approx(32.0, rel=1e-12)

    def test_explicit_bound_values(self, cyclic, two_arm):
        assert ecw_explicit_bound(cyclic, 1) == pytest.approx(248.3, abs=0.5)
        assert ecw_explicit_bound(two_arm, 1) == pytest.approx(74.5, abs=0.2)

    def test_worstcase_values(self, cyclic, gap):
        assert ecw_worstcase_bound(cyclic) == pytest.approx(298.0, abs=0.5)
        expected = (5.0 / kl_bernoulli(0.51, 0.5)) * (2.0 + 1.0 / 5.0)
        assert ecw_worstcase_bound(gap) == pytest.approx(expected, rel=1e-12)

    def test_bound_chain_small(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            k = int(rng.integers(2, 7))
            m = random_matrix(rng, k)
            _, _, losses, _ = _copeland_sets(m.values)
            low = min(losses)
            winners = [i + 1 for i in range(k) if losses[i] == low]
            best_tilde, best_w = math.inf, winners[0]
            for i1 in winners:
                val = ecw_optimal(m, i1).constant
                if val < best_tilde:
                    best_tilde, best_w = val, i1
            explicit = ecw_explicit_bound(m, best_w)
            assert explicit >= best_tilde - 1e-9
            assert ecw_worstcase_bound(m) >= explicit - 1e-9

    def test_requires_strict_gaps(self):
        arxiv = builtin_dataset("arxiv")
        with pytest.raises(TiedPreferenceError):
            ccb_bound(arxiv)
        with pytest.raises(TiedPreferenceError):
            ecw_worstcase_bound(arxiv)


def test_internal_lp_handles_tied_estimates():
    # empirical matrices can carry exact ties; tied pairs get a zero box
    # and never enter constraint rows
    from duelbench.constraints import GroupCache, pair_index
    from duelbench.solvers import _cw_lp

    m = PreferenceMatrix(
        [[0.5, 0.5, 0.7], [0.5, 0.5, 0.8], [0.3, 0.2, 0.5]], allow_ties=True
    )
    from duelbench.core import _copeland_sets, gap_divergence

    div = gap_divergence(m.values).tolist()
    entries, constant = _cw_lp(GroupCache(_copeland_sets(m.values)), div, 0)
    assert dict(entries).get(pair_index(1, 0), 0.0) == 0.0  # tied pair is not plannable
    assert constant >= 0.0
    assert math.isfinite(constant)


def test_optimal_exploration_fields(cyclic):
    opt = ecw_optimal(cyclic, 1)
    assert isinstance(opt, OptimalExploration)
    assert opt.winner == 1 and opt.exactness == "ecw_closed_form"
    assert opt.rates.to_map()["2-1"] == opt.rates.get(2, 1)
