"""The exact LP over the minimal rows equals the LP over every distinct row.

``solvers._cw_lp`` keeps only the pair sets P_IS that contain no other
one.  ``oracles.cw_lp_enumerated`` solves the LP over every distinct set;
both must reach the same constant, and the rates must satisfy the whole
family, which ``min_lhs_cw`` checks by sorting, independently of either
row list.  ``scipy.optimize.linprog`` cross-checks the constant.

``solvers._lp_pattern`` finds the minimal sets in one walk of the
descriptor stream plus a filter over the sets with no rival side (at
most 2^|H|, quadratic in them): only those are filtered against each
other, and every other set is kept unless its own side contains a kept
one.  ``oracles.lp_pattern_quadratic`` filters every
distinct set against every kept one; the two must give the same rows in
the same order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import random_matrix, random_tied_winner_matrix
from duelbench import NumericalInstabilityError, builtin_dataset, lower_bound, simplex_solve
from duelbench import solvers
from duelbench.cli import main
from duelbench.constraints import FEASIBILITY_TOL, GroupCache, iter_pairs, min_lhs_cw
from duelbench.core import PreferenceMatrix, _copeland_sets, gap_divergence
from duelbench.solvers import _cw_lp, _lp_pattern, _minimal_sets
from oracles import cw_lp_enumerated, cw_lp_program, cw_pair_sets, lp_pattern_quadratic

STRICT_DATASETS = ["cyclic", "gap", "mslr5_condorcet", "mslr5_noncondorcet", "multisol"]


def bounds_k8_matrices():
    """The 25 K=8 strict-gap matrices of the benchmark's bounds workload (seed 1605)."""
    rng = np.random.default_rng(1605)
    structures = rng.random((25, 8, 8)) < 0.5
    out = []
    for signs in structures:
        vals = np.full((8, 8), 0.5)
        for i in range(8):
            for j in range(i):
                gap = float(rng.uniform(0.02, 0.45))
                vals[i, j] = 0.5 + gap if signs[i, j] else 0.5 - gap
                vals[j, i] = 1.0 - vals[i, j]
        out.append(PreferenceMatrix(vals))
    return out


def highs_constant(values, i1):
    """The optimum of ``oracles.cw_lp_program`` as scipy's HiGHS finds it."""
    costs, rows, box = cw_lp_program(values, i1)
    if not len(rows):
        return 0.0
    res = linprog(
        costs, A_ub=-rows, b_ub=-np.ones(len(rows)), bounds=list(zip([0.0] * len(box), box)),
        method="highs",
    )
    assert res.success
    return res.fun


def assert_same_lp(matrix):
    values = matrix.values
    sets = _copeland_sets(values)
    winners = sets[3]
    div = gap_divergence(values).tolist()
    constants = []
    for i1 in winners:
        entries, constant = _cw_lp(GroupCache(sets), div, i1)
        _, reference = cw_lp_enumerated(values, i1)
        assert constant == pytest.approx(reference, rel=1e-9, abs=1e-12)
        assert constant == pytest.approx(highs_constant(values, i1), rel=1e-7, abs=1e-9)
        q = np.zeros((matrix.k, matrix.k))
        pairs = list(iter_pairs(matrix.k))
        for p, rate in entries:
            i, j = pairs[p]
            q[i, j] = q[j, i] = rate
        weights = (q * np.asarray(div)).tolist()
        assert min_lhs_cw(GroupCache(sets), i1, weights) >= 1.0 - FEASIBILITY_TOL
        constants.append(reference)
    if not matrix.has_ties:
        constant, winner = lower_bound(matrix)
        assert constant == pytest.approx(min(constants), rel=1e-9, abs=1e-12)
        assert constants[winners.index(winner - 1)] == pytest.approx(constant, rel=1e-9)


class TestAgainstEnumeratedLp:
    @pytest.mark.parametrize("dataset", STRICT_DATASETS)
    def test_datasets(self, dataset):
        assert_same_lp(builtin_dataset(dataset))

    def test_bounds_k8_matrices(self):
        for matrix in bounds_k8_matrices():
            assert_same_lp(matrix)

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(2, 7),
        seed=st.integers(0, 2**32 - 1),
        tied_winners=st.booleans(),
        tie_rate=st.sampled_from([0.0, 0.0, 0.2]),
    )
    def test_random_matrices(self, k, seed, tied_winners, tie_rate):
        rng = np.random.default_rng(seed)
        if tied_winners and k >= 3:
            matrix = random_tied_winner_matrix(rng, k)
        else:
            # tied pairs, as in empirical matrices, sit in neither set
            matrix = random_matrix(rng, k, tie_rate=tie_rate)
        assert_same_lp(matrix)

    def test_cyclic_lambda(self, cyclic):
        assert lower_bound(cyclic)[0] == pytest.approx(27.5487, abs=1e-3)


def assert_minimal(masks, kept):
    assert kept == [m for m in masks if m in kept]  # given order
    for mask in masks:
        inside = [low for low in kept if low & mask == low]
        if mask in kept:
            assert inside == [mask]  # no kept set contains another
        else:
            assert inside  # a dropped set strictly contains a kept one


class TestMinimalSets:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 2**12 - 1), unique=True, max_size=60))
    def test_random_masks(self, masks):
        assert_minimal(masks, _minimal_sets(masks))

    def test_example(self):
        assert _minimal_sets([0b0111, 0b0011, 0b1000, 0b1100, 0b0101]) == [0b0011, 0b1000, 0b0101]

    @pytest.mark.parametrize("index", [2, 24])
    def test_bounds_k8_families(self, index):
        matrix = bounds_k8_matrices()[index]
        values = matrix.values
        sup, inf_sets, losses, winners = _copeland_sets(values)
        pairs = list(iter_pairs(matrix.k))
        for i1 in winners:
            masks = [
                sum(1 << pairs.index(pair) for pair in pair_set)
                for pair_set in dict.fromkeys(cw_pair_sets(values, i1))
            ]
            kept = _minimal_sets(masks)
            assert len(kept) < len(masks)
            assert_minimal(masks, kept)
            pattern = _lp_pattern(sup, inf_sets, losses, i1)
            assert [sum(1 << p for p in np.flatnonzero(row)) for row in pattern] == kept


def assert_rows_of_the_quadratic_filter(matrix):
    sup, inf_sets, losses, winners = _copeland_sets(matrix.values)
    for i1 in winners:
        rows = _lp_pattern(sup, inf_sets, losses, i1)
        reference = lp_pattern_quadratic(sup, inf_sets, losses, i1)
        assert rows.shape == reference.shape
        assert rows.dtype == reference.dtype
        assert rows.tolist() == reference.tolist()  # row for row, in order


class TestLinearRowRule:
    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(2, 9),
        seed=st.integers(0, 2**32 - 1),
        tie_rate=st.sampled_from([0.0, 0.2]),
    )
    def test_random_matrices(self, k, seed, tie_rate):
        matrix = random_matrix(np.random.default_rng(seed), k, tie_rate=tie_rate)
        assert_rows_of_the_quadratic_filter(matrix)

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(3, 9), seed=st.integers(0, 2**32 - 1))
    def test_tied_winners(self, k, seed):
        assert_rows_of_the_quadratic_filter(
            random_tied_winner_matrix(np.random.default_rng(seed), k)
        )

    def test_bounds_k8_matrices(self):
        for matrix in bounds_k8_matrices():
            assert_rows_of_the_quadratic_filter(matrix)


class TestPivotCap:
    # two rows, two variables: the optimum (2/3, 2/3) takes two pivots
    ROWS, COSTS, BOX = [[1.0, 0.5], [0.5, 1.0]], [1.0, 1.0], [2.0, 2.0]

    def test_needs_two_pivots(self):
        x, value = simplex_solve(self.COSTS, self.ROWS, self.BOX)
        assert x.tolist() == pytest.approx([2 / 3, 2 / 3])
        assert value == pytest.approx(4 / 3)

    def test_cap_raises(self, monkeypatch):
        # the tableau has 2 + 2 rows, so a quarter pivot per row caps it at 1
        monkeypatch.setattr(solvers, "PIVOTS_PER_ROW", 0.25)
        with pytest.raises(NumericalInstabilityError, match="after 1 pivots"):
            simplex_solve(self.COSTS, self.ROWS, self.BOX)

    def test_cli_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(solvers, "PIVOTS_PER_ROW", 0)
        assert main(["bounds", "--dataset", "cyclic"]) == NumericalInstabilityError.exit_code
        assert "pivots" in capsys.readouterr().err
