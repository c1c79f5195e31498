"""The condensed-tableau simplex gives the full tableau's answers bit for bit.

``solvers.simplex_solve`` keeps a column per nonbasic variable only;
``oracles.simplex_dense`` is the same method on the full tableau, with a
column per variable.  On every LP both must pivot alike: the same bytes
of x, the same value, and a pivot cap that trips after the same pivot
with the same error.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_matrix
from duelbench import DuelbenchError, builtin_dataset, solvers
from duelbench.constraints import GroupCache
from duelbench.core import _copeland_sets, gap_divergence
from duelbench.solvers import _cw_lp, simplex_solve
from oracles import simplex_dense

GOLDEN_DATASETS = ["cyclic", "gap", "multisol", "mslr5_condorcet", "mslr5_noncondorcet", "sushi"]


def outcome(solve, lp):
    """(x bytes, value as hex) of a solve, or (error type, message)."""
    try:
        x, value = solve(*lp)
    except DuelbenchError as exc:
        return type(exc), str(exc)
    return x.tobytes(), value.hex()


def assert_same_pivots(lp):
    assert outcome(simplex_solve, lp) == outcome(simplex_dense, lp)


def cw_lps(matrices, monkeypatch):
    """Every LP ``_cw_lp`` hands the simplex for every winner of each matrix."""
    lps = []
    solve = solvers.simplex_solve

    def record(*lp):
        lps.append(lp)
        return solve(*lp)

    monkeypatch.setattr(solvers, "simplex_solve", record)
    for matrix in matrices:
        sets = _copeland_sets(matrix.values)
        div = gap_divergence(matrix.values).tolist()
        for i1 in sets[3]:
            _cw_lp(GroupCache(sets), div, i1)
    monkeypatch.undo()
    return lps


def test_cw_lps_of_random_and_golden_matrices(monkeypatch):
    rng = np.random.default_rng(1010)
    matrices = [random_matrix(rng, k) for k in (7, 7, 7, 8, 8, 8)]
    matrices += [random_matrix(rng, k, tie_rate=0.2) for k in (7, 8)]
    matrices += [
        m for m in map(builtin_dataset, GOLDEN_DATASETS) if m.k <= solvers.DEFAULT_K_MAX
    ]
    lps = cw_lps(matrices, monkeypatch)
    assert len(lps) >= len(matrices)
    assert max(len(rows) for _, rows, _ in lps) > 100  # some large LPs
    for lp in lps:
        assert_same_pivots(lp)


small = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0])

#: more pivots than any LP of small_lps takes
PIVOT_LIMIT = 200


@st.composite
def small_lps(draw):
    """Small-integer LPs: ratio ties and degenerate pivots are common."""
    n = draw(st.integers(0, 4))
    r = draw(st.integers(0, 6))
    costs = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0]), min_size=n, max_size=n))
    box = np.array(draw(st.lists(small, min_size=n, max_size=n)))
    rows = np.array(draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=r, max_size=r)))
    rows = rows.reshape(r, n)
    # only rows the box point satisfies: the others are rejected alike
    return costs, rows[rows @ box >= 1.0], box


@settings(max_examples=300, deadline=None)
@given(small_lps())
def test_small_integer_lps(lp):
    assert_same_pivots(lp)
    m = len(lp[1]) + len(lp[0])
    if m == 0:
        return
    # a Fraction per row puts the cap at exactly p pivots: raise the cap one
    # pivot at a time until the dense solve ends, matching it at every step
    with pytest.MonkeyPatch.context() as patch:
        for p in range(PIVOT_LIMIT):
            patch.setattr(solvers, "PIVOTS_PER_ROW", Fraction(p, m))
            dense = outcome(simplex_dense, lp)
            assert outcome(simplex_solve, lp) == dense
            if isinstance(dense[0], bytes):
                break
        else:
            pytest.fail(f"no optimum within {PIVOT_LIMIT} pivots")


@pytest.mark.parametrize(
    "lp",
    [
        ([1.0, 2.0], [], [5.0, 5.0]),  # r = 0
        ([-1.0, 0.0, 3.0], np.zeros((0, 3)), [1.0, 0.0, 2.0]),  # r = 0
        ([], [], []),  # n = 0
        ([], np.zeros((0, 0)), np.zeros(0)),  # n = 0
    ],
)
def test_no_rows_or_no_variables(lp):
    assert_same_pivots(lp)
    assert not isinstance(outcome(simplex_solve, lp)[0], type)
