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


# ---------------------------------------------------------------------------
# each pivot kernel on its own, whatever the dispatch rule would choose

KERNELS = ["_list_pivots", "_numpy_pivots"]

#: the LPs of test_no_rows_or_no_variables
EMPTY_LPS = [
    ([1.0, 2.0], [], [5.0, 5.0]),
    ([-1.0, 0.0, 3.0], np.zeros((0, 3)), [1.0, 0.0, 2.0]),
    ([], [], []),
    ([], np.zeros((0, 0)), np.zeros(0)),
]


def forced(name):
    """simplex_solve with every LP sent to the kernel ``name``."""
    kernel = getattr(solvers, name)

    def solve(*lp):
        with pytest.MonkeyPatch.context() as patch:
            for other in KERNELS:
                patch.setattr(solvers, other, kernel)
            return simplex_solve(*lp)

    return solve


def assert_kernels_match_dense(lp):
    dense = outcome(simplex_dense, lp)
    for name in KERNELS:
        assert outcome(forced(name), lp) == dense, name


def test_each_kernel_on_cw_lps_of_random_and_golden_matrices(monkeypatch):
    rng = np.random.default_rng(1010)
    matrices = [random_matrix(rng, k) for k in (7, 7, 7, 8, 8, 8)]
    matrices += [random_matrix(rng, k, tie_rate=0.2) for k in (7, 8)]
    matrices += [
        m for m in map(builtin_dataset, GOLDEN_DATASETS) if m.k <= solvers.DEFAULT_K_MAX
    ]
    lps = cw_lps(matrices, monkeypatch)
    # LPs on both sides of the dispatch rule
    assert {len(rows) <= len(c) for c, rows, _ in lps} == {True, False}
    for lp in lps:
        assert_kernels_match_dense(lp)


@settings(max_examples=200, deadline=None)
@given(small_lps())
def test_each_kernel_on_small_integer_lps(lp):
    assert_kernels_match_dense(lp)
    m = len(lp[1]) + len(lp[0])
    if m == 0:
        return
    # the Fraction cap walk of test_small_integer_lps, for each kernel
    with pytest.MonkeyPatch.context() as patch:
        for p in range(PIVOT_LIMIT):
            patch.setattr(solvers, "PIVOTS_PER_ROW", Fraction(p, m))
            dense = outcome(simplex_dense, lp)
            for name in KERNELS:
                assert outcome(forced(name), lp) == dense, (name, p)
            if isinstance(dense[0], bytes):
                break
        else:
            pytest.fail(f"no optimum within {PIVOT_LIMIT} pivots")


@pytest.mark.parametrize("lp", EMPTY_LPS)
def test_each_kernel_with_no_rows_or_no_variables(lp):
    assert_kernels_match_dense(lp)


def test_list_kernel_exactly_when_no_more_rows_than_variables(monkeypatch):
    taken = []
    for name in KERNELS:
        kernel = getattr(solvers, name)

        def record(*args, name=name, kernel=kernel):
            taken.append(name)
            return kernel(*args)

        monkeypatch.setattr(solvers, name, record)
    for n in range(4):
        for r in range(2 * n + 3):
            taken.clear()
            rows = np.ones((r, n))
            if n == 0 and r > 0:
                continue  # no variables: every row is violated at the box point
            simplex_solve(np.ones(n), rows, np.ones(n))
            assert taken == ["_list_pivots" if r <= n else "_numpy_pivots"], (r, n)


@st.composite
def divergence_lps(draw):
    """cw-shaped LPs: sparse 0/1 pair sets scaled by per-pair divergences, u = 1/d.

    n is the pair count of K = 5 to 8 arms and r runs to 2n, so the LPs
    fall on both sides of the dispatch rule.  Rows with a single pair
    make degenerate pivots and ratio ties common.
    """
    k = draw(st.sampled_from([5, 6, 7, 8]))
    n = k * (k - 1) // 2
    r = draw(st.integers(1, 2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pattern = rng.random((r, n)) < 0.15
    pattern[np.arange(r), rng.integers(0, n, r)] = True
    div = rng.uniform(0.001, 0.7, n)
    steps = 2 * (k - 1)
    costs = rng.integers(0, steps + 1, n) / steps
    return costs, pattern * div, 1.0 / div


@settings(max_examples=150, deadline=None)
@given(divergence_lps())
def test_each_kernel_on_divergence_lps(lp):
    assert_kernels_match_dense(lp)
    assert isinstance(outcome(simplex_solve, lp)[0], bytes)
