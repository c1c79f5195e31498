"""The cw planner's kept basis gives the answer a cold solve gives, bit for bit.

``solvers._cw_replan`` solves the exact LP in weight form, w_p = d_p q_p,
whose polytope reads only the Copeland sets.  Its ``GroupCache`` keeps
the basis of each winner's last solve as the nonzero cells of its
nonbasic columns; a replan re-prices it column by column and returns its
vertex only when every reduced cost is below -1e-9, that is when the
vertex is the unique optimum (a pair in no row aside: it keeps w = 1 in
every solve), and solves from the slack basis otherwise.  The vertex is
read off the basis exactly (``solvers._vertex``), so the pivot path that
reached it leaves no trace in the bits.  The dense re-pricing of whole
tableau rows (``reduced_costs``) is the oracle of the kept verdict.
"""

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from duelbench import AlgorithmConfig, PreferenceMatrix, builtin_dataset, simulate_batch
from duelbench import bandit, solvers
from duelbench.constraints import GroupCache
from duelbench.core import _copeland_sets, gap_divergence, sample_submatrix
from duelbench.errors import NumericalInstabilityError
from duelbench.solvers import _best_plan, _cw_lp, _cw_replan, _pivots, _vertex
from conftest import random_matrix


def bits(plan):
    entries, constant = plan
    return [(p, x.hex()) for p, x in entries], constant.hex()


def weight_costs(groups, div):
    """The weight form's costs c_p / d_p, in pair order; a tied pair (d = 0) costs 0."""
    pairs = [(i, j) for i in range(len(div)) for j in range(i)]
    return [groups.regret[i][j] / div[i][j] if div[i][j] > 0.0 else 0.0 for i, j in pairs]


def cold_weights(rows, costs):
    """(w, nonbasic, basic pairs' rows) of min costs.w, rows.w >= 1, 0 <= w <= 1, solved cold."""
    pattern = np.array(rows, dtype=float)
    lp = np.array(costs, dtype=float), pattern, pattern.sum(axis=1) - 1.0, np.ones(len(costs))
    nonbasic, zrows = _pivots(*lp)
    return _vertex(rows, nonbasic), nonbasic, zrows


def exact_vertex(rows, nonbasic):
    """The vertex of a basis in Fractions, by Gauss-Jordan on the tight rows."""
    n, r = len(nonbasic), len(rows)
    out = set(nonbasic)
    free = [k for k in range(n) if k not in out and n + r + k not in out]
    tight = [row for i, row in enumerate(rows) if n + i in out]
    m = [
        [Fraction(row[k]) for k in free] + [Fraction(1 - sum(row[k] for k in out if k < n))]
        for row in tight
    ]
    for k in range(len(free)):
        p = next(i for i in range(k, len(m)) if m[i][k])
        m[k], m[p] = m[p], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(len(m)):
            if i != k:
                m[i] = [x - m[i][k] * y for x, y in zip(m[i], m[k])]
    w = [Fraction(0) if n + r + k in out else Fraction(1) for k in range(n)]
    for k, row in zip(free, m):
        w[k] = row[-1]
    return w


class TestExactVertex:
    # rows {a,b}, {b,c}, {a,c}: the vertex of three tight rows is w = 1/2
    TRIANGLE = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    # every 3-subset of 4 pairs: four tight rows, w = 1/3
    THIRDS = [list(row) for row in ([int(k != skip) for k in range(4)] for skip in range(4))]

    @pytest.mark.parametrize("rows, value", [(TRIANGLE, 0.5), (THIRDS, 1.0 / 3.0)], ids=["half", "third"])
    def test_fractional_vertex(self, rows, value):
        w, nonbasic, _ = cold_weights(rows, [1.0] * len(rows[0]))
        assert w == [value] * len(rows[0])
        assert w == [float(x) for x in exact_vertex(rows, nonbasic)]

    def test_thirds_read_on_the_tableau_are_rounded_off(self):
        # the exact read-out is needed: the pivots leave 1 - z off 1/3 in the last bit
        w, _, zrows = cold_weights(self.THIRDS, [1.0] * 4)
        tableau_w = [1.0] * 4
        for k, row in zrows:
            tableau_w[k] = 1.0 - row[4]
        assert tableau_w != w

    @pytest.mark.parametrize("rows", [TRIANGLE, THIRDS], ids=["half", "third"])
    def test_every_pivot_order_reads_the_same_vertex(self, rows):
        # Bland's rule pivots in column order, so each order of the pairs
        # takes its own pivot path to the one optimal vertex
        n = len(rows[0])
        seen, paths = set(), set()
        for order in permutations(range(n)):
            permuted = [[row[k] for k in order] for row in rows]
            w, nonbasic, zrows = cold_weights(permuted, [1.0] * n)
            back = [0.0] * n
            for k, wk in zip(order, w):
                back[k] = wk
            seen.add(tuple(back))
            paths.add((tuple(nonbasic), tuple(k for k, _ in zrows)))
        assert len(seen) == 1 and len(paths) > 1

    def test_cw_lp_vertices_match_fractions(self):
        # every winner's LP of the golden matrices and of random ones, at their divergences
        rng = np.random.default_rng(7)
        matrices = [builtin_dataset(name) for name in ("cyclic", "gap", "multisol")]
        matrices += [random_matrix(rng, k) for k in (4, 5, 6, 6, 7)]
        free = 0
        for matrix in matrices:
            groups = GroupCache(_copeland_sets(matrix.values))
            div = gap_divergence(matrix.values).tolist()
            for i1 in groups.winners:
                _cw_replan(groups, div, i1)
                rows = solvers._rows(groups, i1).tolist()
                w, nonbasic, _ = cold_weights(rows, weight_costs(groups, div))
                assert groups.bases[i1][1] == w
                exact = exact_vertex(rows, nonbasic)
                assert w == [float(x) for x in exact]
                free += sum(x.denominator > 1 for x in exact)
        assert free > 0

    def test_a_peeled_weight_enters_the_eliminated_rows(self):
        # the row {a} fixes w_a = 1 before any elimination; the row {a, b, c}
        # then leaves b + c = 0 to the eliminated rest, with {b, d} and {c, d}
        rows = [[1, 0, 0, 0], [1, 1, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1]]
        nonbasic = [4, 5, 6, 7]  # every row slack: all rows tight, every w free
        assert _vertex(rows, nonbasic) == [1.0, 0.0, 0.0, 1.0]
        assert _vertex(rows, nonbasic) == [float(x) for x in exact_vertex(rows, nonbasic)]

    def test_a_system_past_int64_reads_out_in_python_ints(self):
        # the S-matrix of a 32 x 32 Sylvester-Hadamard matrix: 31 tight rows of
        # 16 pairs each, determinant 2^49 up to sign, solved by w = 1/16; its elimination
        # products pass 2^63
        sylvester = np.array([[1]])
        for _ in range(5):
            sylvester = np.kron(sylvester, [[1, 1], [1, -1]])
        rows = ((1 - sylvester[1:, 1:]) // 2).tolist()
        nonbasic = list(range(31, 62))  # every row slack: all rows tight, every w free
        assert _vertex(rows, nonbasic) == [1 / 16] * 31

    def test_singular_basis_is_reported(self):
        # the two tight rows are one row twice, so the free weights are not determined
        with pytest.raises(NumericalInstabilityError):
            _vertex([[1.0, 1.0], [1.0, 1.0]], [2, 3])


class Replans:
    """The bandit's cw planner, each answer checked against a fresh cache and the q-form.

    Each cold solve's dense tableau is kept beside the planner's sparse
    columns, and every replan's kept verdict must be the dense rule's:
    each reduced cost of ``reduced_costs`` below -1e-9, the columns of
    pairs in no row aside.
    """

    def __init__(self):
        self.calls = self.warm = self.wide = self.rows_only = 0
        self.dense = {}  # (cache, winner) -> (basic pairs' tableau rows, nonbasic) of the last solve

    def dense_verdict(self, groups, costs, i1):
        zrows, nonbasic = self.dense[groups, i1]
        pattern = groups.lp_rows[i1]
        held = pattern.any(axis=0)
        n = len(costs)
        reduced = reduced_costs(zrows, nonbasic, costs)
        # the column of a pair in no row prices at its own cost, which is 0
        assert all(x == 0.0 and costs[v] == 0.0 for x, v in zip(reduced, nonbasic) if v < n and not held[v])
        priced = [x < -1e-9 for x, v in zip(reduced, nonbasic) if v >= n or held[v]]
        self.rows_only += all(priced) and not all(x < -1e-9 for x in reduced)
        return all(priced)

    def planner(self, groups, div, i1):
        costs = weight_costs(groups, div)
        kept = groups.bases.get(i1)
        verdict = kept is not None and self.dense_verdict(groups, costs, i1)
        got = _cw_replan(groups, div, i1)
        self.calls += 1
        warm = kept is not None and groups.bases.get(i1) is kept
        assert warm == verdict
        self.warm += warm
        pattern = groups.lp_rows[i1]
        rows, pairs = pattern.shape
        self.wide += warm and rows > pairs  # a kept tableau of the numpy kernel
        if not warm:  # solved cold: keep the dense tableau of the same solve
            nonbasic, zrows = _pivots(np.array(costs), pattern, pattern.sum(axis=1) - 1.0, np.ones(pairs))
            assert _vertex(pattern.tolist(), nonbasic) == groups.bases[i1][1]
            self.dense[groups, i1] = zrows, nonbasic
        sets = (groups.sup, groups.inf, groups.losses, groups.winners)
        assert bits(got) == bits(_cw_replan(GroupCache(sets), div, i1))
        _, constant = _cw_lp(GroupCache(sets), div, i1)
        assert abs(got[1] - constant) <= 1e-12 * abs(constant)
        return got

    def best_plan(self, planner, groups, div):
        best = _best_plan(planner, groups, div)
        sets = (groups.sup, groups.inf, groups.losses, groups.winners)
        assert best[0] == _best_plan(_cw_lp, GroupCache(sets), div)[0]
        return best


# (name, matrix, horizon, whether some replan keeps its basis, whether some
# kept basis has more rows than pairs, whether some kept basis is strictly
# optimal only once the columns of pairs in no row are left out); on these
# runs multisol's optimum is unique only in that sense, when it keeps a basis
RUNS = [
    ("sushi-sub6", lambda: sample_submatrix(builtin_dataset("sushi"), 6, 0.02, 3), 1_000, True, True, False),
    ("sushi-sub8", lambda: sample_submatrix(builtin_dataset("sushi"), 8, 0.02, 2), 500, True, True, True),
    ("gap", lambda: builtin_dataset("gap"), 2_000, True, False, True),
    ("multisol", lambda: builtin_dataset("multisol"), 2_000, True, False, True),
    ("cyclic", lambda: builtin_dataset("cyclic"), 20_000, True, False, True),
]


@pytest.mark.parametrize(
    "make, horizon, warm, wide, rows_only", [run[1:] for run in RUNS], ids=[run[0] for run in RUNS]
)
def test_every_replan_equals_a_cold_solve(monkeypatch, make, horizon, warm, wide, rows_only):
    replans = Replans()
    monkeypatch.setattr(bandit, "_cw_lp", replans.planner)
    monkeypatch.setattr(bandit, "_best_plan", replans.best_plan)
    simulate_batch(make(), AlgorithmConfig(variant="cw"), horizon, 3, 1)
    assert (replans.warm > 0) == warm and replans.warm < replans.calls
    assert (replans.wide > 0) == wide
    assert (replans.rows_only > 0) == rows_only


# The same Copeland sets: arm 1 beats 2, 3 and 4, 2 beats 3, 3 beats 4 and 4
# beats 2.  In TIED the pairs (1, 2) and (1, 3) have one divergence and one
# regret rate, so the LP's optimum is not unique at TIED's costs.
BEFORE = [[0.5, 0.6, 0.75, 0.6], [0.4, 0.5, 0.75, 0.3], [0.25, 0.25, 0.5, 0.6], [0.4, 0.7, 0.4, 0.5]]
TIED = [[0.5, 0.6, 0.6, 0.8], [0.4, 0.5, 0.7, 0.3], [0.4, 0.3, 0.5, 0.75], [0.2, 0.7, 0.25, 0.5]]


def divergences(rows):
    return gap_divergence(PreferenceMatrix(rows).values).tolist()


def kept_after_before():
    """A cache whose basis for arm 1 was kept by a solve at BEFORE's divergences."""
    sets = _copeland_sets(PreferenceMatrix(BEFORE).values)
    assert _copeland_sets(PreferenceMatrix(TIED).values) == sets
    groups = GroupCache(sets)
    assert groups.winners == [0]
    _cw_replan(groups, divergences(BEFORE), 0)
    return sets, groups


def reduced_costs(zrows, nonbasic, costs):
    """Every nonbasic column's reduced cost, re-priced row by row on the dense tableau."""
    n = len(costs)
    reduced = [costs[v] if v < n else 0.0 for v in nonbasic]
    for v, row in zrows:
        reduced = [x - costs[v] * a for x, a in zip(reduced, row)]
    return reduced


class TestNotStrictlyOptimal:
    def test_a_tie_solves_cold_and_matches_a_fresh_cache(self):
        sets, groups = kept_after_before()
        kept = groups.bases[0]
        rows = solvers._rows(groups, 0).tolist()
        w, nonbasic, zrows = cold_weights(rows, weight_costs(groups, divergences(BEFORE)))
        assert kept[1] == w
        div = divergences(TIED)
        fresh = _cw_replan(GroupCache(sets), div, 0)
        # the kept basis is optimal at TIED's costs, but not strictly, and
        # its vertex is not the one a cold solve reaches
        costs = weight_costs(groups, div)
        assert -1e-9 <= max(reduced_costs(zrows, nonbasic, costs)) <= 1e-9
        pairs = [(i, j) for i in range(4) for j in range(i)]
        assert [wp / div[i][j] for wp, (i, j) in zip(w, pairs)] != fresh[0]
        got = _cw_replan(groups, div, 0)
        assert groups.bases[0] is not kept
        assert bits(got) == bits(fresh)


class TestFailedSolve:
    def test_a_failed_pivot_leaves_no_basis(self, monkeypatch):
        sets, groups = kept_after_before()
        div = divergences(TIED)
        fresh = _cw_replan(GroupCache(sets), div, 0)
        m = len(solvers._rows(groups, 0)) + len(fresh[0])
        monkeypatch.setattr(solvers, "PIVOTS_PER_ROW", 1.0 / m)  # one pivot, then give up
        with pytest.raises(NumericalInstabilityError):
            _cw_replan(groups, div, 0)
        assert 0 not in groups.bases
        monkeypatch.undo()
        assert bits(_cw_replan(groups, div, 0)) == bits(fresh)
        assert 0 in groups.bases


class TestTiedPair:
    # arm 1 beats 2, 3 and 4, 3 beats 4 and 4 beats 2; the pair (2, 3) sits
    # exactly at 1/2, so it is in no Copeland set and its divergence is 0
    A = {(0, 1): 0.6, (0, 2): 0.75, (0, 3): 0.6, (1, 2): 0.5, (1, 3): 0.3, (2, 3): 0.6}
    B = {(0, 1): 0.61, (0, 2): 0.76, (0, 3): 0.62, (1, 2): 0.5, (1, 3): 0.3, (2, 3): 0.61}

    @staticmethod
    def values(upper):
        values = np.full((4, 4), 0.5)
        for (i, j), p in upper.items():
            values[i][j], values[j][i] = p, 1.0 - p
        return values

    def test_a_tied_pair_keeps_the_basis_and_matches_a_fresh_cache(self):
        a, b = self.values(self.A), self.values(self.B)
        sets = _copeland_sets(a)
        assert _copeland_sets(b) == sets
        groups = GroupCache(sets)
        _cw_replan(groups, gap_divergence(a).tolist(), 0)
        kept = groups.bases[0]
        div = gap_divergence(b).tolist()
        got = _cw_replan(groups, div, 0)
        assert groups.bases[0] is kept
        assert bits(got) == bits(_cw_replan(GroupCache(sets), div, 0))
        assert 2 not in dict(got[0]) and div[2][1] == 0.0  # the tied pair, third in pair order, has no rate


class TestPairInNoRow:
    # arms 1 and 2 are co-winners (one loss each) and 2 beats 1, so the pair
    # (1, 2) is in no row of arm 1's LP and its regret, and cost, is 0
    A = {(0, 1): 0.4, (0, 2): 0.7, (0, 3): 0.65, (1, 2): 0.6, (1, 3): 0.35, (2, 3): 0.6}
    B = {(0, 1): 0.41, (0, 2): 0.71, (0, 3): 0.66, (1, 2): 0.62, (1, 3): 0.36, (2, 3): 0.61}
    values = staticmethod(TestTiedPair.values)

    def test_a_zero_cost_pair_in_no_row_keeps_the_basis(self):
        a, b = self.values(self.A), self.values(self.B)
        sets = _copeland_sets(a)
        assert _copeland_sets(b) == sets and sets[3] == [0, 1]
        groups = GroupCache(sets)
        _cw_replan(groups, gap_divergence(a).tolist(), 0)
        kept = groups.bases[0]
        assert not solvers._rows(groups, 0)[:, 0].any() and groups.regret[1][0] == 0.0
        div = gap_divergence(b).tolist()
        got = _cw_replan(groups, div, 0)
        assert groups.bases[0] is kept
        assert bits(got) == bits(_cw_replan(GroupCache(sets), div, 0))
        assert dict(got[0])[0] == 1.0 / div[1][0]  # w = 1 on the pair in no row
