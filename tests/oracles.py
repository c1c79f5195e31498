"""Independent brute-force evaluators used as test oracles.

Everything here re-derives the constraint families directly from their
set-quantified definitions with plain itertools enumeration, without
touching the library's sorted fast paths or descriptor generators.
Intended for K <= 6, and K = 8 for ``cw_lp_enumerated``, the exact LP
over every distinct P_IS, the reference for the library's LP over the
minimal ones.  ``lp_pattern_quadratic`` keeps the minimal sets by
checking each distinct set of the whole descriptor stream against every
set kept so far, the reference for the library's rule, which filters
only the sets with no rival side against each other.  ``run_per_round``
is the simulation loop stepped one round at a time, the reference for
the harness's stretch skipping; ``run_rebuilt`` also rebuilds the
bandit's caches before every guard scan and every plan, the reference
for their draw-by-draw upkeep.
``simplex_dense`` is the simplex on the full tableau, the reference for
both kernels of the condensed one.  ``gap_divergence_libm`` is the
divergence one value at a time with ``math.log``, the reference for
``core.gap_divergences``; ``first_guarded_scan`` the guard as a full
lexicographic scan over the tallies, the reference for the bandit's
resumed scan, and ``assert_guard_state_holds`` the invariant of the
scan's stop.  ``ecw_plan_dense`` is the relaxed plan as
one rate per pair, summed with no cached piece, the reference for the
(pair index, rate) entries of ``solvers._ecw_plan``.
"""

import copy
import itertools
import math

import numpy as np

from duelbench import solvers
from duelbench.bandit import (
    BOOTSTRAP_ROUNDS,
    RmedState,
    random_baseline_select,
    select_pair,
    update_and_plan,
)
from duelbench.constraints import _ecw_rivals, _iter_cw_descriptors, pair_count, pair_index
from duelbench.core import _copeland_sets, _regret_nums, gap_divergence, regret_table
from duelbench.errors import NumericalInstabilityError, ValidationError
from duelbench.harness import _check_preconditions, checkpoint_grid
from duelbench.solvers import _minimal_sets, simplex_solve


def gap_divergence_libm(values):
    """d_KL(mu, 1/2) per value with libm's log: 0 and 1 give ln 2, values
    outside (0, 1) and NaN give 0, and round-off below 0 becomes 0."""
    out = []
    for p in values:
        p = float(p)
        if 0.0 < p < 1.0:
            d = p * math.log(2.0 * p) + (1.0 - p) * math.log(2.0 * (1.0 - p))
        elif p in (0.0, 1.0):
            d = math.log(2.0)
        else:
            d = 0.0
        out.append(d if d > 0.0 else 0.0)
    return out


def first_guarded_scan(state, config):
    """First 0-based pair (i, j), i > j, in lexicographic order that is drawn
    fewer than alpha*sqrt(ln t) times or whose estimate lies closer to 1/2
    than beta / ln ln t (every pair through the bootstrap rounds), or None."""
    t = state.t
    need = config.alpha * math.sqrt(math.log(t)) if t > 1 else 0.0
    near = math.inf if t <= BOOTSTRAP_ROUNDS else config.beta / math.log(math.log(t))
    for i in range(state.k):
        for j in range(i):
            if state.counts[i][j] < need or abs(state.muhat[i][j] - 0.5) < near:
                return i, j
    return None


def assert_guard_state_holds(state):
    """Every pair before the guard's stop has a count at its level and a gap at or above its threshold."""
    stop = state._stop
    assert all(n >= state._level for n in state._n[:stop])
    assert all(gap >= state._near for gap in state._gap[:stop])


def ecw_plan_dense(sets, div, i1):
    """(one rate per pair in lexicographic order, pair indices in the order set, constant).

    The closed-form relaxed plan of 0-based winner i1, for Copeland
    ``sets`` and divergences ``div``: the pins q_{i1 j} = 1 / d in the
    order of i1's inferiors, then each relaxed rival's prefix block,
    rivals ascending, with the constant summed in the same order.  Every
    piece is solved afresh, with ``solvers._prefix_solution``.
    """
    sup, inf_, losses, _ = sets
    regret = regret_table(losses).tolist()
    q = [0.0] * pair_count(len(div))
    order = []
    constant = 0.0
    for j in inf_[i1]:
        p = pair_index(i1, j)
        q[p] = 1.0 / div[i1][j]
        order.append(p)
        constant += regret[i1][j] * q[p]
    for i2, cand, need in _ecw_rivals(sup, losses, i1):
        y, _ = solvers._prefix_solution([regret[j][i2] / div[j][i2] for j in cand], len(cand) - need)
        for j, yj in zip(cand, y):
            if yj > 0.0:
                p = pair_index(j, i2)
                q[p] = yj / div[j][i2]
                order.append(p)
                constant += regret[j][i2] * q[p]
    return q, order, constant


def sign_sets(values):
    """(superiors, inferiors, losses), 0-based, ties in neither set."""
    k = len(values)
    sup = [
        sorted(j for j in range(k) if j != i and values[i][j] < 0.5) for i in range(k)
    ]
    inf_ = [
        sorted(j for j in range(k) if j != i and values[i][j] > 0.5) for i in range(k)
    ]
    losses = [len(s) for s in sup]
    return sup, inf_, losses


def _pair(a, b):
    return (a, b) if a > b else (b, a)


def cw_pair_sets(values, i1):
    """Every P_IS of the full family for 0-based winner candidate i1."""
    sup, inf_, losses = sign_sets(values)
    k = len(values)
    ordered = sorted(losses)
    if k < 2:
        return []
    out = []
    for i2 in range(k):
        if i2 == i1:
            continue
        source = [j for j in sup[i2] if j != i1]
        for level in range(max(0, ordered[0] - 1), ordered[1] + 1):
            need_i = level + 1 - losses[i1]
            if need_i < 0:
                continue
            for iset in itertools.combinations(inf_[i1], need_i):
                need_s = max(0, losses[i2] - level - (1 if i2 in iset else 0))
                if need_s > len(source):
                    continue
                for sset in itertools.combinations(source, need_s):
                    pairs = {_pair(i1, j) for j in iset} | {_pair(i2, j) for j in sset}
                    out.append(frozenset(pairs))
    return out


def ecw_pair_sets(values, i1):
    """(pin pairs, subset-constraint pair sets) of the relaxed family."""
    sup, inf_, losses = sign_sets(values)
    k = len(values)
    pins = [_pair(i1, j) for j in inf_[i1]]
    out = []
    for i2 in range(k):
        if i2 == i1:
            continue
        need = losses[i2] - losses[i1] + 1
        source = [j for j in sup[i2] if j != i1]
        if need > len(source):
            continue
        for sset in itertools.combinations(source, need):
            out.append(frozenset(_pair(i2, j) for j in sset))
    return pins, out


def min_lhs_brute(pair_sets, weights):
    """Minimum constraint left side over explicit pair sets, +inf if none."""
    best = math.inf
    for pairs in pair_sets:
        lhs = sum(weights[i][j] for i, j in pairs)
        if lhs < best:
            best = lhs
    return best


def feasible_brute(values, i1, weights, kind, tol=1e-12):
    """Brute-force membership test matching check_feasible's one-sided reading."""
    if kind == "cw":
        low = min_lhs_brute(cw_pair_sets(values, i1), weights)
    else:
        pins, sets = ecw_pair_sets(values, i1)
        low = min(
            min_lhs_brute(sets, weights),
            min((weights[i][j] for i, j in pins), default=math.inf),
        )
    return low >= 1.0 - tol


def cw_lp_program(values, i1):
    """(costs, rows, box) of the full-family LP with a row for every distinct P_IS.

    ``values`` is a K x K array, K >= 2; columns are the pairs in
    lexicographic (i > j) order, and tied pairs get a zero box.
    """
    values = np.asarray(values, dtype=float)
    k = len(values)
    _, _, losses = sign_sets(values)
    rnum = _regret_nums(losses)
    div = gap_divergence(values)
    pairs = [(i, j) for i in range(k) for j in range(i)]
    index = {pair: p for p, pair in enumerate(pairs)}
    costs = [rnum[i][j] / (2.0 * (k - 1)) for i, j in pairs]
    box = [1.0 / div[i, j] if div[i, j] > 0.0 else 0.0 for i, j in pairs]
    distinct = dict.fromkeys(cw_pair_sets(values, i1))
    rows = np.zeros((len(distinct), len(pairs)))
    for row, pair_set in zip(rows, distinct):
        for pair in pair_set:
            row[index[pair]] = div[pair]
    return costs, rows, box


def cw_lp_enumerated(values, i1):
    """(rates, constant) of ``cw_lp_program`` by the library's simplex."""
    x, value = simplex_solve(*cw_lp_program(values, i1))
    return x.tolist(), value


def lp_pattern_quadratic(sup, inf_sets, losses, i1):
    """0/1 rows of the minimal pair sets P_IS of winner i1, in first-seen order.

    Every descriptor of the stream gives a bit mask, the distinct masks
    keep their first-seen order, and ``_minimal_sets`` drops each one
    that contains a kept one.
    """
    k = len(losses)
    bits = [[1 << pair_index(i, j) if i != j else 0 for j in range(k)] for i in range(k)]
    own = bits[i1]
    masks = {}  # a dict keeps the first-seen order
    for i2, _l, iset, sset in _iter_cw_descriptors(sup, inf_sets, losses, i1):
        mask = 0
        for j in iset:
            mask |= own[j]
        rival = bits[i2]
        for j in sset:
            mask |= rival[j]
        masks[mask] = None
    kept = _minimal_sets(list(masks))
    pattern = np.zeros((len(kept), pair_count(k)))
    for row, mask in zip(pattern, kept):
        while mask:
            low = mask & -mask
            row[low.bit_length() - 1] = 1.0
            mask ^= low
    return pattern


def simplex_dense(costs, constraints, upper_bounds):
    """Minimize costs . x subject to row . x >= 1 per row and 0 <= x <= u.

    All row coefficients must be nonnegative and the box point x = u must
    satisfy every row (it does for divergence families, where u is the
    per-pair budget cap).  Substituting x = u - z turns the box point into
    the slack-basis origin of an equivalent maximization, so no phase-one
    is needed.  Deterministic: Bland's rule for entering and leaving.

    Returns (x, value) with x an optimal vertex.  Raises
    NumericalInstabilityError past PIVOTS_PER_ROW pivots per tableau row.

    The full tableau, (r+n+1) x (2n+r+1), with a column for every
    variable: the reference for both pivot kernels of
    ``solvers.simplex_solve``, which keep the nonbasic columns only and
    must match it bit for bit: ``_list_pivots``, taken when r <= n, and
    ``_numpy_pivots``, taken when r > n.
    """
    c = np.asarray(costs, dtype=float)
    u = np.asarray(upper_bounds, dtype=float)
    n = c.shape[0]
    if u.shape != (n,):
        raise ValidationError("objective and box sizes differ")
    if (u < 0).any() or not np.isfinite(u).all():
        raise ValidationError("box bounds must be finite and nonnegative")
    rows = np.asarray(constraints, dtype=float).reshape(-1, n) if len(constraints) else np.zeros((0, n))
    if (rows < 0).any():
        raise ValidationError("constraint coefficients must be nonnegative")
    r = rows.shape[0]
    b = (rows * u).sum(axis=1) - 1.0  # the sums simplex_solve takes, in its order
    if (b < -1e-9).any():
        bad = int(np.argmin(b))
        raise ValidationError(f"constraint row {bad} is violated even at the box point")
    b = np.maximum(b, 0.0)

    m = r + n
    tab = np.zeros((m + 1, n + m + 1))
    tab[:r, :n] = rows
    tab[r:m, :n] = np.eye(n)
    tab[:m, n : n + m] = np.eye(m)
    tab[:r, -1] = b
    tab[r:m, -1] = u
    tab[m, :n] = c  # reduced costs of max c.z
    basis = list(range(n, n + m))

    cap = solvers.PIVOTS_PER_ROW * m  # read per call, so a test can lower it
    pivots = 0
    while True:
        entering = np.flatnonzero(tab[m, :-1] > 1e-9)
        if entering.size == 0:
            break
        if pivots >= cap:
            raise NumericalInstabilityError(f"simplex not optimal after {pivots} pivots")
        pivots += 1
        j = int(entering[0])
        col = tab[:m, j]
        usable = col > 1e-11
        if not usable.any():
            raise NumericalInstabilityError(
                "no pivot above 1e-11 available in entering column"
            )
        ratios = np.where(usable, tab[:m, -1] / np.where(usable, col, 1.0), np.inf)
        low = ratios.min()
        tied = np.flatnonzero(ratios <= low + 1e-12)
        i = int(min(tied, key=lambda idx: basis[idx]))
        prow = tab[i] / tab[i, j]
        colv = tab[:, j].copy()
        colv[i] = 0.0
        tab -= np.outer(colv, prow)
        tab[i] = prow
        basis[i] = j

    z = np.zeros(n)
    for i, bv in enumerate(basis):
        if bv < n:
            z[bv] = tab[i, -1]
    x = np.clip(u - z, 0.0, u)
    value = 0.0
    for cost, xk in zip(c.tolist(), x.tolist()):
        value += cost * xk
    return x, value


def subset_lp_rows(n, slack):
    """Constraint rows of the enumerated subset program: every (n-slack)-subset."""
    rows = []
    for subset in itertools.combinations(range(n), n - slack):
        row = [0.0] * n
        for j in subset:
            row[j] = 1.0
        rows.append(row)
    return rows


def subset_solution_feasible(y, slack, tol=1e-9):
    """Every (n - slack)-subset of y sums to at least 1."""
    n = len(y)
    return all(
        sum(y[j] for j in subset) >= 1.0 - tol
        for subset in itertools.combinations(range(n), n - slack)
    )


class RebuiltState(RmedState):
    """An ``RmedState`` whose plan step rebuilds every cache from the tallies."""

    __slots__ = ()
    _update = RmedState._refresh


def run_per_round(matrix, config, horizon, seed, rebuild=False):
    """Reference simulation loop: every round through select_pair/update_and_plan.

    Same contract as ``harness._run_single`` (checkpoints, regret row,
    terminal state), without applying any stretch of rounds in one step.
    With ``rebuild``, every guard scan and every plan reads caches rebuilt
    in full from the tallies, not kept up to date draw by draw.
    """
    _check_preconditions(matrix, config, horizon)
    k = matrix.k
    vals = matrix.values.tolist()
    _, _, losses, _ = _copeland_sets(matrix.values)
    rnum = _regret_nums(losses)
    rng = np.random.default_rng(seed)
    state = RebuiltState(k) if rebuild else RmedState(k)
    grid = checkpoint_grid(horizon)
    row = []
    cp_idx = 0
    acc = 0
    for t in range(1, horizon + 1):
        if config.variant == "random":
            l, m = random_baseline_select(rng, k)
        else:
            if rebuild:
                state._refresh()
            l, m = select_pair(state, config)
        outcome = None if l == m else (1 if rng.random() < vals[l - 1][m - 1] else 0)
        update_and_plan(state, config, (l, m), outcome)
        acc += rnum[l - 1][m - 1]
        if t == grid[cp_idx]:
            row.append(acc / (2.0 * (k - 1)))
            cp_idx += 1
    return grid, row, state


def run_rebuilt(matrix, config, horizon, seed):
    """``run_per_round`` with every guard scan and plan reading a full ``RmedState._refresh()``."""
    return run_per_round(matrix, config, horizon, seed, rebuild=True)


def cache_view(state, variant):
    """Everything a plan step reads, with every winner's budget and the plan."""
    groups = state._groups
    return (
        (groups.sup, groups.inf, groups.losses, groups.winners),
        groups.regret,
        state._div,
        state._weights,
        state._n,
        state._gap,
        [state._budget(i1, variant) for i1 in groups.winners],
        state._planned(variant),
    )


def assert_caches_match_a_rebuild(state, variant):
    """The caches brought up to date from the live ones equal those of a full rebuild.

    Both are made on copies, so the run under test is left as it is.
    """
    live, fresh = copy.deepcopy(state), copy.deepcopy(state)
    live._update()
    fresh._refresh()
    assert cache_view(live, variant) == cache_view(fresh, variant)
