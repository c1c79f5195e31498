"""Optimal exploration rates and asymptotic regret constants.

The relaxed ("ecw") program decomposes per rival and each piece reduces
to: minimize sum c_j y_j subject to every (n-k)-subset of y summing to
at least 1.  After sorting costs ascending an optimal solution is a
prefix block y_1..y_h = 1/(h-k) for some h > k, so scanning the at most
n-k candidates solves it exactly.

The full ("cw") program is a linear program over the family's
constraints plus per-pair box bounds, solved exactly by the in-house
simplex below (Bland's rule, deterministic).  It pivots on the condensed
tableau, which keeps a column per nonbasic variable only; the basic
columns it leaves out are exact unit vectors, so its pivots and answers
are bit for bit those of the full tableau.  An LP with no more rows than
variables pivots on Python lists and updates only the cells a pivot
changes; a larger one pivots on numpy arrays.  Both kernels give the
same bits.  The LP's rows are the minimal pair sets P_IS of the
enumerated family: a set that strictly contains another is implied by
it, since coefficients are per pair and nonnegative and x >= 0, so
dropping it leaves the feasible polytope, and the optimum, unchanged.
Finding them takes one walk of the descriptor stream plus a filter over
the sets with no rival side: a set with a rival side can contain only
sets with none, so only those (at most 2^|H|, quadratic in them) are
checked against each other (``_lp_pattern`` gives the proof).  Both
planners take a ``GroupCache``, which owns the Copeland sets, the
winners to plan for and each pair's regret rate; the row pattern reads
only the sets and is kept there per winner.

The LP has two forms.  ``lp_cw_optimal`` and ``lower_bound`` solve it
in rates q (the q-form, ``_cw_lp``, through ``simplex_solve``); the
bandit's replans in weights w_p = d_p q_p (the weight form,
``_cw_replan``), re-pricing the basis of the last solve, which the cache
keeps per winner with its exact vertex.  Both solve cold by _pivots,
which picks the kernel by the LP's shape.
The LP is gated at K_max arms because the enumeration grows
exponentially; the relaxed program has no size limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter, mul

import numpy as np

from .constraints import (
    GroupCache,
    RateVector,
    _iter_cw_descriptors,
    _prefix,
    _rivals,
    _winner_sets,
    iter_pairs,
    pair_count,
    pair_index,
)
from .core import (
    PreferenceMatrix,
    _check_integer,
    _check_real,
    _copeland_sets,  # not called here; the benchmark's tracer wraps solvers._copeland_sets
    _float_array,
    _items,
    _strict_sets,
    gap_divergence,
    kl_bernoulli,
)
from .errors import NumericalInstabilityError, TooLargeError, ValidationError

DEFAULT_K_MAX = 8

#: simplex_solve gives up after this many pivots per tableau row.  The cap
#: bounds the work: Bland's rule cannot cycle, but it can take very many
#: pivots, so a well-posed LP can reach the cap too.
PIVOTS_PER_ROW = 50


def check_lp_size(k: int, k_max: int = DEFAULT_K_MAX) -> None:
    """Raise TooLargeError if a K-arm exact LP exceeds the gate; a gate of 0 skips every LP."""
    gate = _check_integer(k_max, "K_max", 0)
    if k > gate:
        raise TooLargeError(f"exact LP gated at K_max={gate}, got K={k}")


@dataclass(frozen=True)
class SubproblemInstance:
    """Cost vector over an index set plus the slack k of the subset constraints."""

    costs: tuple
    slack: int

    def __post_init__(self):
        costs = tuple(_check_real(c, "cost") for c in _items(self.costs, "costs"))
        if len(costs) < 1:
            raise ValidationError("subproblem needs at least one element")
        object.__setattr__(self, "slack", _check_integer(self.slack, "slack", 0))
        if any(c < 0 for c in costs):
            raise ValidationError("costs must be nonnegative")
        object.__setattr__(self, "costs", costs)


@dataclass(frozen=True)
class OptimalExploration:
    """Optimal rates and the induced logarithmic regret constant for one winner."""

    winner: int
    rates: RateVector
    constant: float
    exactness: str


def _prefix_solution(costs, slack):
    """Best prefix-block solution: (values list, objective).

    Ties between equal-objective block lengths resolve to the smallest h.
    """
    n = len(costs)
    ranked = sorted((c, idx) for idx, c in enumerate(costs))
    y = [0.0] * n
    if slack >= n:
        return y, 0.0
    prefix = _prefix(ranked)
    best_h, best_obj = -1, math.inf
    for h in range(slack + 1, n + 1):
        obj = prefix[h] / (h - slack)
        if obj < best_obj:
            best_h, best_obj = h, obj
    level = 1.0 / (best_h - slack)
    for _, idx in ranked[:best_h]:
        y[idx] = level
    return y, best_obj


def solve_subproblem(instance: SubproblemInstance):
    """Exact minimizer of the sorted-prefix subset program.

    Returns (y, objective) with y per element of the instance.  A slack
    of at least the set size means the constraint family is empty; the
    all-zero solution is returned with objective 0.
    """
    y, obj = _prefix_solution(list(instance.costs), instance.slack)
    return np.asarray(y), float(obj)


# ---------------------------------------------------------------------------
# condensed simplex (exact LP engine)


def simplex_solve(costs, constraints, upper_bounds):
    """Minimize costs . x subject to row . x >= 1 per row and 0 <= x <= u.

    ``costs`` and ``upper_bounds`` are finite 1-D arrays of one length n,
    ``constraints`` is an r x n array of finite coefficients; a plain
    empty sequence means r = 0.
    All row coefficients must be nonnegative and the box point x = u must
    satisfy every row (it does for divergence families, where u is the
    per-pair budget cap).  Substituting x = u - z turns the box point into
    the slack-basis origin of an equivalent maximization, so no phase-one
    is needed.  Deterministic: Bland's rule for entering and leaving.

    The tableau is the condensed one: a column per nonbasic variable and
    the right-hand side, (r+n+1) x (n+1), instead of a column per variable.
    A pivot reuses the entering column for the leaving variable.  In the
    full tableau a basic column is an exact unit vector with an exact zero
    reduced cost, so it never enters and a pivot subtracts exact zeros
    from it; every stored cell is the same float expression as there, and
    the pivots, x and the value are bit for bit those of the full tableau.

    An LP with no more rows than variables (r <= n) pivots on Python
    lists (_list_pivots), a larger one on numpy arrays (_numpy_pivots).
    The list kernel skips exactly the cells where the array update
    subtracts a product with an exact zero factor, so at most the sign of
    a zero cell differs, which no comparison, ratio or u - z can see: both
    give the same pivots, x and value.

    Returns (x, value) with x an optimal vertex.  Raises
    NumericalInstabilityError past PIVOTS_PER_ROW pivots per tableau row.
    """
    c = _float_array(costs, "costs")
    if c.ndim != 1 or not np.isfinite(c).all():
        raise ValidationError("costs must be a finite 1-D array")
    u = _float_array(upper_bounds, "box bounds")
    n = c.shape[0]
    if u.shape != (n,):
        raise ValidationError("objective and box sizes differ")
    if (u < 0).any() or not np.isfinite(u).all():
        raise ValidationError("box bounds must be finite and nonnegative")
    rows = _float_array(constraints, "constraints")
    if rows.shape == (0,) and not isinstance(constraints, np.ndarray):
        rows = rows.reshape(0, n)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValidationError(f"constraints must be an r x {n} array, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise ValidationError("constraint coefficients must be finite")
    if (rows < 0).any():
        raise ValidationError("constraint coefficients must be nonnegative")
    b = rows @ u - 1.0
    if (b < -1e-9).any():
        bad = int(np.argmin(b))
        raise ValidationError(f"constraint row {bad} is violated even at the box point")
    b = np.maximum(b, 0.0)

    z = np.zeros(n)
    for k, row in _pivots(c, rows, b, u)[1]:
        z[k] = row[n]
    x = np.clip(u - z, 0.0, u)
    return x, float(c @ x)


def _pivots(c, rows, b, u):
    """Optimal basis of max c.z, rows.z <= b, 0 <= z <= u: (nonbasic, [(k, row) per basic z_k]).

    Variables are z first, then the r row slacks and the n bound slacks;
    column j of a tableau row (a list) is nonbasic[j]'s, and column n the
    right-hand side.  An LP with no more rows than variables (r <= n)
    pivots on Python lists (_list_pivots), a larger one on numpy arrays
    (_numpy_pivots).
    """
    kernel = _list_pivots if rows.shape[0] <= rows.shape[1] else _numpy_pivots
    return kernel(c, rows, b, u)


def _numpy_pivots(c, rows, b, u):
    """The condensed simplex on numpy arrays, for _pivots.

    Each pivot is one rank-one update of the whole tableau.
    """
    r, n = rows.shape
    m = r + n
    tab = np.zeros((m + 1, n + 1))
    tab[:r, :n] = rows
    tab[r:m, :n] = np.eye(n)
    tab[:r, -1] = b
    tab[r:m, -1] = u
    tab[m, :n] = c  # reduced costs of max c.z
    done = n + m  # above every variable index: marks "no candidate"
    basis = np.arange(n, n + m)  # variable of each row: z first, then the slacks
    nonbasic = np.append(np.arange(n), done)  # variable of each column; the rhs never enters

    cap = PIVOTS_PER_ROW * m
    pivots = 0
    while True:
        # Bland: the smallest variable index among the columns with a positive reduced cost
        keys = np.where(tab[m] > 1e-9, nonbasic, done)
        j = int(keys.argmin())
        if keys[j] == done:
            break
        if pivots >= cap:
            raise NumericalInstabilityError(f"simplex not optimal after {pivots} pivots")
        pivots += 1
        col = tab[:m, j]
        usable = col > 1e-11
        if not usable.any():
            raise NumericalInstabilityError(
                "no pivot above 1e-11 available in entering column"
            )
        ratios = np.divide(tab[:m, -1], col, out=np.full(m, np.inf), where=usable)
        tied = ratios <= ratios.min() + 1e-12
        i = int(np.where(tied, basis, done).argmin())
        pivot = tab[i, j]
        prow = tab[i] / pivot
        prow[j] = 1.0 / pivot  # the leaving variable's column, a unit vector before
        colv = tab[:, j].copy()
        colv[i] = 0.0
        tab[:, j] = 0.0
        tab -= colv[:, None] * prow
        tab[i] = prow
        basis[i], nonbasic[j] = nonbasic[j], basis[i]
    basic = np.flatnonzero(basis < n)  # the rows of basic z
    return nonbasic[:n].tolist(), list(zip(basis[basic].tolist(), tab[basic].tolist()))


def _list_pivots(c, rows, b, u):
    """The condensed simplex on Python lists, for _pivots.

    The same pivots as _numpy_pivots, but a pivot updates only the rows
    with a nonzero in the entering column, and in them only the pivot
    row's nonzero cells, by the same expression ``x - cv * p``.
    """
    r, n = rows.shape
    m = r + n
    tab = [row + [bk] for row, bk in zip(rows.tolist(), b.tolist())]
    for k, uk in enumerate(u.tolist()):
        row = [0.0] * (n + 1)
        row[k], row[n] = 1.0, uk
        tab.append(row)
    obj = c.tolist() + [0.0]  # reduced costs of max c.z
    tab.append(obj)
    basis = list(range(n, n + m))  # variable of each row: z first, then the slacks
    nonbasic = list(range(n))  # variable of each column but the rhs, which never enters

    cap = PIVOTS_PER_ROW * m
    pivots = 0
    while True:
        # Bland: the smallest variable index among the columns with a positive reduced cost
        keys = [v for v, cost in zip(nonbasic, obj) if cost > 1e-9]
        if not keys:
            break
        j = nonbasic.index(min(keys))
        if pivots >= cap:
            raise NumericalInstabilityError(f"simplex not optimal after {pivots} pivots")
        pivots += 1
        # the rows with a nonzero in column j; the objective row is one of them
        hits = list(compress(range(m + 1), map(itemgetter(j), tab)))
        ratios = [(tab[k][n] / tab[k][j], k) for k in hits[:-1] if tab[k][j] > 1e-11]
        if not ratios:
            raise NumericalInstabilityError(
                "no pivot above 1e-11 available in entering column"
            )
        low = min(ratios)[0] + 1e-12
        i = min((basis[k], k) for ratio, k in ratios if ratio <= low)[1]
        pivot = tab[i][j]
        prow = [v / pivot for v in tab[i]]
        pj = prow[j] = 1.0 / pivot  # the leaving variable's column, a unit vector before
        cells = [(col, p) for col, p in enumerate(prow) if p and col != j]
        for k in hits:
            if k != i:
                row = tab[k]
                cv = row[j]
                for col, p in cells:
                    row[col] -= cv * p
                row[j] = 0.0 - cv * pj
        tab[i] = prow
        basis[i], nonbasic[j] = nonbasic[j], basis[i]
    return nonbasic, [(v, row) for v, row in zip(basis, tab) if v < n]


# ---------------------------------------------------------------------------
# internal planners shared with the bandit (0-based sets, tie-tolerant safe)


def _ecw_plan(groups, div, i1):
    """Closed-form relaxed rates of winner i1: (one rate per pair in iter_pairs order, constant).

    ``groups`` is a GroupCache for ``div``, the pairwise gap divergence;
    tied pairs (div 0) never appear in its sets and receive no rate.  The
    pins q_{i1 j} = 1 / div are summed first, in the order of i1's
    inferiors, then each rival's subproblem, rivals ascending, from the
    (pair, rate, regret per unit of ln t) entries the cache keeps.
    """
    regret = groups.regret
    q = [0.0] * pair_count(len(div))
    constant = 0.0
    for j in groups.inf[i1]:
        rate = q[pair_index(i1, j)] = 1.0 / div[i1][j]
        constant += regret[i1][j] * rate
    for i2, cand, need in groups.ecw_rivals(i1):
        per_winner = groups.pieces.setdefault(i2, {})
        piece = per_winner.get(i1)
        if piece is None:
            y, _ = _prefix_solution([regret[j][i2] / div[j][i2] for j in cand], len(cand) - need)
            rates = [(j, yj / div[j][i2]) for j, yj in zip(cand, y) if yj > 0.0]
            piece = per_winner[i1] = [(pair_index(j, i2), r, regret[j][i2] * r) for j, r in rates]
        for p, rate, cost in piece:
            # pair roles are disjoint by construction: pins touch i1,
            # and each subproblem only sets the losing side of i2
            assert q[p] == 0.0
            q[p] = rate
            constant += cost
    return q, constant


def _minimal_sets(masks):
    """The bit masks that contain no other one, in their given order.

    ``masks`` must be distinct.  Taken by ascending popcount, a mask is
    checked against the masks kept so far: a contained one has fewer
    bits, and a mask that contains a dropped one contains a kept one too.
    The check is quadratic in the kept masks, so ``_lp_pattern`` gives it
    only the sets with no rival side, at most 2^|H| of them.
    """
    kept = []
    for mask in sorted(masks, key=int.bit_count):
        for low in kept:  # a plain loop: any() over a generator costs twice as much
            if low & mask == low:
                break
        else:
            kept.append(mask)
    kept = set(kept)
    return [mask for mask in masks if mask in kept]


def _lp_pattern(sup, inf_sets, losses, i1):
    """0/1 rows of the minimal pair sets P_IS of winner i1, in first-seen order.

    A set is minimal if it strictly contains no other set of the stream.
    That is decided by where the pairs lie, in one walk of the stream
    plus a filter over the sets with no S side (at most 2^|H|, quadratic
    in them).  The I side of a descriptor holds pairs (i1, j) with j in
    H, the arms i1 beats; its S side holds pairs (i2, j) where j beats i2
    and j != i1.  No I side holds such a pair, since every I pair touches
    i1 and no S pair does, and no other rival's S side does, since that
    would need i2 and j to beat each other.  So a set with a nonempty S
    side can strictly contain only sets of its own rival and "I-only"
    sets, whose S side is empty.

    Within one rival it contains none.  At level l a set without the pair
    (i1, i2) has |I| + |S| = L_i2 - L_i1 + 1, and a set with it has
    L_i2 - L_i1 unless S was clipped to empty.  Two sets of the same kind
    are the same size, so neither strictly contains the other; a set
    without (i1, i2) is larger than one with it, and one with it cannot
    lie inside one without it.

    So an I-only set is kept iff it contains no other I-only set
    (``_minimal_sets`` over the I-only sets alone), and a set with a
    nonempty S side is kept iff its I side contains no kept I-only set.
    A mask that contains a dropped I-only set contains a kept one too.
    The walk keeps each descriptor's I side, rival and S side, and a set
    with an S side gets its mask only once its I side is known to be free.
    """
    k = len(losses)
    bits = [[1 << pair_index(i, j) if i != j else 0 for j in range(k)] for i in range(k)]
    own = bits[i1]
    stream = []  # (I side mask, rival, S side) of each descriptor, in stream order
    last = side = None
    for i2, _l, iset, sset in _iter_cw_descriptors(sup, inf_sets, losses, i1):
        if iset != last:  # the stream repeats one I side over many S sides
            last, side = iset, 0
            for j in iset:
                side |= own[j]
        stream.append((side, i2, sset))
    lows = set(_minimal_sets(list(dict.fromkeys(side for side, _, sset in stream if not sset))))
    free = {}  # I side -> whether it contains no kept I-only set
    rows = {}  # mask -> None; a dict keeps the first-seen order
    for side, i2, sset in stream:
        if not sset:
            if side in lows:
                rows[side] = None
            continue
        ok = free.get(side)
        if ok is None:
            ok = free[side] = not any(low & side == low for low in lows)
        if ok:
            rival = bits[i2]
            for j in sset:
                side |= rival[j]
            rows[side] = None
    # bit p of a mask is column p: unpack the masks' little-endian bytes
    n = pair_count(k)
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(mask.to_bytes(width, "little") for mask in rows), np.uint8)
    pattern = np.unpackbits(raw.reshape(len(rows), width), axis=1, count=n, bitorder="little")
    return pattern.astype(float)


def _cw_lp(groups, div, i1):
    """Exact full-family LP of winner i1: (one rate per pair in iter_pairs order, constant).

    ``groups`` is a GroupCache, which keeps i1's row pattern; each call
    scales it by the divergences ``div`` and solves the LP over those rows.
    """
    pairs = list(iter_pairs(len(div)))
    c = np.array([groups.regret[i][j] for i, j in pairs])
    divs = [div[i][j] for i, j in pairs]
    u = np.array([1.0 / d if d > 0.0 else 0.0 for d in divs])
    x, value = simplex_solve(c, _rows(groups, i1) * divs, u)
    return x.tolist(), value


def _rows(groups, i1):
    """Winner i1's 0/1 row pattern, made once per GroupCache."""
    pattern = groups.lp_rows.get(i1)
    if pattern is None:
        pattern = groups.lp_rows[i1] = _lp_pattern(groups.sup, groups.inf, groups.losses, i1)
    return pattern


def _cw_replan(groups, div, i1):
    """_cw_lp's LP in weights w_p = d_p q_p, from the basis kept by the last solve.

    Its polytope, pattern.w >= 1 and 0 <= w <= 1, reads only the Copeland
    sets; the divergences move only the costs c_p / d_p.  The kept basis
    is re-priced and kept if every reduced cost is below -1e-9: its vertex
    is then the unique optimum, which any solve reaches.  Otherwise the LP
    is solved from the slack basis by _pivots.  w is read off the basis
    exactly.
    """
    pairs = list(iter_pairs(len(div)))
    divs = [div[i][j] for i, j in pairs]
    regret = [groups.regret[i][j] for i, j in pairs]
    # a tied pair (d = 0) is in no Copeland set, so no row reads its w: a
    # negative cost leaves it nonbasic at w = 1 in every solve, as 0 would,
    # and its reduced cost strictly negative; its rate is 0 either way
    costs = [c / d if d > 0.0 else -1.0 for c, d in zip(regret, divs)]
    n = len(costs)
    kept = groups.bases.get(i1)
    if kept is not None:
        zrows, nonbasic, w = kept
        # a slack costs nothing, so only the rows of basic pairs price
        reduced = [costs[v] if v < n else 0.0 for v in nonbasic]
        for v, row in zrows:
            reduced = [x - costs[v] * a for x, a in zip(reduced, row)]
        if max(reduced) >= -1e-9:
            kept = None
    if kept is None:
        groups.bases.pop(i1, None)  # a failed solve leaves no basis behind
        rows = _rows(groups, i1)
        nonbasic, zrows = _pivots(np.array(costs), rows, rows.sum(axis=1) - 1.0, np.ones(n))
        w = _vertex(rows.tolist(), nonbasic)
        groups.bases[i1] = zrows, nonbasic, w
    q = [wp / d if d > 0.0 else 0.0 for wp, d in zip(w, divs)]
    return q, math.fsum(map(mul, regret, q))


def _vertex(rows, nonbasic):
    """The weights w = 1 - z at a basis of the weight-form tableau, each correctly rounded.

    A nonbasic z puts w at 1, a nonbasic bound slack at 0.  The free w
    solve the tight rows (slack nonbasic, sum w = 1), a square 0/1 system
    solved in integers.  A row with one unknown left fixes it to an
    integer; those are peeled off first.  Bareiss's fraction-free
    elimination leaves the rest upper triangular with its determinant D,
    up to sign, as the last pivot, and back substitution gives each D w,
    an integer by Cramer's rule, so every division is exact.
    """
    n, r = len(nonbasic), len(rows)
    out = set(nonbasic)
    free = [k for k in range(n) if k not in out and n + r + k not in out]
    w = [0.0 if n + r + k in out else 1.0 for k in range(n)]
    tight = [([k for k in free if row[k]], 1 - sum(1 for k in out if k < n and row[k]))
             for i, row in enumerate(rows) if n + i in out]
    known = {}  # peeled w, as ints
    while True:
        rest = []
        for ks, rhs in tight:
            left = [k for k in ks if k not in known]
            if len(left) == 1:
                known[left[0]] = rhs - sum(known.get(k, 0) for k in ks)
            else:
                rest.append((ks, rhs))
        if len(rest) == len(tight):
            break
        tight = rest
    free = [k for k in free if k not in known]
    m = [[int(k in ks) for k in free] + [rhs - sum(known.get(k, 0) for k in ks)]
         for ks, rhs in tight]
    s, d = len(free), 1
    for k in range(s):
        p = next((i for i in range(k, len(m)) if m[i][k]), None)
        if p is None:
            raise NumericalInstabilityError("the simplex basis is singular")
        m[k], m[p] = m[p], m[k]
        a, top = m[k][k], m[k][k + 1 :]
        for row in m[k + 1 :]:
            b = row[k]
            row[k + 1 :] = [(a * x - b * y) // d for x, y in zip(row[k + 1 :], top)]
        d = a
    dw = [0] * s
    for k in reversed(range(s)):
        row = m[k]
        dw[k] = (d * row[s] - sum(map(mul, row[k + 1 : s], dw[k + 1 :]))) // row[k]
    for k, x in zip(free, dw):
        w[k] = x / d + 0.0  # int true division rounds correctly; + 0.0 drops a -0.0
    for k, x in known.items():
        w[k] = float(x)
    return w


def _best_plan(planner, groups, div):
    """(winner, rates, constant) of the cache's winner whose plan has the smallest constant.

    ``planner`` is _ecw_plan, or for the exact LP _cw_lp (the q-form, for
    _optimal) or _cw_replan (the weight form, for the bandit).  Ties go to
    the winner listed first, so an ascending list resolves them to the
    smallest arm.
    """
    best = None
    for i1 in groups.winners:
        rates, constant = planner(groups, div, i1)
        if best is None or constant < best[2]:
            best = i1, rates, constant
    return best


def _optimal(matrix: PreferenceMatrix, sets, variant: str, k_max=DEFAULT_K_MAX) -> OptimalExploration:
    """Optimal exploration of ``variant`` ("cw" or "ecw") for the best of the listed winners.

    ``sets`` comes from _winner_sets, for one named winner, or from
    _strict_sets, for every winner; the winner with the smallest constant
    is taken (ties go to the smallest arm).  The sets are checked before
    the exact-LP size gate, so a tied matrix is reported as tied at any K.
    """
    if variant == "cw":
        check_lp_size(matrix.k, k_max)
        planner, exactness = _cw_lp, "lp_exact"
    else:
        planner, exactness = _ecw_plan, "ecw_closed_form"
    div = gap_divergence(matrix.values).tolist()
    winner, rates, constant = _best_plan(planner, GroupCache(sets), div)
    return OptimalExploration(
        winner=winner + 1,
        rates=RateVector(matrix.k, rates),
        constant=float(constant),
        exactness=exactness,
    )


def ecw_optimal(matrix: PreferenceMatrix, i1: int | None = None) -> OptimalExploration:
    """Closed-form optimal rates of the relaxed program for winner i1 (1-based).

    With no winner given, the winner with the smallest constant is used
    (ties go to the smallest arm).
    """
    sets = _strict_sets(matrix) if i1 is None else _winner_sets(matrix, i1)
    return _optimal(matrix, sets, "ecw")


def lp_cw_optimal(matrix: PreferenceMatrix, i1: int, k_max: int = DEFAULT_K_MAX) -> OptimalExploration:
    """Exact optimum of the full program for winner i1, via the LP over its minimal rows.

    Raises TooLargeError beyond K_max arms (the enumeration of the
    constraint family is exponential in K).
    """
    return _optimal(matrix, _winner_sets(matrix, i1), "cw", k_max)


def lower_bound(matrix: PreferenceMatrix, k_max: int = DEFAULT_K_MAX):
    """Exact asymptotic constant: min over winners of the full program.

    Returns (constant, winner); ties resolve to the smallest arm index.
    """
    best = _optimal(matrix, _strict_sets(matrix), "cw", k_max)
    return best.constant, best.winner


def ecw_constant(matrix: PreferenceMatrix) -> float:
    """Leading regret constant of the relaxed program: min over winners."""
    # not ecw_optimal: perfbench times both as solvers.closed_form, and its spans must not nest
    return _optimal(matrix, _strict_sets(matrix), "ecw").constant


# ---------------------------------------------------------------------------
# closed-form bounds


def _min_gap(matrix: PreferenceMatrix) -> float:
    """Smallest |mu_ij - 1/2| off the diagonal; callers check strict gaps first."""
    if matrix.k < 2:
        raise ValidationError("gap undefined for a single arm")
    off = ~np.eye(matrix.k, dtype=bool)
    return float(np.min(np.abs(matrix.values[off] - 0.5)))


def ccb_bound(matrix: PreferenceMatrix) -> float:
    """Confidence-bound style constant 2K(C + L_min + 1) / Delta^2."""
    _, _, losses, winners = _strict_sets(matrix)
    delta = _min_gap(matrix)
    return 2.0 * matrix.k * (len(winners) + losses[winners[0]] + 1) / (delta * delta)


def ecw_explicit_bound(matrix: PreferenceMatrix, i1: int) -> float:
    """Feasible-point upper bound on the relaxed constant for winner i1."""
    sup, _, losses, (winner,) = _winner_sets(matrix, i1)
    delta = _min_gap(matrix)
    d = kl_bernoulli(0.5 + delta, 0.5)
    low = min(losses)
    total = 0.0
    for i2, _ in _rivals(sup, winner):
        total += 1.0 + losses[i2] / (losses[i2] - low + 1.0)
    return total / d


def ecw_worstcase_bound(matrix: PreferenceMatrix) -> float:
    """Loss-profile-free upper bound (K / d) ((L_min + 3)/2 + L_min^2 / K)."""
    _, _, losses, winners = _strict_sets(matrix)
    delta = _min_gap(matrix)
    d = kl_bernoulli(0.5 + delta, 0.5)
    low = losses[winners[0]]
    k = matrix.k
    return (k / d) * ((low + 3.0) / 2.0 + low * low / k)
