"""Optimal exploration rates and asymptotic regret constants.

The relaxed ("ecw") program decomposes per rival and each piece reduces
to: minimize sum c_j y_j subject to every (n-k)-subset of y summing to
at least 1.  After sorting costs ascending an optimal solution is a
prefix block y_1..y_h = 1/(h-k) for some h > k, so scanning the at most
n-k candidates solves it exactly.

The full ("cw") program is a linear program over all enumerated family
constraints plus per-pair box bounds; it is solved exactly by the dense
in-house simplex below (Bland's rule, deterministic).  The LP is gated
at K_max arms because the constraint count grows exponentially; the
relaxed program has no size limit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .constraints import (
    RateVector,
    _iter_cw_descriptors,
    _winner_sets,
    iter_pairs,
    pair_count,
    pair_index,
)
from .core import PreferenceMatrix, _copeland_sets, _regret_nums, gap_divergence, kl_bernoulli
from .errors import (
    NumericalInstabilityError,
    TiedPreferenceError,
    TooLargeError,
    ValidationError,
)

_K_MAX_ENV = "DUELBENCH_KMAX"
DEFAULT_K_MAX = 8


def default_k_max() -> int:
    """Exact-LP size gate; override with the DUELBENCH_KMAX environment variable."""
    raw = os.environ.get(_K_MAX_ENV, str(DEFAULT_K_MAX))
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"{_K_MAX_ENV} must be an integer, got {raw!r}") from None


def lp_gate(k_max: int | None = None) -> int:
    """The exact-LP size gate in force: ``k_max`` if given, else default_k_max()."""
    return default_k_max() if k_max is None else k_max


def check_lp_size(k: int, k_max: int | None = None) -> None:
    """Raise TooLargeError if a K-arm exact LP exceeds the gate in force."""
    gate = lp_gate(k_max)
    if k > gate:
        raise TooLargeError(f"exact LP gated at K_max={gate}, got K={k}")


@dataclass(frozen=True)
class SubproblemInstance:
    """Cost vector over an index set plus the slack k of the subset constraints."""

    costs: tuple
    slack: int

    def __post_init__(self):
        if len(self.costs) < 1:
            raise ValidationError("subproblem needs at least one element")
        if self.slack < 0:
            raise ValidationError(f"slack must be nonnegative, got {self.slack}")
        if any(not math.isfinite(c) or c < 0 for c in self.costs):
            raise ValidationError("costs must be finite and nonnegative")


@dataclass(frozen=True)
class OptimalExploration:
    """Optimal rates and the induced logarithmic regret constant for one winner."""

    winner: int
    rates: RateVector
    constant: float
    exactness: str

    def to_json_dict(self) -> dict:
        return {
            "winner": self.winner,
            "constant": self.constant,
            "exactness": self.exactness,
            "rates": self.rates.to_map(),
        }


def _prefix_solution(costs, slack):
    """Best prefix-block solution: (values list, objective).

    Ties between equal-objective block lengths resolve to the smallest h.
    """
    n = len(costs)
    order = sorted(range(n), key=lambda idx: (costs[idx], idx))
    y = [0.0] * n
    if slack >= n:
        return y, 0.0
    acc = 0.0
    prefix = [0.0]
    for idx in order:
        acc += costs[idx]
        prefix.append(acc)
    best_h, best_obj = -1, math.inf
    for h in range(slack + 1, n + 1):
        obj = prefix[h] / (h - slack)
        if obj < best_obj:
            best_h, best_obj = h, obj
    level = 1.0 / (best_h - slack)
    for idx in order[:best_h]:
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
# dense simplex (exact LP engine)


def simplex_solve(costs, constraints, upper_bounds):
    """Minimize costs . x subject to row . x >= 1 per row and 0 <= x <= u.

    All row coefficients must be nonnegative and the box point x = u must
    satisfy every row (it does for divergence families, where u is the
    per-pair budget cap).  Substituting x = u - z turns the box point into
    the slack-basis origin of an equivalent maximization, so no phase-one
    is needed.  Deterministic: Bland's rule for entering and leaving.

    Returns (x, value) with x an optimal vertex.
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
    b = rows @ u - 1.0
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

    while True:
        entering = np.flatnonzero(tab[m, :-1] > 1e-9)
        if entering.size == 0:
            break
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
    return x, float(c @ x)


# ---------------------------------------------------------------------------
# internal planners shared with the bandit (0-based sets, tie-tolerant safe)


def _ecw_plan(div, sup, inf_sets, losses, i1):
    """Closed-form relaxed rates: (one rate per pair in iter_pairs order, constant).

    div is the pairwise gap divergence; tied pairs (div 0) never appear in
    the given sets and receive no rate.
    """
    k = len(losses)
    denom = 2.0 * (k - 1) if k > 1 else 1.0
    rnum = _regret_nums(losses)
    q = [0.0] * pair_count(k)
    constant = 0.0
    for j in inf_sets[i1]:
        rate = 1.0 / div[i1][j]
        q[pair_index(i1, j)] = rate
        constant += (rnum[i1][j] / denom) * rate
    li1 = losses[i1]
    for i2 in range(k):
        if i2 == i1:
            continue
        need = losses[i2] - li1 + 1
        cand = [j for j in sup[i2] if j != i1]
        if need > len(cand):
            continue
        costs = [(rnum[j][i2] / denom) / div[j][i2] for j in cand]
        y, _ = _prefix_solution(costs, len(cand) - need)
        for j, yj in zip(cand, y):
            if yj > 0.0:
                # pair roles are disjoint by construction: pins touch i1,
                # and each subproblem only sets the losing side of i2
                p = pair_index(j, i2)
                assert q[p] == 0.0
                rate = yj / div[j][i2]
                q[p] = rate
                constant += (rnum[j][i2] / denom) * rate
    return q, constant


def _cw_lp(div, sup, inf_sets, losses, i1):
    """Exact full-family LP: (one rate per pair in iter_pairs order, constant)."""
    k = len(losses)
    denom = 2.0 * (k - 1)
    rnum = _regret_nums(losses)
    pairs = list(iter_pairs(k))
    c = np.array([rnum[i][j] / denom for i, j in pairs])
    divs = [div[i][j] for i, j in pairs]
    u = np.array([1.0 / d if d > 0.0 else 0.0 for d in divs])
    # distinct pair sets P_IS, in first-seen order
    seen = dict.fromkeys(
        frozenset([pair_index(i1, j) for j in iset] + [pair_index(i2, j) for j in sset])
        for i2, _l, iset, sset in _iter_cw_descriptors(sup, inf_sets, losses, i1)
    )
    rows = np.zeros((len(seen), len(pairs)))
    for rix, idxs in enumerate(seen):
        for p in idxs:
            rows[rix, p] = divs[p]
    x, value = simplex_solve(c, rows, u)
    return x.tolist(), value


def _best_plan(planner, div, sets):
    """(winner, rates, constant) of the winner whose plan has the smallest constant.

    ``sets`` is (superiors, inferiors, losses, winners), all 0-based, and
    ``planner`` is _ecw_plan or _cw_lp.  Ties go to the winner listed
    first, so an ascending list resolves them to the smallest arm.
    """
    sup, inf_sets, losses, winners = sets
    best = None
    for i1 in winners:
        rates, constant = planner(div, sup, inf_sets, losses, i1)
        if best is None or constant < best[2]:
            best = i1, rates, constant
    return best


def _optimal(matrix: PreferenceMatrix, i1, variant: str, k_max=None) -> OptimalExploration:
    """Optimal exploration of ``variant`` ("cw" or "ecw") for one winner.

    ``i1`` is 1-based; None picks the winner with the smallest constant
    (ties go to the smallest arm).  The winner checks run before the
    exact-LP size gate, so a tied matrix is reported as tied at any K.
    """
    sets = _winner_sets(matrix, i1)
    if variant == "cw":
        check_lp_size(matrix.k, k_max)
        planner, exactness = _cw_lp, "lp_exact"
    else:
        planner, exactness = _ecw_plan, "ecw_closed_form"
    div = gap_divergence(matrix.values).tolist()
    winner, rates, constant = _best_plan(planner, div, sets)
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
    return _optimal(matrix, i1, "ecw")


def lp_cw_optimal(matrix: PreferenceMatrix, i1: int, k_max: int | None = None) -> OptimalExploration:
    """Exact optimum of the full program for winner i1, via enumerated LP.

    Raises TooLargeError beyond K_max arms (constraint count is
    exponential in K).
    """
    return _optimal(matrix, i1, "cw", k_max)


def lower_bound(matrix: PreferenceMatrix, k_max: int | None = None):
    """Exact asymptotic constant: min over winners of the full program.

    Returns (constant, winner); ties resolve to the smallest arm index.
    """
    best = _optimal(matrix, None, "cw", k_max)
    return best.constant, best.winner


def ecw_constant(matrix: PreferenceMatrix) -> float:
    """Leading regret constant of the relaxed program: min over winners."""
    # not ecw_optimal: perfbench times both as solvers.closed_form, and its spans must not nest
    return _optimal(matrix, None, "ecw").constant


# ---------------------------------------------------------------------------
# closed-form bounds


def _min_gap(matrix: PreferenceMatrix) -> float:
    """Smallest |mu_ij - 1/2| off the diagonal; raises unless gaps are strict."""
    if matrix.k < 2:
        raise ValidationError("gap undefined for a single arm")
    vals = matrix.values
    off = ~np.eye(matrix.k, dtype=bool)
    delta = float(np.min(np.abs(vals[off] - 0.5)))
    if delta == 0.0:
        raise TiedPreferenceError("strict gaps required")
    return delta


def ccb_bound(matrix: PreferenceMatrix) -> float:
    """Confidence-bound style constant 2K(C + L_min + 1) / Delta^2."""
    delta = _min_gap(matrix)
    _, _, losses, winners = _copeland_sets(matrix.values)
    return 2.0 * matrix.k * (len(winners) + losses[winners[0]] + 1) / (delta * delta)


def ecw_explicit_bound(matrix: PreferenceMatrix, i1: int) -> float:
    """Feasible-point upper bound on the relaxed constant for winner i1."""
    losses = _winner_sets(matrix, i1)[2]
    delta = _min_gap(matrix)
    d = kl_bernoulli(0.5 + delta, 0.5)
    low = min(losses)
    total = 0.0
    for i2 in range(matrix.k):
        if i2 == i1 - 1:
            continue
        total += 1.0 + losses[i2] / (losses[i2] - low + 1.0)
    return total / d


def ecw_worstcase_bound(matrix: PreferenceMatrix) -> float:
    """Loss-profile-free upper bound (K / d) ((L_min + 3)/2 + L_min^2 / K)."""
    delta = _min_gap(matrix)
    _, _, losses, winners = _copeland_sets(matrix.values)
    d = kl_bernoulli(0.5 + delta, 0.5)
    low = losses[winners[0]]
    k = matrix.k
    return (k / d) * ((low + 3.0) / 2.0 + low * low / k)
