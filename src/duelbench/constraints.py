"""Divergence constraint families over exploration rates.

Two families are generated for a candidate winner i1:

* the full family ("cw"): one constraint per descriptor (i2, l, I, S),
  where I is a set of arms i1 beats that would have to flip against it
  (raising its loss count to l+1) and S a set of arms beating i2 that
  would have to flip in its favor (lowering its loss count to l).  The
  drawn pairs P_IS = {(i1,j): j in I} + {(i2,j): j in S} must jointly
  carry one unit of divergence budget.

* the relaxed family ("ecw"): per-pair pins q_{i1 j} * d_j >= 1 for every
  arm j that i1 beats, plus, for each rival i2, constraints over every
  (L_{i2} - L_{i1} + 1)-subset of the arms beating i2 (excluding i1).

Both families decompose per rival.  Each rival i2 != i1 must be kept
from overtaking i1, and its constraints draw i2's side from
S = sup[i2] - {i1} (``_rivals``).  The relaxed family keeps the rivals
whose ``need`` fits in S (``_ecw_rivals``); the full family also walks
the loss levels l (``_cw_levels``).  A descriptor or rival whose
required subset is larger than its set is vacuous and never generated.
The descriptor stream, the feasibility budgets and the planners in
``solvers`` all walk these same (i1, i2) groups.

A ``GroupCache`` owns one set of Copeland sets: superiors, inferiors,
losses, the winners that budgets and plans are made for, and each pair's
regret rate.  The budgets and the planners take the cache, never the sets
beside it, and keep in it the pieces they build.

Feasibility of a rate vector is decided without enumerating subsets:
within a group the binding constraint takes the smallest weighted rates
from each side, so a sort plus prefix sums suffices.  Each rival's
sorted column is kept in the cache until its weights change.
Prefix sums accumulate left to right (``_prefix``), so a budget does
not depend on how the interpreter's sum() rounds.  Pins are checked
one-sidedly (>=): counts only ever grow, so over-exploration must never
flip a state infeasible.  Upper box bounds are likewise not part of the
membership test.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from math import inf

import numpy as np

from .core import (
    PreferenceMatrix,
    _check_integer,
    _check_real,
    _float_array,
    _strict_sets,
    gap_divergence,
    regret_table,
)
from .errors import NotAWinnerError, ValidationError

#: A constraint is satisfied iff its left side is >= 1 - FEASIBILITY_TOL.
FEASIBILITY_TOL = 1e-12


def pair_count(k: int) -> int:
    return k * (k - 1) // 2


def iter_pairs(k: int):
    """0-based unordered pairs (i, j), i > j, in lexicographic order."""
    return ((i, j) for i in range(k) for j in range(i))


def pair_index(i: int, j: int) -> int:
    """Index of the 0-based unordered pair {i, j}, i != j, in the lexicographic enumeration."""
    if i < j:
        i, j = j, i
    return i * (i - 1) // 2 + j


@dataclass(frozen=True)
class RateVector:
    """Exploration rates q_ij (draws per unit of ln t) per unordered pair."""

    k: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", _check_integer(self.k, "K", 1))
        arr = _float_array(self.values, "rates")
        if arr.shape != (pair_count(self.k),):
            raise ValidationError(
                f"rate vector for K={self.k} needs {pair_count(self.k)} entries, got {arr.shape}"
            )
        if not np.isfinite(arr).all() or (arr < 0).any():
            raise ValidationError("rates must be finite and nonnegative")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def zeros(cls, k: int) -> "RateVector":
        return cls.from_map(k, {})

    @classmethod
    def trivial(cls, matrix: PreferenceMatrix) -> "RateVector":
        """The always-feasible point q_ij = 1 / d_KL(mu_ij, 1/2)."""
        d = gap_divergence(matrix.values)
        vals = np.array([1.0 / d[i, j] for i, j in iter_pairs(matrix.k)])
        return cls(matrix.k, vals)

    @classmethod
    def from_map(cls, k: int, mapping) -> "RateVector":
        """Build from a {"i-j": rate} map with 1-based i > j keys, one per pair."""
        k = _check_integer(k, "K", 1)
        if not isinstance(mapping, Mapping):
            raise ValidationError(f"rates must be a {{'i-j': rate}} map, got {mapping!r}")
        vals = np.zeros(pair_count(k))
        seen = set()
        for key, rate in mapping.items():
            try:
                i_s, j_s = key.split("-")
                i, j = int(i_s), int(j_s)
            except (AttributeError, TypeError, ValueError):
                raise ValidationError(f"bad rate entry {key!r}: {rate!r}") from None
            if not (1 <= j < i <= k):
                raise ValidationError(f"bad pair key {key!r} for K={k}")
            p = pair_index(i - 1, j - 1)
            if p in seen:
                raise ValidationError(f"pair key {key!r} repeats the pair {i}-{j}")
            seen.add(p)
            vals[p] = _check_real(rate, f"rate {key!r}")
        return cls(k, vals)

    def get(self, i: int, j: int) -> float:
        """Rate of the unordered pair {i, j}, 1-based."""
        i, j = _check_integer(i, "arm i", 1, self.k), _check_integer(j, "arm j", 1, self.k)
        if i == j:
            raise ValidationError(f"bad pair ({i},{j}) for K={self.k}")
        return float(self.values[pair_index(i - 1, j - 1)])

    def to_map(self) -> dict:
        """JSON-friendly {"i-j": rate} map, 1-based, lexicographic order."""
        return {
            f"{i + 1}-{j + 1}": float(self.values[pair_index(i, j)])
            for i, j in iter_pairs(self.k)
        }

    def as_matrix(self) -> np.ndarray:
        """Symmetric K x K array of rates with zero diagonal."""
        out = np.zeros((self.k, self.k))
        for i, j in iter_pairs(self.k):
            out[i, j] = out[j, i] = self.values[pair_index(i, j)]
        return out


@dataclass(frozen=True)
class ConstraintFamily:
    """Constraint set for candidate winner ``i1`` (kind "cw" or "ecw")."""

    kind: str
    i1: int
    k: int
    _sets: tuple = field(repr=False)


def _rivals(sup, i1):
    """(i2, S) per rival i2 != i1, ascending; S = sup[i2] - {i1}, in sup[i2]'s ascending order."""
    for i2, beats_i2 in enumerate(sup):
        if i2 != i1:
            yield i2, [j for j in beats_i2 if j != i1]


def _ecw_rivals(sup, losses, i1):
    """(i2, S, need) per rival whose relaxed constraint (need = L_i2 - L_i1 + 1) fits in S."""
    for i2, s in _rivals(sup, i1):
        need = losses[i2] - losses[i1] + 1
        if need <= len(s):
            yield i2, s, need


def _cw_levels(losses):
    """Loss levels l of the full family: min loss - 1 (at least 0) to the second smallest loss."""
    low = sorted(losses)[:2]  # a single arm has one loss and no rivals
    return range(max(0, low[0] - 1), low[-1] + 1)


def _iter_cw_descriptors(sup, inf_sets, losses, i1):
    """0-based descriptor stream of the full family."""
    from itertools import combinations

    h1 = sorted(inf_sets[i1])
    levels = _cw_levels(losses)
    for i2, s in _rivals(sup, i1):
        for l in levels:
            a = l + 1 - losses[i1]
            if a < 0 or a > len(h1):
                continue
            for iset in combinations(h1, a):
                b = max(0, losses[i2] - l - (1 if i2 in iset else 0))
                if b > len(s):
                    continue
                for sset in combinations(s, b):
                    yield i2, l, iset, sset


def _winner_sets(matrix: PreferenceMatrix, i1: int):
    """0-based (superiors, inferiors, losses, [i1 - 1]) of a strict-gap matrix.

    ``i1`` is 1-based and must be a Copeland winner.  Raises on an arm
    that is not an integer in range, then on ties, then on a non-winner.
    """
    i1 = _check_integer(i1, "arm i1", 1, matrix.k)
    sup, inf_, losses, winners = _strict_sets(matrix)
    if i1 - 1 not in winners:
        raise NotAWinnerError(
            f"arm {i1} has loss count {losses[i1 - 1]} > {losses[winners[0]]}; "
            "not a Copeland winner"
        )
    return sup, inf_, losses, [i1 - 1]


def cw_constraints(matrix: PreferenceMatrix, i1: int) -> ConstraintFamily:
    """Full divergence constraint family for candidate winner i1 (1-based)."""
    sets = _winner_sets(matrix, i1)
    return ConstraintFamily(kind="cw", i1=sets[3][0] + 1, k=matrix.k, _sets=sets)


def ecw_constraints(matrix: PreferenceMatrix, i1: int) -> ConstraintFamily:
    """Relaxed family: equality pins on i1's pairs plus per-rival subset constraints."""
    sets = _winner_sets(matrix, i1)
    return ConstraintFamily(kind="ecw", i1=sets[3][0] + 1, k=matrix.k, _sets=sets)


# ---------------------------------------------------------------------------
# feasibility via sorting (no subset enumeration)


class GroupCache:
    """Copeland sets, regret rates and the budgets, plans and pieces made for them.

    ``sets`` is (superiors, inferiors, losses, winners), all 0-based, and
    ``winners`` the arms that budgets and plans are made for: every
    winner, or one named arm.  ``regret[i][j]`` is the per-round regret
    (L_i + L_j - 2 L_min) / (2(K-1)) of the pair.  ``min_lhs_cw``,
    ``min_lhs_ecw`` and the planners in ``solvers`` fill the pieces as they
    read them, so a new cache gives the same answers as a full one.  A
    rival's column and subproblems read its column; a winner's pins are
    not kept, since ``_ecw_plan`` reads them from the divergences.  The
    relaxed rivals read only the sets.  The bandit keeps each winner's
    budget and its argmin plan here too; they read every pair.  The exact
    LP keeps two pieces per winner, which read only the sets: its 0/1 row
    pattern, read by both of its forms, and from the weight form's last
    solve the basic pairs' tableau rows, the nonbasic variables and the
    vertex, which ``_cw_replan`` re-prices for new divergences.  A caller
    that changes the pair (l, m) calls ``drop(l, m)``, which keeps them; a
    change of the sets needs a new cache.
    """

    __slots__ = (
        "sup", "inf", "losses", "winners", "regret",  # fixed for the cache's life
        "rivals", "columns", "pieces", "lp_rows", "bases",  # filled as they are read
        "budgets", "plan",  # filled by the bandit's RmedState
    )

    def __init__(self, sets):
        self.sup, self.inf, self.losses, self.winners = sets
        self.regret = regret_table(self.losses).tolist()
        self.rivals = {}  # i1 -> list(_ecw_rivals(sup, losses, i1))
        self.columns = {}  # i2 -> sorted (weights[j][i2], j) for j in sup[i2]
        self.pieces = {}  # i2 -> {i1: _ecw_plan's entries of rival i2}
        self.lp_rows = {}  # i1 -> the exact LP's 0/1 row pattern of i1's minimal pair sets
        self.bases = {}  # i1 -> ((pair, tableau row) per basic pair, nonbasic, w) of the last solve
        self.budgets = {}  # i1 -> min_lhs of i1's family at the bandit's weights
        self.plan = None  # (winner, rates, indices of the nonzero rates) of the argmin plan

    def drop(self, l: int, m: int) -> None:
        """Forget the budgets, the plan, and the columns and pieces of l and m: all read (l, m)."""
        self.budgets.clear()
        self.plan = None
        for a in (l, m):
            self.columns.pop(a, None)
            self.pieces.pop(a, None)

    def ecw_rivals(self, i1):
        rivals = self.rivals.get(i1)
        if rivals is None:
            rivals = self.rivals[i1] = list(_ecw_rivals(self.sup, self.losses, i1))
        return rivals

    def column(self, weights, i2):
        col = self.columns.get(i2)
        if col is None:
            col = self.columns[i2] = sorted((weights[j][i2], j) for j in self.sup[i2])
        return col


def _prefix(ranked, skip=None, n=inf):
    """Prefix sums [0, w0, w0 + w1, ...] of the first n weights of a sorted (w, j) list.

    Arm ``skip`` is left out; fewer sums come back when the list runs out.
    """
    out = [0.0]
    acc = 0.0
    for w, j in ranked:
        if len(out) > n:
            break
        if j != skip:
            acc += w
            out.append(acc)
    return out


def min_lhs_cw(groups, i1, weights) -> float:
    """Minimum constraint left side over winner i1's full family, +inf if empty.

    ``groups`` is a GroupCache for these weights, and ``weights[i][j]``
    must hold q_ij * d_KL(mu_ij, 1/2) (symmetric).  For each rival i2 and
    level l the binding descriptor takes the smallest weights of S and of
    H - {i2}, H being the arms i1 beats.
    """
    sup, inf_sets, losses = groups.sup, groups.inf, groups.losses
    w_row = weights[i1]
    h_sorted = sorted((w_row[j], j) for j in inf_sets[i1])
    li1, levels = losses[i1], _cw_levels(losses)
    # only the prefix lengths the levels read: a grows with l, b shrinks
    top_a = levels[-1] + 1 - li1
    pref_all = _prefix(h_sorted, n=top_a)  # H - {i2} for every i2 outside H
    best = inf
    for i2 in range(len(sup)):
        if i2 == i1:
            continue
        pref_s = _prefix(groups.column(weights, i2), i1, losses[i2] - levels[0])
        # (forced weight, flips saved on each side): i2 outside I, or inside
        # it when i1 beats i2, which forces in the pair (i1, i2)
        memberships = [(0.0, 0)]
        pref_h = pref_all
        if i2 in inf_sets[i1]:
            memberships.append((w_row[i2], 1))
            pref_h = _prefix(h_sorted, i2, top_a)
        for forced, saved in memberships:
            for l in levels:
                a = l + 1 - li1 - saved
                b = max(0, losses[i2] - l - saved)
                if 0 <= a < len(pref_h) and b < len(pref_s):
                    lhs = forced + pref_h[a] + pref_s[b]
                    if lhs < best:
                        best = lhs
    return best


def min_lhs_ecw(groups, i1, weights) -> float:
    """Minimum left side over winner i1's relaxed family: pins and subset constraints.

    ``groups`` is a GroupCache for these weights.
    """
    best = min((weights[i1][j] for j in groups.inf[i1]), default=inf)
    for i2, _, need in groups.ecw_rivals(i1):
        lhs = _prefix(groups.column(weights, i2), i1, need)[need]
        if lhs < best:
            best = lhs
    return best


def check_feasible(
    family: ConstraintFamily, rates: RateVector, matrix: PreferenceMatrix
) -> bool:
    """True iff every family constraint holds at the given rates.

    Constraints (and ECW pins, read one-sidedly) are satisfied when the
    left side reaches 1 - FEASIBILITY_TOL.  Runs on sorted weights; never
    materializes the subset families.  The family must come from a matrix
    with the same Copeland sets as ``matrix``.
    """
    if rates.k != matrix.k or family.k != matrix.k:
        raise ValidationError(
            f"size mismatch: family K={family.k}, rates K={rates.k}, matrix K={matrix.k}"
        )
    if family._sets[:3] != _strict_sets(matrix)[:3]:
        raise ValidationError("family was built for a matrix with other Copeland sets")
    weights = (rates.as_matrix() * gap_divergence(matrix.values)).tolist()
    min_lhs = min_lhs_cw if family.kind == "cw" else min_lhs_ecw
    return min_lhs(GroupCache(family._sets), family.i1 - 1, weights) >= 1.0 - FEASIBILITY_TOL
