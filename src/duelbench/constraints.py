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

Descriptors whose required subset size exceeds the available set are
vacuous and never generated.  Feasibility of a rate vector is decided
without enumerating subsets: for each descriptor group the binding
constraint takes the smallest weighted rates from each side, so a sort
plus prefix sums suffices.  Pins are checked one-sidedly (>=): counts
only ever grow, so over-exploration must never flip a state infeasible.
Upper box bounds are likewise not part of the membership test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf

import numpy as np

from .core import PreferenceMatrix, _copeland_sets, gap_divergence
from .errors import NotAWinnerError, TiedPreferenceError, ValidationError

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
        arr = np.asarray(self.values, dtype=float)
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
        return cls(k, np.zeros(pair_count(k)))

    @classmethod
    def trivial(cls, matrix: PreferenceMatrix) -> "RateVector":
        """The always-feasible point q_ij = 1 / d_KL(mu_ij, 1/2)."""
        d = gap_divergence(matrix.values)
        vals = np.array([1.0 / d[i, j] for i, j in iter_pairs(matrix.k)])
        return cls(matrix.k, vals)

    @classmethod
    def from_map(cls, k: int, mapping) -> "RateVector":
        """Build from a {"i-j": rate} map with 1-based i > j keys."""
        vals = np.zeros(pair_count(k))
        for key, rate in mapping.items():
            try:
                i_s, j_s = key.split("-")
                i, j, rate = int(i_s), int(j_s), float(rate)
            except (AttributeError, TypeError, ValueError):
                raise ValidationError(f"bad rate entry {key!r}: {rate!r}") from None
            if not (1 <= j < i <= k):
                raise ValidationError(f"bad pair key {key!r} for K={k}")
            vals[pair_index(i - 1, j - 1)] = rate
        return cls(k, vals)

    def get(self, i: int, j: int) -> float:
        """Rate of the unordered pair {i, j}, 1-based."""
        if i == j or not (1 <= i <= self.k and 1 <= j <= self.k):
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
class ConstraintDescriptor:
    """One quantified constraint: indices are 1-based, sets sorted tuples."""

    i1: int
    i2: int
    l: int
    i_set: tuple
    s_set: tuple

    @property
    def pairs(self) -> tuple:
        """P_IS as canonical (hi, lo) 1-based pairs."""
        out = {tuple(sorted((self.i1, j), reverse=True)) for j in self.i_set}
        out |= {tuple(sorted((self.i2, j), reverse=True)) for j in self.s_set}
        return tuple(sorted(out))


@dataclass(frozen=True)
class ConstraintFamily:
    """Constraint set for candidate winner ``i1`` (kind "cw" or "ecw")."""

    kind: str
    i1: int
    k: int
    pins: tuple
    _sets: tuple = field(repr=False)

    def descriptors(self):
        """Lazily yield every non-vacuous descriptor."""
        sup, inf_sets, losses = self._sets
        i1 = self.i1 - 1
        if self.kind == "cw":
            gen = _iter_cw_descriptors(sup, inf_sets, losses, i1)
        else:
            gen = _iter_ecw_descriptors(sup, losses, i1)
        for i2, l, iset, sset in gen:
            yield ConstraintDescriptor(
                i1=self.i1,
                i2=i2 + 1,
                l=l,
                i_set=tuple(j + 1 for j in iset),
                s_set=tuple(j + 1 for j in sset),
            )


def _iter_cw_descriptors(sup, inf_sets, losses, i1):
    """0-based descriptor stream of the full family."""
    from itertools import combinations

    k = len(losses)
    if k < 2:
        return
    ordered = sorted(losses)
    l_low, l_high = max(0, ordered[0] - 1), ordered[1]
    h1 = sorted(inf_sets[i1])
    for i2 in range(k):
        if i2 == i1:
            continue
        s_source = sorted(j for j in sup[i2] if j != i1)
        for l in range(l_low, l_high + 1):
            a = l + 1 - losses[i1]
            if a < 0 or a > len(h1):
                continue
            for iset in combinations(h1, a):
                b = max(0, losses[i2] - l - (1 if i2 in iset else 0))
                if b > len(s_source):
                    continue
                for sset in combinations(s_source, b):
                    yield i2, l, iset, sset


def _iter_ecw_descriptors(sup, losses, i1):
    """0-based descriptor stream for the relaxed family (subset constraints only).

    The l slot is reported as L_{i1} - 1, the slice of the full family
    these constraints coincide with.
    """
    from itertools import combinations

    k = len(losses)
    for i2 in range(k):
        if i2 == i1:
            continue
        need = losses[i2] - losses[i1] + 1
        s_source = sorted(j for j in sup[i2] if j != i1)
        if need > len(s_source):
            continue
        for sset in combinations(s_source, need):
            yield i2, losses[i1] - 1, (), sset


def _winner_sets(matrix: PreferenceMatrix, i1: int | None = None):
    """0-based (superiors, inferiors, losses, winners) of a strict-gap matrix.

    ``winners`` lists every Copeland winner in ascending order or, when a
    1-based arm ``i1`` is given, only ``i1 - 1`` after checking that it is
    a winner.  Raises on an arm out of range, then on ties, then on a
    non-winner.
    """
    if i1 is not None and not 1 <= i1 <= matrix.k:
        raise ValidationError(f"arm index {i1} out of range for K={matrix.k}")
    if matrix.has_ties:
        raise TiedPreferenceError("strict gaps required")
    sup, inf_, losses, winners = _copeland_sets(matrix.values)
    if i1 is None:
        return sup, inf_, losses, winners
    if i1 - 1 not in winners:
        raise NotAWinnerError(
            f"arm {i1} has loss count {losses[i1 - 1]} > {losses[winners[0]]}; "
            "not a Copeland winner"
        )
    return sup, inf_, losses, [i1 - 1]


def cw_constraints(matrix: PreferenceMatrix, i1: int) -> ConstraintFamily:
    """Full divergence constraint family for candidate winner i1 (1-based)."""
    sets = _winner_sets(matrix, i1)[:3]
    return ConstraintFamily(kind="cw", i1=i1, k=matrix.k, pins=(), _sets=sets)


def ecw_constraints(matrix: PreferenceMatrix, i1: int) -> ConstraintFamily:
    """Relaxed family: equality pins on i1's pairs plus per-rival subset constraints."""
    sets = _winner_sets(matrix, i1)[:3]
    pins = tuple((i1, j + 1) for j in sorted(sets[1][i1 - 1]))
    return ConstraintFamily(kind="ecw", i1=i1, k=matrix.k, pins=pins, _sets=sets)


# ---------------------------------------------------------------------------
# feasibility via sorting (no subset enumeration)


def _prefix(sorted_vals):
    out = [0.0]
    acc = 0.0
    for v in sorted_vals:
        acc += v
        out.append(acc)
    return out


def min_lhs_cw(sup, inf_sets, losses, i1, weights) -> float:
    """Minimum constraint left side over the full family, +inf if empty.

    ``weights[i][j]`` must hold q_ij * d_KL(mu_ij, 1/2) (symmetric).  For
    each (i2, l) the binding subset takes the smallest weights on each
    side, split into the cases i2 in I and i2 not in I.
    """
    k = len(losses)
    if k < 2:
        return inf
    ordered = sorted(losses)
    l_low, l_high = max(0, ordered[0] - 1), ordered[1]
    h1 = inf_sets[i1]
    w_row = weights[i1]
    h_sorted = sorted((w_row[j], j) for j in h1)
    h_vals = [w for w, _ in h_sorted]
    h_pos = {j: p for p, (_, j) in enumerate(h_sorted)}
    pref_h = _prefix(h_vals)
    n_h = len(h_vals)
    best = inf
    li1 = losses[i1]
    for i2 in range(k):
        if i2 == i1:
            continue
        s_vals = sorted(weights[j][i2] for j in sup[i2] if j != i1)
        pref_s = _prefix(s_vals)
        n_s = len(s_vals)
        in_h = i2 in h_pos
        avail_h = n_h - 1 if in_h else n_h
        li2 = losses[i2]
        for l in range(l_low, l_high + 1):
            a = l + 1 - li1
            if a < 0:
                continue
            # case i2 not in I
            if a <= avail_h:
                b = li2 - l
                if b < 0:
                    b = 0
                if b <= n_s:
                    if in_h and h_pos[i2] < a:
                        head = pref_h[a + 1] - h_vals[h_pos[i2]]
                    else:
                        head = pref_h[a]
                    lhs = head + pref_s[b]
                    if lhs < best:
                        best = lhs
            # case i2 in I
            if in_h and a >= 1 and a - 1 <= avail_h:
                b = li2 - l - 1
                if b < 0:
                    b = 0
                if b <= n_s:
                    m = a - 1
                    if h_pos[i2] < m:
                        head = pref_h[m + 1] - h_vals[h_pos[i2]]
                    else:
                        head = pref_h[m]
                    lhs = w_row[i2] + head + pref_s[b]
                    if lhs < best:
                        best = lhs
    return best


def min_lhs_ecw(sup, inf_sets, losses, i1, weights) -> float:
    """Minimum left side over the relaxed family: pins and subset constraints."""
    k = len(losses)
    best = inf
    for j in inf_sets[i1]:
        w = weights[i1][j]
        if w < best:
            best = w
    li1 = losses[i1]
    for i2 in range(k):
        if i2 == i1:
            continue
        need = losses[i2] - li1 + 1
        s_vals = sorted(weights[j][i2] for j in sup[i2] if j != i1)
        if need <= len(s_vals):
            lhs = sum(s_vals[:need])
            if lhs < best:
                best = lhs
    return best


def check_feasible(
    family: ConstraintFamily, rates: RateVector, matrix: PreferenceMatrix
) -> bool:
    """True iff every family constraint holds at the given rates.

    Constraints (and ECW pins, read one-sidedly) are satisfied when the
    left side reaches 1 - FEASIBILITY_TOL.  Runs on sorted weights; never
    materializes the subset families.
    """
    if rates.k != matrix.k or family.k != matrix.k:
        raise ValidationError(
            f"size mismatch: family K={family.k}, rates K={rates.k}, matrix K={matrix.k}"
        )
    weights = (rates.as_matrix() * gap_divergence(matrix.values)).tolist()
    sup, inf_sets, losses = family._sets
    i1 = family.i1 - 1
    if family.kind == "cw":
        low = min_lhs_cw(sup, inf_sets, losses, i1, weights)
    else:
        low = min_lhs_ecw(sup, inf_sets, losses, i1, weights)
    return low >= 1.0 - FEASIBILITY_TOL
