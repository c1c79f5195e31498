"""Sequential pair-selection algorithms driven by binary duel feedback.

Two divergence-based variants share one state machine and differ only
in which constraint family gates exploitation and where optimal rates
come from: "cw" solves the exact LP on the empirical matrix, "ecw" uses
the closed form.  "random" draws uniform pairs and keeps counts only.

Every round is either a guard round (some pair is under-sampled or too
close to a tie: draw it immediately) or a loop round (draw the next
pair of the current list L_C, then re-plan).  Small-t conventions: the
near-tie threshold is +inf through round 16, sqrt(ln t) uses ln t
directly (zero at t=1), and normalized counts divide by ln(max(t, 2)).

A draw of a distinct pair updates that pair's entries in flat per-pair
lists of N_ij and |muhat_ij - 1/2|, which the guard scan reads, and
marks the pair as drawn.  The guard keeps only where its last scan
stopped, the level ceil(alpha sqrt(ln t)) and the near-tie threshold it
ran under; every pair before the stop passed both.  A scan resumes at
the stop, and a scan that passed every pair answers at once: a count
only rises, an integer count passes alpha sqrt(ln t) exactly when it
reaches the level, and beta / ln ln t only falls as t grows.  A draw
before the stop moves it back to the drawn pair only when the new gap
is below the threshold, and a new level restarts the scan at the first
pair.

The next plan step rewrites only the drawn pairs' divergences and
weights, with one numpy log call (``core.gap_divergences``), and drops
only the cached pieces that read them (``constraints.GroupCache``:
budgets, plan, and the columns and subproblems of the pair's two arms),
so an exploring round costs work on the drawn pair's rows and columns
rather than a K x K rebuild.  The plan is kept as its nonzero rates
alone, (pair index, rate) entries, and the step tests only those
against N / ln t.  A winner's budget is tested against (1-tol) ln t by a
walk that stops at the first left side below it; that short value is
kept apart from the exact budgets and fails again until the next draw
of a distinct pair, since the threshold only grows.  A budget that
clears is walked in full and kept.  The cw plan also keeps each winner's last LP
basis, which no draw drops: in weight form the LP's polytope reads only
the Copeland sets (``solvers._cw_replan``).  A replan re-prices the kept
basis one nonbasic column at a time, over that column's nonzero cells,
and stops at the first reduced cost at or above -1e-9; it returns the
kept basis's vertex only if every column passes, and solves from the
slack basis otherwise.  A nonbasic pair that is in no row is not priced:
it costs 0 and keeps w = 1 in every solve.  Every float equals
the one a full rebuild gives, the plan's too: a strictly optimal basis
sits on the unique optimum, which any solve reaches, and its vertex is
read off in integers, so the pivots that led there leave no trace.
The cache owns the empirical Copeland sets, every empirical winner
listed, and the budgets and plan made for them.  A drawn estimate that
changes side of 1/2 changes those sets, and then only the cache is
replaced: the counts, gaps, divergences and weights are per-pair values
the draw has already rewritten.  The K x K caches are built once, with
the state.  Rounds that change nothing but t (self-pair draws) reuse the
plan.  The guard keeps no verdict: ``select_pair`` and ``update_and_plan``
each ask it, and with no draw in between it answers the same.

Once the loop has converged to exploiting a candidate, the rounds until
the next event are identical self-pair draws; ``advance_self_pairs``
applies such a stretch in one step, bisecting over the rounds for the
first one at which the guard or the winner's budget fails, so the
converged regime costs O(K^2 + log T) per event, not O(K^2) per round.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import ceil, inf, log, sqrt

import numpy as np

from .constraints import (
    FEASIBILITY_TOL,
    GroupCache,
    iter_pairs,
    min_lhs_cw,
    min_lhs_ecw,
    pair_index,
)
from .core import (
    _check_integer,
    _check_real,
    _copeland_sets,
    gap_divergence,
    gap_divergences,
)
from .errors import InternalInconsistencyError, ValidationError
from .solvers import DEFAULT_K_MAX, _best_plan, _ecw_plan, check_lp_size
from .solvers import _cw_replan as _cw_lp  # the benchmark's tracer wraps bandit._cw_lp

DEFAULT_ALPHA = 3.0
DEFAULT_BETA = 0.01
VARIANTS = ("cw", "ecw", "random")

#: Rounds during which the near-tie guard is treated as +inf (ceil of e^e).
BOOTSTRAP_ROUNDS = 16


@dataclass(frozen=True)
class AlgorithmConfig:
    variant: str = "ecw"
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    k_max: int = DEFAULT_K_MAX

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValidationError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        alpha, beta = _check_real(self.alpha, "alpha"), _check_real(self.beta, "beta")
        if alpha <= 0:
            raise ValidationError(f"alpha must be positive, got {alpha!r}")
        if beta < 0:
            raise ValidationError(f"beta must be nonnegative, got {beta!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "k_max", _check_integer(self.k_max, "K_max", 0))


def check_size(config: AlgorithmConfig, k: int) -> None:
    """The cw variant needs the exact LP every planning event, so it is size-gated."""
    if config.variant == "cw":
        check_lp_size(k, config.k_max)


class RmedState:
    """Mutable per-run state: counts, win tallies, pair lists, caches."""

    __slots__ = (
        "k",
        "t",
        "counts",
        "wins",
        "muhat",
        "lc",
        "ln_next",
        "cursor",
        "ihat",
        "_pairs",
        "_n",
        "_gap",
        "_stop",
        "_level",
        "_near",
        "_touched",
        "_weights",
        "_div",
        "_groups",
    )

    def __init__(self, k: int):
        k = self.k = _check_integer(k, "K", 2)
        self.t = 1
        self.counts = [[0] * k for _ in range(k)]
        self.wins = [[0] * k for _ in range(k)]
        self.muhat = [[0.5] * k for _ in range(k)]
        self._pairs = list(iter_pairs(k))
        self.lc = list(self._pairs)
        self.ln_next = set()
        self.cursor = 0
        self.ihat = None  # 1-based once a candidate has been identified
        self._refresh()

    # -- planning caches ----------------------------------------------------

    def _refresh(self):
        """Build every cache from counts and muhat.

        The state calls it once, when it is made; the draws keep the caches
        up to date after that (``_update``).  Tests call it after editing
        the tallies, and as the reference the kept caches must equal.
        """
        counts, muhat = self.counts, self.muhat
        # estimates can sit exactly at 1/2; such pairs count in neither set
        self._groups = GroupCache(_copeland_sets(muhat))
        div = gap_divergence(muhat)
        self._div = div.tolist()
        self._weights = (np.array(counts, dtype=float) * div).tolist()
        # N_ij and |muhat_ij - 1/2| per pair, in _pairs order, kept by every draw
        self._n = [counts[i][j] for i, j in self._pairs]
        self._gap = [abs(muhat[i][j] - 0.5) for i, j in self._pairs]
        # where the last guard scan stopped, and the count level and near-tie
        # threshold it ran under
        self._stop, self._level, self._near = 0, None, inf
        self._touched = set()  # indices of the pairs drawn since the last _update

    def _update(self):
        """Bring the caches up to date with the pairs drawn since the last update.

        The drawn pairs' divergences and weights are rewritten and the
        cached pieces that read them dropped.  A drawn estimate that has
        changed side of 1/2 changes the Copeland sets, and then the
        GroupCache alone is replaced.
        """
        if not self._touched:
            return
        muhat, groups = self.muhat, self._groups
        drawn = [self._pairs[p] for p in self._touched]
        self._touched.clear()
        div = gap_divergences([muhat[i][j] for i, j in drawn] + [muhat[j][i] for i, j in drawn])
        moved = False
        for (i, j), dij, dji in zip(drawn, div, div[len(drawn) :]):
            n, mu = self.counts[i][j], muhat[i][j]
            self._div[i][j], self._div[j][i] = dij, dji
            self._weights[i][j], self._weights[j][i] = n * dij, n * dji
            groups.drop(i, j)
            moved |= (mu < 0.5) != (j in groups.sup[i]) or (mu > 0.5) != (j in groups.inf[i])
        if moved:
            self._groups = GroupCache(_copeland_sets(muhat))

    def _budget(self, i1: int, variant: str, floor: float = -inf) -> float:
        """Winner i1's budget, or a left side of its family below ``floor``.

        A result at or above ``floor`` is the exact budget, and is kept in
        ``budgets``.  A walk that ends below it may have stopped early, so
        its result is kept apart, in ``short``, and answers only a later
        call whose floor it is still below.
        """
        groups = self._groups
        cached = groups.budgets.get(i1)
        if cached is None:
            short = groups.short.get(i1)
            if short is not None and short < floor:
                return short
            min_lhs = min_lhs_cw if variant == "cw" else min_lhs_ecw
            cached = min_lhs(groups, i1, self._weights, floor)
            if cached < floor:
                groups.short[i1] = cached
            else:
                groups.budgets[i1] = cached
        return cached

    def _planned(self, variant: str):
        """(winner, [(pair index, rate) per nonzero rate]) of the argmin-winner plan."""
        groups = self._groups
        if groups.plan is None:
            planner = _cw_lp if variant == "cw" else _ecw_plan
            ihat, entries, _ = _best_plan(planner, groups, self._div)
            groups.plan = ihat, entries
        return groups.plan


def _count_need(alpha: float, t: int) -> float:
    """Draws of each pair the count guard asks for at round t: alpha*sqrt(ln t)."""
    return alpha * sqrt(log(t))


def _first_guarded(state: RmedState, config: AlgorithmConfig):
    """First lexicographic pair failing a guard, or None.

    The pairs are scanned from where the last scan stopped, if it ran
    under the same count level ceil(alpha sqrt(ln t)), and from the first
    pair otherwise; a stop past the last pair answers None at once.  That
    is exact: every pair before the stop had a count at the level and a
    gap at or above ``_near``, the threshold of the last call.  A count
    only rises, and an integer count passes alpha sqrt(ln t) exactly when
    it reaches the level.  beta / ln ln t only falls as t grows, and a
    draw whose gap falls below ``_near`` moves the stop back to its pair.
    A repeat call with no draw in between changes nothing: the stop pair
    still fails, or the stop is past the last pair.
    """
    t = state.t
    logt = log(t)  # taken once for both thresholds; need is _count_need's
    need = config.alpha * sqrt(logt)
    near = state._near = inf if t <= BOOTSTRAP_ROUNDS else config.beta / log(logt)
    level = ceil(need)
    if level != state._level:
        state._stop, state._level = 0, level
    n, gap = state._n, state._gap
    if state._stop == len(n):  # most asks: the last scan passed every pair
        return None
    for p in range(state._stop, len(n)):
        if n[p] < level or gap[p] < near:
            state._stop = p
            return state._pairs[p]
    state._stop = len(n)
    return None


def select_pair(state: RmedState, config: AlgorithmConfig):
    """Next pair to draw, 1-based.  Guard rounds preempt the loop."""
    guarded = _first_guarded(state, config)
    if guarded is not None:
        return guarded[0] + 1, guarded[1] + 1
    i, j = state.lc[state.cursor]
    return i + 1, j + 1


def random_baseline_select(rng: np.random.Generator, k: int):
    """Uniform draw over the K(K-1)/2 unordered distinct pairs, 1-based."""
    if not isinstance(rng, np.random.Generator):
        raise ValidationError(f"rng must be a numpy Generator, got {type(rng).__name__}")
    k = _check_integer(k, "K", 2)
    idx = int(rng.integers(k * (k - 1) // 2))
    # invert the lexicographic pair index
    i = 1
    while (i + 1) * i // 2 <= idx:
        i += 1
    j = idx - i * (i - 1) // 2
    return i + 1, j + 1


def _confirmed_winner(state: RmedState, config: AlgorithmConfig, logt: float):
    """First empirical winner whose budget clears (1-tol) ln t, or None.

    The threshold is each budget walk's floor: the walk stops at the first
    left side below it, and that short value fails every later round's
    threshold too, until a draw drops it.
    """
    threshold = (1.0 - FEASIBILITY_TOL) * logt
    for i1 in state._groups.winners:
        if state._budget(i1, config.variant, threshold) >= threshold:
            return i1
    return None


def _plan_step(state: RmedState, config: AlgorithmConfig):
    t = state.t
    logt = log(t) if t >= 2 else log(2.0)
    state._update()
    if not state._groups.winners:
        raise InternalInconsistencyError("empirical winner set is empty")

    ihat = _confirmed_winner(state, config, logt)
    if ihat is not None:
        candidates = {(ihat, ihat)}
    else:
        ihat, entries = state._planned(config.variant)
        n, pairs = state._n, state._pairs
        candidates = {pairs[p] for p, rate in entries if rate > n[p] / logt}
        candidates.add((ihat, ihat))
    state.ihat = ihat + 1

    # loop bookkeeping: queue the required pairs the rest of the loop won't draw
    state.cursor += 1
    state.ln_next |= candidates.difference(state.lc[state.cursor :])
    if state.cursor >= len(state.lc):
        state.lc = sorted(state.ln_next)
        state.ln_next = set()
        state.cursor = 0


def update_and_plan(state: RmedState, config: AlgorithmConfig, pair, outcome) -> RmedState:
    """Consume one draw: update tallies, then re-plan if this was a loop round.

    ``pair`` is 1-based, in either order; on a loop round it must be the
    pair select_pair chose (any pair for the random variant).  ``outcome``
    is 1 if the first arm of ``pair`` won, 0 otherwise, and ignored for
    self-pairs.  Invalid input raises ValidationError before any tally
    changes.
    """
    try:
        first, second = pair
        if isinstance(pair, (set, frozenset)):  # unordered: no first arm for the outcome
            raise TypeError
    except (TypeError, ValueError):
        raise ValidationError(f"pair must be two arms in order, got {pair!r}") from None
    l = _check_integer(first, "first arm of the pair", 1, state.k) - 1
    m = _check_integer(second, "second arm of the pair", 1, state.k) - 1
    # phase is decided on the pre-update state, as select_pair saw it
    loop_round = config.variant != "random" and _first_guarded(state, config) is None
    if loop_round and {l, m} != set(state.lc[state.cursor]):
        i, j = state.lc[state.cursor]
        raise ValidationError(f"loop round draws ({i + 1},{j + 1}), got {pair}")

    if l != m:
        if outcome not in (0, 1, True, False):
            raise ValidationError(f"binary outcome required for pair {pair}, got {outcome!r}")
        if l < m:  # canonical orientation l > m: muhat[l][m] is the exact ratio
            l, m, outcome = m, l, not outcome
        state.counts[l][m] += 1
        state.counts[m][l] += 1
        if outcome:
            state.wins[l][m] += 1
        else:
            state.wins[m][l] += 1
        mu = state.wins[l][m] / state.counts[l][m]
        state.muhat[l][m] = mu
        state.muhat[m][l] = 1.0 - mu
        p = pair_index(l, m)
        state._n[p] += 1
        gap = state._gap[p] = abs(mu - 0.5)
        # A count only rises, so the pair still passes the count level; it
        # must be read again only if its gap fell below the near-tie threshold.
        if p < state._stop and gap < state._near:
            state._stop = p
        state._touched.add(p)
    else:
        state.counts[l][l] += 1

    if loop_round:
        _plan_step(state, config)
    state.t += 1
    return state


# ---------------------------------------------------------------------------
# converged stretches


def _first_failing(holds, start: int, stop: int) -> int:
    """First round in (start, stop) where ``holds`` is false, else ``stop``.

    ``holds`` must be monotone (true, then false) on that range.  Bisection
    evaluates only ``holds`` itself, so no closed form can move the answer.
    """
    return start + 1 + bisect_left(range(start + 1, stop), True, key=lambda r: not holds(r))


def advance_self_pairs(state: RmedState, config: AlgorithmConfig, last_round: int) -> int:
    """Apply, in one step, the self-pair rounds that start at round state.t.

    At the loop's fixed point (L_C = [(ihat, ihat)], nothing queued, no
    feedback since the last plan step), past the bootstrap rounds, with no
    guard firing and ihat the first winner whose budget clears
    (1-tol) ln t, every round draws (ihat, ihat) and changes only
    counts[ihat][ihat] and t, until alpha*sqrt(ln t) passes the smallest
    off-diagonal count or (1-tol) ln t passes ihat's budget.  The near-tie
    guard only loosens as t grows, and a failing count guard or budget
    keeps failing, so nothing else can end the stretch.  Its end is found
    by bisection over the rounds, on the predicates a stepped round
    evaluates.  Rounds past ``last_round`` are left alone.  Returns the
    number of rounds applied, 0 when round state.t is not such a round;
    no random numbers are drawn.
    """
    t = state.t
    if (
        config.variant == "random"
        or state._touched
        or state.cursor
        or state.ln_next
        or len(state.lc) != 1
        or t <= BOOTSTRAP_ROUNDS
        or t > last_round
    ):
        return 0
    h, other = state.lc[0]
    if h != other or _first_guarded(state, config) is not None:
        return 0
    if _confirmed_winner(state, config, log(t)) != h:
        return 0
    # Inside the stretch no tally moves but counts[h][h], so the winners and
    # their budgets stay fixed.  Those ahead of h fell short of the threshold
    # (1-tol) ln t at round t, and it only grows with r, so h stays the
    # confirmed winner exactly while its own budget clears the threshold.
    low, budget = min(state._n), state._budget(h, config.variant)
    end = _first_failing(
        lambda r: low >= _count_need(config.alpha, r)
        and budget >= (1.0 - FEASIBILITY_TOL) * log(r),
        t,
        last_round + 1,
    )
    state.counts[h][h] += end - t
    state.t = end
    state.ihat = h + 1
    return end - t
