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
marks the pair as drawn.  The guard first tests cached floors, lower
bounds on the smallest N_ij and the smallest gap: a draw only raises a
count and lowers the gap floor when it writes a smaller gap, so a pass
on the floors is a pass of every pair, and only a failure takes the
exact minima and, if they fail too, scans the pairs.  The next plan
step rewrites only the drawn pairs' divergences and weights, with one
numpy log call (``core.gap_divergences``), and drops only the cached
pieces that read them (``constraints.GroupCache``: budgets, plan, and
the columns and subproblems of the pair's two arms), so an exploring
round costs work on the drawn pair's rows and columns rather than a
K x K rebuild.  The cw plan also keeps each winner's last LP basis,
which no draw drops: in weight form the LP's polytope reads only the
Copeland sets (``solvers._cw_replan``).  A replan returns the kept
basis's vertex only if every reduced cost is below -1e-9, and solves
from the slack basis otherwise.  Every float equals the one a full
rebuild gives, the plan's too: a strictly optimal basis sits on the
unique optimum, which any solve reaches, and its vertex is read off in
integers, so the pivots that led there leave no trace.
The cache owns the empirical Copeland sets, every empirical winner
listed, and the budgets and plan made for them.  A drawn estimate that
changes side of 1/2 changes those sets, and then only the cache is
replaced: the counts, gaps, divergences and weights are per-pair values
the draw has already rewritten.  The K x K caches are built once, with
the state.  Rounds that change nothing but t (self-pair draws) reuse the
plan, and the guard runs once per round.

Once the loop has converged to exploiting a candidate, the rounds until
the next event are identical self-pair draws; ``advance_self_pairs``
applies such a stretch in one step, bisecting over the rounds for the
first one at which the guard or the winner's budget fails, so the
converged regime costs O(K^2 + log T) per event, not O(K^2) per round.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from math import inf, log, sqrt

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
        "lr",
        "ln_next",
        "cursor",
        "ihat",
        "_pairs",
        "_n",
        "_gap",
        "_floor",
        "_touched",
        "_weights",
        "_div",
        "_groups",
        "_guard",
    )

    def __init__(self, k: int):
        k = self.k = _check_integer(k, "K", 2)
        self.t = 1
        self.counts = [[0] * k for _ in range(k)]
        self.wins = [[0] * k for _ in range(k)]
        self.muhat = [[0.5] * k for _ in range(k)]
        self._pairs = list(iter_pairs(k))
        self.lc = list(self._pairs)
        self.lr = set(self._pairs)
        self.ln_next = set()
        self.cursor = 0
        self.ihat = None  # 1-based once a candidate has been identified
        self._guard = None  # (round, _first_guarded verdict) from select_pair
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
        self._floor = (min(self._n), min(self._gap))  # lower bounds on both minima
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

    def _budget(self, i1: int, variant: str) -> float:
        groups = self._groups
        cached = groups.budgets.get(i1)
        if cached is None:
            min_lhs = min_lhs_cw if variant == "cw" else min_lhs_ecw
            cached = groups.budgets[i1] = min_lhs(groups, i1, self._weights)
        return cached

    def _planned(self, variant: str):
        """(winner, rates, indices of the nonzero rates) of the argmin-winner plan."""
        groups = self._groups
        if groups.plan is None:
            planner = _cw_lp if variant == "cw" else _ecw_plan
            ihat, rates, _ = _best_plan(planner, groups, self._div)
            groups.plan = ihat, rates, list(compress(range(len(rates)), rates))
        return groups.plan


def _count_need(alpha: float, t: int) -> float:
    """Draws of each pair the count guard asks for at round t: alpha*sqrt(ln t)."""
    return alpha * sqrt(log(t)) if t > 1 else 0.0


def _first_guarded(state: RmedState, config: AlgorithmConfig):
    """First lexicographic pair failing a guard, or None.

    Every pair passes when the floors, lower bounds on min(_n) and
    min(_gap), pass; only when they do not are the exact minima taken,
    and the pairs scanned only when those fail too.
    """
    t = state.t
    need = _count_need(config.alpha, t)
    near = inf if t <= BOOTSTRAP_ROUNDS else config.beta / log(log(t))
    low, close = state._floor
    if low >= need and close >= near:
        return None
    n, gap = state._n, state._gap
    low, close = state._floor = (min(n), min(gap))
    if low >= need and close >= near:
        return None
    for p, count in enumerate(n):
        if count < need or gap[p] < near:
            return state._pairs[p]


def _guard_verdict(state: RmedState, config: AlgorithmConfig):
    """_first_guarded for round state.t, recorded so the round scans once."""
    recorded = state._guard
    if recorded is not None and recorded[0] == state.t:
        return recorded[1]
    guarded = _first_guarded(state, config)
    state._guard = (state.t, guarded)
    return guarded


def select_pair(state: RmedState, config: AlgorithmConfig):
    """Next pair to draw, 1-based.  Guard rounds preempt the loop."""
    guarded = _guard_verdict(state, config)
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
    """First empirical winner whose budget clears (1-tol) ln t, or None."""
    threshold = (1.0 - FEASIBILITY_TOL) * logt
    for i1 in state._groups.winners:
        if state._budget(i1, config.variant) >= threshold:
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
        ihat, rates, planned = state._planned(config.variant)
        # a zero rate never exceeds N/ln t
        n, pairs = state._n, state._pairs
        candidates = {pairs[p] for p in planned if rates[p] > n[p] / logt}
        candidates.add((ihat, ihat))
    state.ihat = ihat + 1

    # loop bookkeeping: drop the drawn pair, merge newly required pairs
    state.lr.discard(state.lc[state.cursor])
    for p in candidates:
        if p not in state.lr:
            state.ln_next.add(p)
    state.cursor += 1
    if state.cursor >= len(state.lc):
        state.lc = sorted(state.ln_next)
        state.lr = set(state.lc)
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
    # phase is decided on the pre-update state, exactly as select_pair saw it;
    # its verdict is reused only if it was recorded for this round
    loop_round = config.variant != "random" and _guard_verdict(state, config) is None
    if loop_round and {l, m} != set(state.lc[state.cursor]):
        i, j = state.lc[state.cursor]
        raise ValidationError(f"loop round draws ({i + 1},{j + 1}), got {pair}")
    state._guard = None

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
        state._n[p] += 1  # a count only rises, so the count floor stays a bound
        gap = state._gap[p] = abs(mu - 0.5)
        if gap < state._floor[1]:
            state._floor = (state._floor[0], gap)
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
    if h != other or _guard_verdict(state, config) is not None:
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
