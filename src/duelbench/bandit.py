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

Planning work is cached between rounds that change nothing but t
(self-pair draws), and the guard scan runs once per round.  Once the
loop has converged to exploiting a candidate, the rounds until the next
event are identical self-pair draws; ``advance_self_pairs`` applies such
a stretch in one step, so the converged regime costs O(K^2) per event,
not per round.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, exp, inf, isfinite, log, sqrt

import numpy as np

from .constraints import FEASIBILITY_TOL, iter_pairs, min_lhs_cw, min_lhs_ecw
from .core import _copeland_sets, gap_divergence
from .errors import InternalInconsistencyError, ValidationError
from .solvers import _best_plan, _cw_lp, _ecw_plan, check_lp_size

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
    k_max: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValidationError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not (self.alpha > 0 and isfinite(self.alpha)):
            raise ValidationError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not (self.beta >= 0 and isfinite(self.beta)):
            raise ValidationError(f"beta must be nonnegative and finite, got {self.beta!r}")


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
        "_dirty",
        "_sets",
        "_weights",
        "_div",
        "_budgets",
        "_plan",
        "_guard",
    )

    def __init__(self, k: int):
        if k < 2:
            raise ValidationError(f"need at least two arms, got K={k}")
        self.k = k
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
        self._dirty = True
        self._sets = None
        self._weights = None
        self._div = None
        self._budgets = {}
        self._plan = None
        self._guard = None  # (round, _first_guarded verdict) from select_pair

    # -- refreshed lazily after any feedback ------------------------------

    def _refresh(self):
        vals = np.array(self.muhat)
        # estimates can sit exactly at 1/2; such pairs count in neither set
        self._sets = _copeland_sets(vals)
        div = gap_divergence(vals)
        self._div = div.tolist()
        self._weights = (np.array(self.counts, dtype=float) * div).tolist()
        self._budgets = {}
        self._plan = None
        self._dirty = False

    def _budget(self, i1: int, variant: str) -> float:
        cached = self._budgets.get(i1)
        if cached is None:
            sup, inf_sets, losses, _ = self._sets
            if variant == "cw":
                cached = min_lhs_cw(sup, inf_sets, losses, i1, self._weights)
            else:
                cached = min_lhs_ecw(sup, inf_sets, losses, i1, self._weights)
            self._budgets[i1] = cached
        return cached


def _first_guarded(state: RmedState, config: AlgorithmConfig):
    """First lexicographic pair failing a guard, or None."""
    t = state.t
    need = config.alpha * sqrt(log(t)) if t > 1 else 0.0
    near = inf if t <= BOOTSTRAP_ROUNDS else config.beta / log(log(t))
    counts = state.counts
    muhat = state.muhat
    for i, j in state._pairs:
        if counts[i][j] < need or abs(muhat[i][j] - 0.5) < near:
            return i, j
    return None


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
    if k < 2:
        raise ValidationError(f"need at least two arms, got K={k}")
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
    for i1 in state._sets[3]:
        if state._budget(i1, config.variant) >= threshold:
            return i1
    return None


def _plan_step(state: RmedState, config: AlgorithmConfig, pair):
    t = state.t
    logt = log(t) if t >= 2 else log(2.0)
    if state._dirty:
        state._refresh()
    if not state._sets[3]:
        raise InternalInconsistencyError("empirical winner set is empty")

    ihat = _confirmed_winner(state, config, logt)
    if ihat is not None:
        candidates = {(ihat, ihat)}
    else:
        if state._plan is None:
            # argmin-winner plan on the empirical matrix: (ihat0, rates per pair)
            planner = _cw_lp if config.variant == "cw" else _ecw_plan
            state._plan = _best_plan(planner, state._div, state._sets)[:2]
        ihat, rates = state._plan
        counts = state.counts
        candidates = {
            (i, j) for (i, j), q in zip(state._pairs, rates) if q > counts[i][j] / logt
        }
        candidates.add((ihat, ihat))
    state.ihat = ihat + 1

    # loop bookkeeping: drop the drawn pair, merge newly required pairs
    state.lr.discard(pair)
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

    ``pair`` is 1-based and must be the pair select_pair chose (or any
    pair for the random variant); ``outcome`` is 1 if the first arm won,
    0 otherwise, and ignored for self-pairs.
    """
    l, m = pair[0] - 1, pair[1] - 1
    if not (0 <= l < state.k and 0 <= m < state.k):
        raise ValidationError(f"pair {pair} out of range for K={state.k}")
    # phase is decided on the pre-update state, exactly as select_pair saw it;
    # its verdict is reused only if it was recorded for this round
    loop_round = config.variant != "random" and _guard_verdict(state, config) is None
    state._guard = None

    if l != m:
        if outcome not in (0, 1, True, False):
            raise ValidationError(f"binary outcome required for pair {pair}, got {outcome!r}")
        state.counts[l][m] += 1
        state.counts[m][l] += 1
        if outcome:
            state.wins[l][m] += 1
        else:
            state.wins[m][l] += 1
        p = state.wins[l][m] / state.counts[l][m]
        state.muhat[l][m] = p
        state.muhat[m][l] = 1.0 - p
        state._dirty = True
    else:
        state.counts[l][l] += 1

    if loop_round:
        _plan_step(state, config, (l, m))
    state.t += 1
    return state


# ---------------------------------------------------------------------------
# converged stretches


def _first_failing(holds, start: int, stop: int, guess: int) -> int:
    """First round in (start, stop) where ``holds`` is false, else ``stop``.

    ``holds`` must be true at ``start`` and monotone (true, then false).
    Walking from a closed-form ``guess`` evaluates the exact predicate, so
    float rounding in the closed form cannot move the answer.
    """
    r = min(max(guess, start + 1), stop)
    while r > start + 1 and not holds(r - 1):
        r -= 1
    while r < stop and holds(r):
        r += 1
    return r


def _exp_guess(x: float, stop: int) -> int:
    """ceil(exp(x)) clamped to ``stop``; safe for x = inf and for overflow."""
    return stop if not x < log(stop) else ceil(exp(x))


def _count_guard_end(low: int, alpha: float, start: int, stop: int) -> int:
    """First round after ``start`` at which ``low < alpha*sqrt(ln t)`` (capped at ``stop``)."""
    q = low / alpha
    return _first_failing(
        lambda r: not low < alpha * sqrt(log(r)), start, stop, _exp_guess(q * q, stop)
    )


def _budget_end(budget: float, start: int, stop: int) -> int:
    """First round after ``start`` at which ``budget`` falls below (1-tol) ln t (capped at ``stop``)."""
    scale = 1.0 - FEASIBILITY_TOL
    return _first_failing(
        lambda r: budget >= scale * log(r), start, stop, _exp_guess(budget / scale, stop)
    )


def advance_self_pairs(state: RmedState, config: AlgorithmConfig, last_round: int) -> int:
    """Apply, in one step, the self-pair rounds that start at round state.t.

    At the loop's fixed point (L_C = [(ihat, ihat)], nothing queued, no
    feedback since the last refresh), past the bootstrap rounds, with no
    guard firing and ihat the first winner whose budget clears
    (1-tol) ln t, every round draws (ihat, ihat) and changes only
    counts[ihat][ihat] and t, until alpha*sqrt(ln t) passes the smallest
    off-diagonal count or (1-tol) ln t passes ihat's budget.  The near-tie
    guard only loosens as t grows and a failing budget keeps failing, so
    nothing else can end the stretch.  Rounds past ``last_round`` are left
    alone.  Returns the number of rounds applied, 0 when round state.t
    is not such a round; no random numbers are drawn.
    """
    t = state.t
    if (
        config.variant == "random"
        or state._dirty
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
    counts = state.counts
    low = min(counts[i][j] for i, j in state._pairs)
    end = _count_guard_end(low, config.alpha, t, last_round + 1)
    end = _budget_end(state._budget(h, config.variant), t, end)
    counts[h][h] += end - t
    state.t = end
    state.ihat = h + 1
    return end - t
