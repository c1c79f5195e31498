"""Converged self-pair stretches applied in one step equal per-round stepping.

``harness._run_single`` hands every stretch of identical exploit rounds to
``bandit.advance_self_pairs``; ``oracles.run_per_round`` steps each round.
Their rows and terminal states must match exactly.  A stretch ends at
the first round at which a per-round float predicate flips;
``_first_failing`` finds that round by bisection and must agree with a
scan over every round.  The guard resumes its scan where the last one
stopped; its verdict must equal a scan over the tallies.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from duelbench import AlgorithmConfig, RmedState, builtin_dataset, select_pair, update_and_plan
from duelbench.bandit import BOOTSTRAP_ROUNDS, _first_failing, _first_guarded, advance_self_pairs
from duelbench.constraints import FEASIBILITY_TOL
from duelbench.core import _copeland_sets, _regret_nums
from duelbench.harness import _run_single
from conftest import random_matrix
from oracles import (
    assert_caches_match_a_rebuild,
    assert_guard_state_holds,
    first_guarded_scan,
    run_per_round,
)

SCALE = 1.0 - FEASIBILITY_TOL


def snapshot(state):
    return (
        state.counts,
        state.wins,
        state.t,
        state.ihat,
        state.lc,
        state.cursor,
        state.ln_next,
    )


def assert_state_invariants(matrix, state, row):
    """Tallies, estimates and the regret ledger agree between any two rounds."""
    k = matrix.k
    counts, wins, muhat = state.counts, state.wins, state.muhat
    rnum = _regret_nums(_copeland_sets(matrix.values)[2])
    for i in range(k):
        for j in range(i):
            assert counts[i][j] == counts[j][i] == wins[i][j] + wins[j][i]
            want = wins[i][j] / counts[i][j] if counts[i][j] else 0.5
            assert muhat[i][j] == want
            assert muhat[j][i] == 1.0 - want
    lower = [(i, j) for i in range(k) for j in range(i + 1)]
    assert sum(counts[i][j] for i, j in lower) == state.t - 1
    ledger = sum(rnum[i][j] * counts[i][j] for i, j in lower)
    assert row[-1] == ledger / (2.0 * (k - 1))  # exact float identity


def assert_same_run(matrix, config, horizon, seed):
    grid, row, state = _run_single(matrix, config, horizon, seed)
    ref_grid, ref_row, ref_state = run_per_round(matrix, config, horizon, seed)
    assert grid == ref_grid
    assert row == ref_row
    assert snapshot(state) == snapshot(ref_state)
    assert_state_invariants(matrix, state, row)
    return state


class TestSkipEqualsStep:
    @pytest.mark.parametrize("seed", range(6))
    def test_cyclic_ecw_long(self, cyclic, seed):
        state = assert_same_run(cyclic, AlgorithmConfig(), 100_000, seed)
        assert state.counts[0][0] > 90_000  # mostly exploitation: stretches were taken

    @pytest.mark.parametrize(
        "dataset, variant, horizon",
        [
            ("gap", "ecw", 30_000),
            ("multisol", "ecw", 30_000),
            ("multisol", "cw", 20_000),
            ("gap", "cw", 20_000),  # cw on a K=5 matrix
            ("cyclic", "cw", 20_000),
        ],
    )
    def test_datasets(self, dataset, variant, horizon):
        assert_same_run(builtin_dataset(dataset), AlgorithmConfig(variant=variant), horizon, 1)

    @pytest.mark.parametrize("alpha, beta", [(0.5, 0.0), (1.0, 0.2), (6.0, 0.05)])
    def test_alpha_beta(self, cyclic, alpha, beta):
        assert_same_run(cyclic, AlgorithmConfig(alpha=alpha, beta=beta), 30_000, 2)

    @pytest.mark.parametrize("horizon", [17, 300, 1234, 4321, 9999])
    def test_horizon_off_the_grid(self, cyclic, horizon):
        # the last stretch is clipped by the horizon itself
        assert_same_run(cyclic, AlgorithmConfig(), horizon, 3)

    def test_random_variant_untouched(self, cyclic):
        assert_same_run(cyclic, AlgorithmConfig(variant="random"), 2_000, 4)

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(3, 5),
        matrix_seed=st.integers(0, 2**32 - 1),
        run_seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(["ecw", "cw"]),
        alpha=st.floats(0.5, 6.0),
        beta=st.floats(0.0, 0.2),
        horizon=st.integers(1, 30_000),
    )
    def test_random_matrices(self, k, matrix_seed, run_seed, variant, alpha, beta, horizon):
        matrix = random_matrix(np.random.default_rng(matrix_seed), k)
        if variant == "cw":
            horizon = min(horizon, 3_000)  # an exact LP per replan
        config = AlgorithmConfig(variant=variant, alpha=alpha, beta=beta)
        assert_same_run(matrix, config, horizon, run_seed)


def first_failing_scan(holds, start, stop):
    """Brute force: first r in (start, stop) with holds(r) false, else stop."""
    for r in range(start + 1, stop):
        if not holds(r):
            return r
    return stop


def count_holds(low, alpha):
    return lambda r: not low < alpha * math.sqrt(math.log(r))


def budget_holds(budget):
    return lambda r: budget >= SCALE * math.log(r)


# (low, alpha) whose boundary e^((low/alpha)^2) lies past the bootstrap rounds
COUNT_CASES = [
    (low, alpha)
    for low in (2, 3, 5, 7, 8, 9, 10, 12, 15, 20, 40)
    for alpha in (0.3, 0.5, 1.0, 2.0, 3.0, 6.0)
    if math.log(BOOTSTRAP_ROUNDS + 1) < (low / alpha) ** 2 < 35
]


class TestBoundaries:
    @pytest.mark.parametrize("low, alpha", COUNT_CASES)
    def test_count_guard_grid(self, low, alpha):
        holds = count_holds(low, alpha)
        edge = int(math.exp((low / alpha) ** 2))
        stop = edge + 2000
        starts = {max(BOOTSTRAP_ROUNDS + 1, edge - 2000)}
        if edge < 200_000:
            starts.add(BOOTSTRAP_ROUNDS + 1)
        for start in starts:
            assert holds(start)
            assert _first_failing(holds, start, stop) == first_failing_scan(holds, start, stop)

    @pytest.mark.parametrize("start", [17, 40, 1000])
    def test_count_guard_starts_anywhere_inside(self, start):
        low, alpha = 9, 3.0  # boundary near e^9 = 8103
        holds = count_holds(low, alpha)
        for s in (start, 8000, 8102):
            if holds(s):
                assert _first_failing(holds, s, 20_000) == first_failing_scan(holds, s, 20_000)

    @pytest.mark.parametrize("guess", [0, 17, 500, 8103, 8104, 8105, 9000, 10**9])
    def test_walk_corrects_any_guess(self, guess):
        # a second monotone rule, first failing at round guess, conjoined with
        # the count guard as advance_self_pairs conjoins its rules: whichever
        # side of 8104 the guess lies, the stretch ends at the earlier edge
        holds = count_holds(9, 3.0)
        assert first_failing_scan(holds, 17, 20_000) == 8104

        def both(r):
            return holds(r) and r < guess

        assert _first_failing(both, 17, 20_000) == first_failing_scan(both, 17, 20_000)
        assert _first_failing(both, 17, 20_000) == min(8104, max(guess, 18))

    @settings(max_examples=300, deadline=None)
    @given(
        start=st.one_of(st.integers(0, 100), st.integers(10**17, 10**18)),
        width=st.one_of(st.just(1), st.integers(1, 3000)),
        edge=st.integers(1, 3005),
    )
    def test_bisection_matches_scan(self, start, width, edge):
        # the edge falls at start+1, inside the range, at stop or past it
        stop = start + width
        seen = []

        def holds(r):
            seen.append(r)
            return r < start + edge

        found = _first_failing(holds, start, stop)
        assert all(start < r < stop for r in seen)
        assert len(seen) <= math.ceil(math.log2(width))
        assert found == first_failing_scan(holds, start, stop)

    def test_count_guard_huge_gap_is_clamped(self):
        # (low/alpha)^2 would overflow exp, and low/alpha can overflow to inf
        assert _first_failing(count_holds(10**6, 1e-3), 100, 5_000) == 5_000
        assert _first_failing(count_holds(10**6, 1e-308), 100, 5_000) == 5_000

    def test_infinite_budget(self):
        assert _first_failing(budget_holds(math.inf), 20, 1_000) == 1_000

    @pytest.mark.parametrize("budget", [710.0, 1e6, 1e308])
    def test_budget_exp_overflows(self, budget):
        with pytest.raises(OverflowError):
            math.exp(budget / SCALE)
        assert _first_failing(budget_holds(budget), 20, 1_000) == 1_000

    @pytest.mark.parametrize("r0", [17, 18, 100, 2981, 8103, 65_537, 99_999])
    def test_threshold_lands_exactly_on_budget(self, r0):
        # at r0 the threshold equals the budget: >= holds, the next round fails
        budget = SCALE * math.log(r0)
        holds = budget_holds(budget)
        stop = r0 + 100
        assert _first_failing(holds, 17, stop) == first_failing_scan(holds, 17, stop)
        assert _first_failing(holds, r0, stop) == r0 + 1
        below = math.nextafter(budget, 0.0)
        if below >= SCALE * math.log(17):
            holds = budget_holds(below)
            assert _first_failing(holds, 17, stop) == first_failing_scan(holds, 17, stop)

    @pytest.mark.parametrize("budget", [2.9, 3.0, 5.5, 8.0, 9.2103, 11.5])
    def test_budget_grid(self, budget):
        holds = budget_holds(budget)
        stop = 200_000
        assert _first_failing(holds, 17, stop) == first_failing_scan(holds, 17, stop)

    def test_stop_bounds_the_answer(self):
        assert _first_failing(budget_holds(9.0), 17, 18) == 18
        assert _first_failing(count_holds(9, 3.0), 17, 18) == 18


def converged_state(matrix, t=2000, n=1000):
    """Fixed-point state exploiting arm 1, estimates equal to the truth."""
    k = matrix.k
    state = RmedState(k)
    state.t = t
    for i in range(k):
        for j in range(k):
            if i != j:
                wins = round(matrix.values[i, j] * n)
                state.wins[i][j] = wins
                state.counts[i][j] = n
                state.muhat[i][j] = wins / n
    state._refresh()
    state.lc = [(0, 0)]
    state.ln_next = set()
    state.cursor = 0
    return state


def step(state, config, rounds):
    for _ in range(rounds):
        pair = select_pair(state, config)
        assert pair == (1, 1)
        update_and_plan(state, config, pair, None)


def set_pair(state, i, j, n, mu):
    """Give pair (i, j), 0-based, n draws won by i in proportion mu."""
    wins = round(mu * n)
    state.counts[i][j] = state.counts[j][i] = n
    state.wins[i][j], state.wins[j][i] = wins, n - wins
    state.muhat[i][j] = wins / n
    state.muhat[j][i] = 1.0 - wins / n
    state._refresh()


class TestAdvance:
    def test_clipped_by_checkpoint(self, cyclic):
        cfg = AlgorithmConfig()
        skipped, stepped = converged_state(cyclic), converged_state(cyclic)
        assert advance_self_pairs(skipped, cfg, 2049) == 50
        step(stepped, cfg, 50)
        assert snapshot(skipped) == snapshot(stepped)
        assert advance_self_pairs(skipped, cfg, 2049) == 0  # past the checkpoint

    @pytest.mark.parametrize("low", [None, 9])
    def test_stretch_ends_where_stepping_changes(self, cyclic, low):
        # 500 draws a pair: arm 1's budget 10.07 ends the stretch near e^10.07;
        # 9 draws of pair (4, 3): 3 sqrt(ln t) passes 9 first, near e^9
        cfg = AlgorithmConfig()
        skipped, stepped = converged_state(cyclic, n=500), converged_state(cyclic, n=500)
        if low is not None:
            for state in (skipped, stepped):
                set_pair(state, 3, 2, low, cyclic.values[3, 2])
        budget = skipped._budget(0, "ecw")
        end = min(
            first_failing_scan(budget_holds(budget), 2000, 10**6),
            first_failing_scan(count_holds(low or 500, 3.0), 2000, 10**6),
        )
        assert end == (8104 if low else 23_571)
        assert advance_self_pairs(skipped, cfg, 10**6) == end - 2000
        step(stepped, cfg, end - 2000)
        assert snapshot(skipped) == snapshot(stepped)
        # the next round is no longer a plain exploit round
        assert advance_self_pairs(skipped, cfg, 10**6) == 0
        pair = select_pair(skipped, cfg)
        update_and_plan(skipped, cfg, pair, 1 if pair[0] != pair[1] else None)
        assert pair != (1, 1) or skipped.lc != [(0, 0)]

    @pytest.mark.parametrize("last_round", [10**12, 10**18])
    def test_far_checkpoint_applies_the_same_rounds(self, cyclic, last_round):
        # the budget ends the stretch near e^10.07 however far the checkpoint is
        cfg = AlgorithmConfig()
        near, far = converged_state(cyclic, n=500), converged_state(cyclic, n=500)
        assert advance_self_pairs(near, cfg, 10**6) == 21_571
        assert advance_self_pairs(far, cfg, last_round) == 21_571
        assert snapshot(far) == snapshot(near)

    def test_not_at_fixed_point(self, cyclic):
        cfg = AlgorithmConfig()
        assert advance_self_pairs(converged_state(cyclic), cfg, 5000) == 3001
        state = converged_state(cyclic)
        state.lc = [(0, 0), (1, 0)]
        assert advance_self_pairs(state, cfg, 5000) == 0
        state = converged_state(cyclic)
        state.ln_next = {(1, 0)}
        assert advance_self_pairs(state, cfg, 5000) == 0
        state = converged_state(cyclic, t=BOOTSTRAP_ROUNDS)
        assert advance_self_pairs(state, cfg, 5000) == 0
        state = converged_state(cyclic)
        assert advance_self_pairs(state, AlgorithmConfig(variant="random"), 5000) == 0

    def test_guard_firing_blocks(self, cyclic):
        cfg = AlgorithmConfig()
        state = converged_state(cyclic)
        set_pair(state, 3, 2, 5, cyclic.values[3, 2])  # 3 sqrt(ln 2000) > 5
        assert state._budget(0, "ecw") >= math.log(2000)  # arm 1 stays confirmed
        assert advance_self_pairs(state, cfg, 5000) == 0
        assert state.t == 2000
        assert select_pair(state, cfg) == (4, 3)

    def test_other_winner_first(self, multisol):
        # the first winner whose budget clears is not the exploited arm
        cfg = AlgorithmConfig()
        state = converged_state(multisol)
        winners = state._groups.winners
        assert len(winners) >= 2
        state.lc = [(winners[-1], winners[-1])]
        assert advance_self_pairs(state, cfg, 5000) == 0


def assert_guard_matches_the_scan(state, config):
    """The pairs before the guard's stop pass, and the guard's verdict is the scan's.

    The verdict is taken on a copy, so the run under test is left as it is.
    """
    assert_guard_state_holds(state)
    assert _first_guarded(copy.deepcopy(state), config) == first_guarded_scan(state, config)


class TestGuardStop:
    """The guard's stop moves back only for a draw before it into the near-tie band; a new level resets it.

    cyclic at t = 2000 with every pair drawn 1000 times: the count level is
    ceil(3 sqrt(ln 2000)) = 9 and the near-tie band 0.01 / ln ln t ~ 0.00493.
    """

    def draw(self, state, pair, outcome, rounds):
        random = AlgorithmConfig(variant="random")  # accepts any pair, never plans
        for _ in range(rounds):
            update_and_plan(state, random, pair, outcome)

    def stopped_after_a_close_pair(self, cyclic):
        """Pair (3, 2) at 506/1000, just outside the band, and the stop at (4, 3), drawn 5 times."""
        cfg = AlgorithmConfig()
        state = converged_state(cyclic)
        set_pair(state, 2, 1, 1000, 0.506)
        set_pair(state, 3, 2, 5, cyclic.values[3, 2])  # 3 sqrt(ln 2000) > 5
        assert _first_guarded(state, cfg) == (3, 2)
        assert state._stop == 5 and state._near == 0.01 / math.log(math.log(2000))
        return state, cfg

    def test_a_draw_that_stays_outside_the_band_keeps_the_stop(self, cyclic):
        state, cfg = self.stopped_after_a_close_pair(cyclic)
        self.draw(state, (3, 2), 0, 2)  # 506/1002: a gap of 0.00499
        assert abs(state.muhat[2][1] - 0.5) >= state._near
        assert state._stop == 5
        assert_guard_matches_the_scan(state, cfg)
        assert _first_guarded(state, cfg) == (3, 2)

    def test_a_draw_into_the_band_moves_the_stop_back(self, cyclic):
        state, cfg = self.stopped_after_a_close_pair(cyclic)
        self.draw(state, (3, 2), 0, 3)  # 506/1003: a gap of 0.00449
        assert abs(state.muhat[2][1] - 0.5) < state._near
        assert state._stop == 2
        assert_guard_matches_the_scan(state, cfg)
        assert _first_guarded(state, cfg) == (2, 1)

    def test_a_new_level_restarts_a_scan_that_passed_every_pair(self, cyclic):
        cfg = AlgorithmConfig()
        state = converged_state(cyclic)
        state.counts[1][0] = state.counts[0][1] = state._n[0] = 9  # as a refresh would set it
        assert _first_guarded(state, cfg) is None
        assert (state._stop, state._level) == (len(state._n), 9)
        state.t = 9_000  # 3 sqrt(ln 9000) > 9: the level is 10
        assert _first_guarded(state, cfg) == (1, 0) == first_guarded_scan(state, cfg)


class SteppedRun(RuleBasedStateMachine):
    """One run driven round by round and stretch by stretch, checked after every step.

    Each step draws the pair ``select_pair`` chose, as the harness does.
    Besides the tallies and the regret ledger, the loop bookkeeping must
    hold: L_C sorted without duplicates, the pairs still to draw in this
    pass ``lc[cursor:]``, and nothing queued for the next pass among
    them.  The planning caches, kept up to date draw by draw, must equal a
    full rebuild from the tallies; every pair before the guard's stop must
    pass at the level and threshold it ran under, and the guard's verdict
    must be that of a scan.
    """

    @initialize(
        k=st.integers(2, 4),
        matrix_seed=st.integers(0, 2**32 - 1),
        run_seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(["ecw", "cw"]),
    )
    def start(self, k, matrix_seed, run_seed, variant):
        self.matrix = random_matrix(np.random.default_rng(matrix_seed), k)
        self.vals = self.matrix.values.tolist()
        self.rnum = _regret_nums(_copeland_sets(self.matrix.values)[2])
        self.config = AlgorithmConfig(variant=variant)
        self.rng = np.random.default_rng(run_seed)
        self.state = RmedState(k)
        self.acc = 0

    @rule(rounds=st.integers(1, 300))
    def step_rounds(self, rounds):
        for _ in range(rounds):
            l, m = select_pair(self.state, self.config)
            outcome = None if l == m else int(self.rng.random() < self.vals[l - 1][m - 1])
            update_and_plan(self.state, self.config, (l, m), outcome)
            self.acc += self.rnum[l - 1][m - 1]

    @rule(span=st.integers(1, 10**6))
    def advance(self, span):
        n = advance_self_pairs(self.state, self.config, self.state.t + span - 1)
        if n:
            h = self.state.ihat - 1
            self.acc += n * self.rnum[h][h]

    @invariant()
    def consistent(self):
        state = self.state
        assert_state_invariants(self.matrix, state, [self.acc / (2.0 * (self.matrix.k - 1))])
        assert state.lc == sorted(set(state.lc))
        assert not state.ln_next & set(state.lc[state.cursor :])

    @invariant()
    def caches_match_a_rebuild(self):
        assert_caches_match_a_rebuild(self.state, self.config.variant)

    @invariant()
    def guard_matches_the_scan(self):
        assert_guard_matches_the_scan(self.state, self.config)


TestSteppedRun = SteppedRun.TestCase
TestSteppedRun.settings = settings(max_examples=30, stateful_step_count=25, deadline=None)
