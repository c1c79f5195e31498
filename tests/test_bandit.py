import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duelbench import (
    AlgorithmConfig,
    RmedState,
    TooLargeError,
    ValidationError,
    ecw_optimal,
    random_baseline_select,
    select_pair,
    update_and_plan,
)
from duelbench import bandit, builtin_dataset, harness, simulate_batch
from duelbench.bandit import BOOTSTRAP_ROUNDS, check_size
from duelbench.constraints import FEASIBILITY_TOL, GroupCache, min_lhs_cw, min_lhs_ecw
from duelbench.core import _copeland_sets, sample_submatrix
from conftest import random_matrix
from oracles import assert_guard_state_holds, first_guarded_scan
from test_self_pairs import converged_state, set_pair


def exploit_ready_state(matrix, t=2000, n=1000):
    """State whose estimates equal the truth and whose counts clear every guard."""
    k = matrix.k
    state = RmedState(k)
    state.t = t
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            wins = round(matrix.values[i, j] * n)
            state.wins[i][j] = wins
            state.counts[i][j] = n
            state.muhat[i][j] = wins / n
    state._refresh()
    return state


class TestConfig:
    def test_defaults(self):
        cfg = AlgorithmConfig()
        assert cfg.variant == "ecw" and cfg.alpha == 3.0 and cfg.beta == 0.01

    def test_validation(self):
        with pytest.raises(ValidationError):
            AlgorithmConfig(variant="bogus")
        with pytest.raises(ValidationError):
            AlgorithmConfig(alpha=0.0)
        with pytest.raises(ValidationError):
            AlgorithmConfig(beta=-1.0)
        AlgorithmConfig(beta=0.0)  # explicitly permitted

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValidationError):
            AlgorithmConfig(**{field: value})

    @pytest.mark.parametrize("variant", ["cw", "ecw", "random"])
    def test_negative_k_max_rejected(self, variant):
        with pytest.raises(ValidationError, match="nonnegative"):
            AlgorithmConfig(variant=variant, k_max=-1)

    def test_size_gate(self):
        check_size(AlgorithmConfig(variant="ecw"), 16)
        with pytest.raises(TooLargeError):
            check_size(AlgorithmConfig(variant="cw"), 16)
        check_size(AlgorithmConfig(variant="cw", k_max=16), 16)
        with pytest.raises(TooLargeError):
            check_size(AlgorithmConfig(variant="cw", k_max=0), 2)  # 0 gates every LP


class TestSelectPair:
    def test_fresh_state(self):
        state = RmedState(4)
        assert select_pair(state, AlgorithmConfig()) == (2, 1)

    def test_bootstrap_rounds_guard_everything(self, cyclic):
        cfg = AlgorithmConfig()
        state = RmedState(4)
        rng = np.random.default_rng(0)
        for _ in range(BOOTSTRAP_ROUNDS):
            pair = select_pair(state, cfg)
            assert pair == (2, 1)  # near-tie guard is +inf, first pair wins
            out = int(rng.random() < cyclic.values[pair[0] - 1][pair[1] - 1])
            update_and_plan(state, cfg, pair, out)
        assert state.t == BOOTSTRAP_ROUNDS + 1
        assert select_pair(state, cfg) != (2, 1)  # alpha guard takes over

    def test_converged_state_exploits(self, cyclic):
        cfg = AlgorithmConfig()
        state = exploit_ready_state(cyclic)
        state.lc = [(0, 0)]
        state.cursor = 0
        assert select_pair(state, cfg) == (1, 1)
        update_and_plan(state, cfg, (1, 1), None)
        assert state.lc == [(0, 0)]  # exploitation persists
        assert state.ihat == 1

    def test_feasible_counts_shrink_loop_to_winner(self, cyclic):
        # truth-equal estimates with normalized counts above the optimal
        # rates: one full pass over the loop must leave only the self pair
        cfg = AlgorithmConfig()
        state = exploit_ready_state(cyclic, t=2000, n=1000)
        opt = ecw_optimal(cyclic, 1).rates
        assert all(
            1000 / math.log(2000) > opt.get(i, j) for i in range(2, 5) for j in range(1, i)
        )
        while True:
            pair = select_pair(state, cfg)
            assert pair[0] != pair[1] or pair == (1, 1)
            out = None
            if pair[0] != pair[1]:
                # feed expected outcomes in proportion; any outcome works since
                # counts are already huge, use a deterministic win
                out = 1 if cyclic.values[pair[0] - 1][pair[1] - 1] > 0.5 else 0
            update_and_plan(state, cfg, pair, out)
            if state.cursor == 0 and state.lc == [(0, 0)]:
                break
            assert state.t < 2100  # the loop must shrink quickly

    def test_flipped_estimate_triggers_exploration(self, cyclic):
        cfg = AlgorithmConfig()
        # counts low enough that no candidate is confirmed once (1,2) flips
        state = exploit_ready_state(cyclic, t=2000, n=100)
        state.wins[1][0] = 60
        state.wins[0][1] = 40
        state.muhat[1][0] = 0.6
        state.muhat[0][1] = 0.4
        state._refresh()
        state.lc = [(0, 0)]
        state.cursor = 0
        update_and_plan(state, cfg, (1, 1), None)
        planned = set(state.lc)
        assert any(i != j for i, j in planned)


class TestGuardVerdictPerRound:
    def test_select_and_update_see_the_same_verdict(self, cyclic, monkeypatch):
        calls = []
        scan = bandit._first_guarded

        def recorded(state, cfg):
            verdict = scan(state, cfg)
            assert_guard_state_holds(state)
            calls.append((state.t, verdict, state._stop, state._level, state._near))
            return verdict

        monkeypatch.setattr(bandit, "_first_guarded", recorded)
        cfg = AlgorithmConfig()
        state = RmedState(4)
        rng = np.random.default_rng(5)
        for t in range(1, 201):
            pair = select_pair(state, cfg)
            out = None
            if pair[0] != pair[1]:
                out = int(rng.random() < cyclic.values[pair[0] - 1][pair[1] - 1])
            update_and_plan(state, cfg, pair, out)
            # select_pair's call and update_and_plan's, at round t, agree in
            # verdict and leave the same scan state
            selected, updated = calls[-2:]
            assert selected == updated and selected[0] == t
            guarded = selected[1]
            assert guarded is None or pair == (guarded[0] + 1, guarded[1] + 1)
        assert len(calls) == 400
        assert any(c[1] is None for c in calls) and any(c[1] is not None for c in calls)

    def test_update_without_select_recomputes(self, cyclic):
        # update_and_plan asks the guard for its own round: select_pair's
        # loop verdict at t=2000 does not carry to t=5, where the bootstrap
        # near-tie guard fires, so this is a guard round, not a loop round
        cfg = AlgorithmConfig()
        state = exploit_ready_state(cyclic, t=2000, n=1000)
        state.lc = [(0, 0)]
        state.cursor = 0
        assert select_pair(state, cfg) == (1, 1)  # a loop round at t=2000
        state.t = 5
        update_and_plan(state, cfg, (2, 1), 1)
        assert state.lc == [(0, 0)] and state.cursor == 0 and state.ihat is None
        # with no select_pair before it, the loop round plans
        state = exploit_ready_state(cyclic, t=2000, n=1000)
        state.lc = [(0, 0)]
        state.cursor = 0
        update_and_plan(state, cfg, (1, 1), None)
        assert state.ihat == 1


class TestUpdateBookkeeping:
    def test_counts_and_wins_direction(self):
        cfg = AlgorithmConfig(variant="random")
        state = RmedState(3)
        update_and_plan(state, cfg, (2, 1), 1)
        assert state.wins[1][0] == 1 and state.wins[0][1] == 0
        assert state.counts[1][0] == state.counts[0][1] == 1
        assert state.muhat[1][0] == 1.0 and state.muhat[0][1] == 0.0
        update_and_plan(state, cfg, (2, 1), 0)
        assert state.wins[0][1] == 1
        assert state.muhat[1][0] == 0.5  # exact rational 1/2
        assert state.t == 3

    def test_self_pair_counts_only(self):
        cfg = AlgorithmConfig(variant="random")
        state = RmedState(3)
        update_and_plan(state, cfg, (2, 2), None)
        assert state.counts[1][1] == 1
        assert state.t == 2

    def test_outcome_required_for_distinct_pair(self):
        state = RmedState(3)
        with pytest.raises(ValidationError):
            update_and_plan(state, AlgorithmConfig(), (2, 1), None)
        with pytest.raises(ValidationError):
            update_and_plan(state, AlgorithmConfig(), (9, 1), 1)

    def test_random_variant_ignores_lists(self):
        cfg = AlgorithmConfig(variant="random")
        state = RmedState(4)
        before = (list(state.lc), set(state.ln_next), state.cursor)
        rng = np.random.default_rng(3)
        for _ in range(50):
            pair = random_baseline_select(rng, 4)
            out = None if pair[0] == pair[1] else int(rng.random() < 0.5)
            update_and_plan(state, cfg, pair, out)
        assert (list(state.lc), set(state.ln_next), state.cursor) == before
        assert state.t == 51

    def test_conservation(self, cyclic):
        cfg = AlgorithmConfig()
        state = RmedState(4)
        rng = np.random.default_rng(8)
        rounds = 600
        for _ in range(rounds):
            pair = select_pair(state, cfg)
            out = None
            if pair[0] != pair[1]:
                out = int(rng.random() < cyclic.values[pair[0] - 1][pair[1] - 1])
            update_and_plan(state, cfg, pair, out)
        total = sum(
            state.counts[i][j] for i in range(4) for j in range(i + 1)
        )
        assert total == rounds
        assert state.t == rounds + 1
        for i in range(4):
            for j in range(i):
                assert state.counts[i][j] == state.wins[i][j] + state.wins[j][i]
                if state.counts[i][j]:
                    # canonical orientation is the exact ratio, mirror the
                    # exact complement
                    assert state.muhat[i][j] == state.wins[i][j] / state.counts[i][j]
                    assert state.muhat[j][i] == 1.0 - state.muhat[i][j]


def first_loop_draw(matrix, cfg, seed=0):
    """Step a run until select_pair picks a distinct pair on a loop round."""
    state = RmedState(matrix.k)
    rng = np.random.default_rng(seed)
    while True:
        pair = select_pair(state, cfg)
        if bandit._first_guarded(state, cfg) is None and pair[0] != pair[1]:
            return state, pair
        out = None if pair[0] == pair[1] else int(rng.random() < matrix.mu(*pair))
        update_and_plan(state, cfg, pair, out)


def snapshot(state):
    return copy.deepcopy(
        (
            state.t,
            state.counts,
            state.wins,
            state.muhat,
            state.ihat,
            state.lc,
            state.cursor,
            state.ln_next,
        )
    )


class TestLoopRoundPair:
    """On a loop round only the pair select_pair chose is accepted, in either order."""

    @pytest.mark.parametrize("variant", ["ecw", "cw"])
    def test_either_order_is_the_same_draw(self, cyclic, variant):
        cfg = AlgorithmConfig(variant=variant)
        state, (l, m) = first_loop_draw(cyclic, cfg)
        assert len(state.lc) - state.cursor > 1  # the pass goes on after this draw
        flipped = copy.deepcopy(state)
        update_and_plan(state, cfg, (l, m), 0)
        update_and_plan(flipped, cfg, (m, l), 1)
        assert snapshot(flipped) == snapshot(state)

    def test_other_pair_is_rejected_before_any_tally(self, cyclic):
        cfg = AlgorithmConfig()
        state, (l, m) = first_loop_draw(cyclic, cfg)
        other = next((i, j) for i in range(2, 5) for j in range(1, i) if {i, j} != {l, m})
        before = snapshot(state)
        for pair, out in ((other, 1), ((1, 1), None)):
            with pytest.raises(ValidationError, match="loop round"):
                update_and_plan(state, cfg, pair, out)
            assert snapshot(state) == before
        update_and_plan(state, cfg, (l, m), 1)
        assert state.t == before[0] + 1


class TestRandomBaseline:
    def test_two_arms(self):
        rng = np.random.default_rng(0)
        assert all(random_baseline_select(rng, 2) == (2, 1) for _ in range(20))

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(123)
        counts = {}
        draws = 1_000_000
        for _ in range(draws):
            pair = random_baseline_select(rng, 4)
            counts[pair] = counts.get(pair, 0) + 1
        assert len(counts) == 6
        for pair, n in counts.items():
            assert abs(n / draws - 1 / 6) <= 0.002, (pair, n / draws)

    def test_validation(self):
        with pytest.raises(ValidationError):
            random_baseline_select(np.random.default_rng(0), 1)

    def test_deterministic_sequence(self):
        rng = np.random.default_rng(7)
        seq1 = [random_baseline_select(rng, 3) for _ in range(100)]
        rng = np.random.default_rng(7)
        seq2 = [random_baseline_select(rng, 3) for _ in range(100)]
        assert seq1 == seq2
        assert len(set(seq1)) == 3


class TestLoopInvariants:
    def test_lists_coincide_at_loop_start(self, cyclic):
        cfg = AlgorithmConfig()
        state = RmedState(4)
        rng = np.random.default_rng(13)
        for _ in range(800):
            pair = select_pair(state, cfg)
            out = None
            if pair[0] != pair[1]:
                out = int(rng.random() < cyclic.values[pair[0] - 1][pair[1] - 1])
            update_and_plan(state, cfg, pair, out)
            if state.cursor == 0:
                assert state.ln_next == set()  # fresh loop: nothing queued

    def test_a_drawn_pair_still_required_is_queued_again(self, cyclic):
        # pair (2, 1), drawn 100 times, stays below its rate 49.7 ln t and
        # keeps arm 1's budget short, so (2, 1) and (1, 1) are required after
        # each plan step; the other pairs, drawn 1000 times, are not
        cfg = AlgorithmConfig()
        state = exploit_ready_state(cyclic)
        set_pair(state, 1, 0, 100, cyclic.values[1, 0])
        state.lc = [(1, 0), (2, 0)]
        update_and_plan(state, cfg, select_pair(state, cfg), 0)
        assert (state.cursor, state.ln_next) == (1, {(0, 0), (1, 0)})
        update_and_plan(state, cfg, select_pair(state, cfg), 0)
        assert (state.lc, state.cursor, state.ln_next) == ([(0, 0), (1, 0)], 0, set())

    def test_beta_zero_variant_runs(self, cyclic):
        cfg = AlgorithmConfig(beta=0.0)
        state = RmedState(4)
        rng = np.random.default_rng(14)
        for _ in range(2000):
            pair = select_pair(state, cfg)
            out = None
            if pair[0] != pair[1]:
                out = int(rng.random() < cyclic.values[pair[0] - 1][pair[1] - 1])
            update_and_plan(state, cfg, pair, out)
        assert state.t == 2001
        assert state.ihat is not None


class TestVariantAgreement:
    def test_two_arm_cw_equals_ecw(self, two_arm):
        # at K=2 the two families coincide, so the planned draws agree round
        # by round for identical feedback
        results = []
        for variant in ("cw", "ecw"):
            cfg = AlgorithmConfig(variant=variant)
            state = RmedState(2)
            rng = np.random.default_rng(99)
            pairs = []
            for _ in range(1500):
                pair = select_pair(state, cfg)
                out = None
                if pair[0] != pair[1]:
                    out = int(rng.random() < two_arm.values[pair[0] - 1][pair[1] - 1])
                update_and_plan(state, cfg, pair, out)
                pairs.append(pair)
            results.append(pairs)
        assert results[0] == results[1]


class TestEarlyStopBudget:
    """Budget walks stop at the first left side below (1-tol) ln t; no verdict moves.

    On every ``_confirmed_winner`` call of a run, the winner it returns is
    the one full ``min_lhs_*`` walks on a fresh cache pick, every kept
    budget that reached the floor its walk ran under is exact, and every
    other kept value is a left side below that floor, which is at most the
    threshold.
    """

    RUNS = [
        ("cw", lambda: sample_submatrix(builtin_dataset("sushi"), 6, 0.02, 3), 1_000),
        ("cw", lambda: builtin_dataset("cyclic"), 20_000),
        ("ecw", lambda: builtin_dataset("sushi"), 5_000),
    ]

    @staticmethod
    def checked_run(monkeypatch, matrix, variant, horizon, seed):
        """``simulate_batch`` with every ``_confirmed_winner`` call checked; returns the counts seen."""
        original = bandit._confirmed_winner
        min_lhs = min_lhs_cw if variant == "cw" else min_lhs_ecw
        seen = {"calls": 0, "stopped": 0}

        def checked(state, config, logt):
            got = original(state, config, logt)
            groups, weights = state._groups, state._weights
            threshold = (1.0 - FEASIBILITY_TOL) * logt
            fresh = GroupCache((groups.sup, groups.inf, groups.losses, groups.winners))
            full = {i1: min_lhs(fresh, i1, weights) for i1 in groups.winners}
            assert got == next((i1 for i1 in groups.winners if full[i1] >= threshold), None)
            kept = state._budgets.items()
            assert all(value == full[i1] for i1, (value, floor) in kept if value >= floor)
            assert all(full[i1] <= value < floor <= threshold for i1, (value, floor) in kept if value < floor)
            seen["calls"] += 1
            seen["stopped"] += any(value != full[i1] for i1, (value, _) in kept)
            return got

        monkeypatch.setattr(bandit, "_confirmed_winner", checked)
        simulate_batch(matrix, AlgorithmConfig(variant=variant), horizon, 1, seed)
        return seen

    @pytest.mark.parametrize("variant, make, horizon", RUNS, ids=["cw-sushi6", "cw-cyclic", "ecw-sushi"])
    def test_every_verdict_equals_the_full_walks(self, monkeypatch, variant, make, horizon):
        seen = self.checked_run(monkeypatch, make(), variant, horizon, 3)
        assert seen["stopped"] > 0 and seen["calls"] > seen["stopped"]

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(3, 6),
        matrix_seed=st.integers(0, 2**32 - 1),
        run_seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(["cw", "ecw"]),
        horizon=st.integers(1, 2_000),
    )
    def test_random_matrices(self, k, matrix_seed, run_seed, variant, horizon):
        matrix = random_matrix(np.random.default_rng(matrix_seed), k)
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.checked_run(monkeypatch, matrix, variant, horizon, run_seed)


class TestKeptBudgetsAndPlan:
    """``RmedState`` keeps each winner's last budget walk and the plan until a distinct draw.

    A kept (value, floor) answers a call when the value reached its floor,
    which makes it exact, or when it is still below the call's floor;
    any other call walks again.  Rounds that change only t keep both, and
    the next plan step after a distinct draw makes both anew.  Walks and
    plans are counted through the module globals the state calls.
    """

    # cyclic with every pair drawn 20 times: the count level at t = 2000 is
    # 9, no gap is near a tie, and arm 1's cw budget, about 0.81, fails
    # ln t; a walk at a floor above 8.2 stops at its first left side, about 8.2

    @staticmethod
    def counted(monkeypatch):
        calls = {"walks": 0, "plans": 0}

        def counting(key, original):
            def wrapper(*args):
                calls[key] += 1
                return original(*args)

            return wrapper

        for name in ("min_lhs_cw", "min_lhs_ecw"):
            monkeypatch.setattr(bandit, name, counting("walks", getattr(bandit, name)))
        for name in ("_cw_lp", "_ecw_plan"):
            monkeypatch.setattr(bandit, name, counting("plans", getattr(bandit, name)))
        return calls

    def test_a_short_value_answers_a_higher_floor_without_a_walk(self, monkeypatch, cyclic):
        state = exploit_ready_state(cyclic, n=20)
        calls = self.counted(monkeypatch)
        short = state._budget(0, "cw", 1e9)
        assert short < 1e9 and state._budgets[0] == (short, 1e9)
        assert state._budget(0, "cw", 2e9) == short
        assert calls["walks"] == 1
        state._budget(0, "cw", short)  # not below this floor: walks again
        assert calls["walks"] == 2

    def test_a_walk_at_minus_inf_keeps_the_exact_budget_for_every_floor(self, monkeypatch, cyclic):
        state = exploit_ready_state(cyclic, n=20)
        calls = self.counted(monkeypatch)
        short = state._budget(0, "cw", 1e9)
        exact = state._budget(0, "cw")
        assert calls["walks"] == 2
        fresh = GroupCache(_copeland_sets(state.muhat))
        assert exact == min_lhs_cw(fresh, 0, state._weights) < short
        assert state._budgets[0] == (exact, -math.inf)
        for floor in (-math.inf, exact, exact + 1.0, short, 1e9, 2e9):
            assert state._budget(0, "cw", floor) == exact
        assert calls["walks"] == 2

    def test_a_self_pair_round_keeps_both_and_a_distinct_draw_makes_both_anew(self, monkeypatch, cyclic):
        cfg = AlgorithmConfig(variant="cw")
        state = exploit_ready_state(cyclic, n=20)
        state.lc = [(1, 0), (0, 0), (2, 0)]
        calls = self.counted(monkeypatch)
        update_and_plan(state, cfg, select_pair(state, cfg), 0)  # (2, 1): no winner confirms
        assert calls == {"walks": 1, "plans": 1}
        plan, budgets = state._plan, dict(state._budgets)
        assert plan is not None and budgets[0][0] < budgets[0][1]
        assert select_pair(state, cfg) == (1, 1)
        update_and_plan(state, cfg, (1, 1), None)  # the short budget fails the higher threshold too
        assert calls == {"walks": 1, "plans": 1}
        assert state._plan is plan and state._budgets == budgets
        update_and_plan(state, cfg, select_pair(state, cfg), 0)  # (3, 1)
        assert calls == {"walks": 2, "plans": 2}
        assert state._plan is not plan
        assert state._budgets[0][1] == (1.0 - FEASIBILITY_TOL) * math.log(state.t - 1)  # this step's threshold

    def test_a_self_pair_stretch_keeps_both(self, monkeypatch, cyclic):
        cfg = AlgorithmConfig()
        state = converged_state(cyclic)
        assert bandit._confirmed_winner(state, cfg, math.log(state.t)) == 0
        plan, budgets = state._planned("ecw"), dict(state._budgets)
        calls = self.counted(monkeypatch)
        assert bandit.advance_self_pairs(state, cfg, 100_000) > 0
        update_and_plan(state, cfg, select_pair(state, cfg), None)
        assert state._planned("ecw") is plan and state._budgets == budgets
        assert calls == {"walks": 0, "plans": 0}


class TestResumedGuardScan:
    """The guard scan resumes where the last one stopped; its verdict is a full scan's.

    ``_first_guarded`` scans from the pair it last stopped at while the
    count level ceil(alpha sqrt(ln t)) is unchanged, and answers at once
    when that scan passed every pair; a draw of an earlier pair into the
    near-tie band moves the stop back, and ``_refresh`` resets it.  At
    every guard call of a run the verdict must equal
    ``oracles.first_guarded_scan``, a lexicographic scan of the tallies,
    and every pair before the stop must pass at the level and threshold
    the call stored.  A second call at once must give the same verdict and
    leave the stop, the level and the threshold as they were, which is
    what lets select_pair and update_and_plan each ask the guard.
    """

    # (name, matrix, config, horizon, rounds at least that advance_self_pairs
    # applies in one step): the cyclic run crosses its self-pair stretches
    RUNS = [
        ("ecw-sushi", lambda: builtin_dataset("sushi"), AlgorithmConfig(), 3_000, 0),
        ("cw-sushi6", lambda: sample_submatrix(builtin_dataset("sushi"), 6, 0.02, 3), AlgorithmConfig(variant="cw"), 1_000, 0),
        ("ecw-cyclic", lambda: builtin_dataset("cyclic"), AlgorithmConfig(), 100_000, 90_000),
        ("beta0", lambda: builtin_dataset("sushi"), AlgorithmConfig(beta=0.0), 3_000, 0),
        ("alpha6", lambda: builtin_dataset("sushi"), AlgorithmConfig(alpha=6.0), 3_000, 0),
    ]

    @staticmethod
    def checked_run(monkeypatch, matrix, config, horizon, seed):
        """Run the harness's loop with every guard verdict checked; returns the counts seen."""
        original = bandit._first_guarded
        seen = {"calls": 0, "scans": 0, "resumed": 0, "restarted": 0, "skipped": 0}

        def checked(state, cfg):
            stop, level = state._stop, state._level
            near = math.inf if state.t <= BOOTSTRAP_ROUNDS else cfg.beta / math.log(math.log(state.t))
            got = original(state, cfg)
            assert got == first_guarded_scan(state, cfg)
            assert state._near == near
            assert_guard_state_holds(state)
            # asked again with no draw in between, the guard repeats itself and keeps its state
            scan_state = (state._stop, state._level, state._near)
            assert original(state, cfg) == got
            assert (state._stop, state._level, state._near) == scan_state
            seen["calls"] += 1
            if not (stop == len(state._n) and level == state._level):
                seen["scans"] += 1
                seen["resumed"] += stop > 0 and level == state._level
                seen["restarted"] += stop > 0 and level != state._level
            return got

        advance = harness.advance_self_pairs

        def counted(state, cfg, last):
            applied = advance(state, cfg, last)
            seen["skipped"] += applied
            return applied

        monkeypatch.setattr(bandit, "_first_guarded", checked)
        monkeypatch.setattr(harness, "advance_self_pairs", counted)
        harness._run_single(matrix, config, horizon, seed)
        return seen

    @pytest.mark.parametrize("make, config, horizon, skipped", [run[1:] for run in RUNS], ids=[run[0] for run in RUNS])
    def test_every_verdict_equals_a_full_scan(self, monkeypatch, make, config, horizon, skipped):
        seen = self.checked_run(monkeypatch, make(), config, horizon, 0)
        assert seen["resumed"] > 0 and seen["restarted"] > 0
        assert seen["calls"] > seen["scans"]  # a scan that passed every pair answers some calls
        assert seen["skipped"] >= skipped

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(2, 6),
        matrix_seed=st.integers(0, 2**32 - 1),
        run_seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(["ecw", "cw"]),
        alpha=st.floats(0.5, 6.0),
        beta=st.floats(0.0, 0.2),
        horizon=st.integers(1, 3_000),
    )
    def test_random_matrices(self, k, matrix_seed, run_seed, variant, alpha, beta, horizon):
        matrix = random_matrix(np.random.default_rng(matrix_seed), k)
        if variant == "cw":
            horizon = min(horizon, 1_000)  # an exact LP per replan
        config = AlgorithmConfig(variant=variant, alpha=alpha, beta=beta)
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.checked_run(monkeypatch, matrix, config, horizon, run_seed)

    # cyclic at t = 2000 with every pair drawn 1000 times: the count level is
    # ceil(3 sqrt(ln 2000)) = 9 and the near-tie band 0.01 / ln ln t ~ 0.0049

    def stopped_at_last_pair(self, cyclic):
        """A state whose guard scan stopped at (4, 3), the last pair, drawn 5 times."""
        cfg = AlgorithmConfig()
        state = converged_state(cyclic)
        set_pair(state, 3, 2, 5, cyclic.values[3, 2])
        assert bandit._first_guarded(state, cfg) == (3, 2)
        assert state._stop == 5
        return state, cfg

    def test_a_draw_before_the_stop_moves_it_back(self, cyclic):
        state, cfg = self.stopped_at_last_pair(cyclic)
        state.wins[1][0], state.wins[0][1], state.muhat[1][0], state.muhat[0][1] = 494, 506, 0.494, 0.506
        state._n[0], state._gap[0] = 1000, abs(0.494 - 0.5)  # as a refresh would, but the stop kept
        assert bandit._first_guarded(state, cfg) == (3, 2) == first_guarded_scan(state, cfg)  # (2, 1) is 0.006 from a tie
        random = AlgorithmConfig(variant="random")  # accepts any pair, never plans
        for _ in range(3):  # three wins of arm 2 take it to 497/1003, inside the band
            update_and_plan(state, random, (2, 1), 1)
        assert state._stop == 0
        assert bandit._first_guarded(state, cfg) == (1, 0) == first_guarded_scan(state, cfg)

    def test_a_new_level_restarts_the_scan(self, cyclic):
        state, cfg = self.stopped_at_last_pair(cyclic)
        state.counts[1][0] = state.counts[0][1] = state._n[0] = 9  # passes level 9, as a refresh would set it
        assert bandit._first_guarded(state, cfg) == (3, 2)
        state.t = 9_000  # 3 sqrt(ln 9000) > 9: the level is 10
        assert bandit._first_guarded(state, cfg) == (1, 0) == first_guarded_scan(state, cfg)

    def test_refresh_resets_the_stop(self, cyclic):
        state, cfg = self.stopped_at_last_pair(cyclic)
        state.counts[1][0] = state.counts[0][1] = 5
        state._refresh()
        assert state._stop == 0
        assert bandit._first_guarded(state, cfg) == (1, 0) == first_guarded_scan(state, cfg)
