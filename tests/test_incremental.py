"""The bandit's caches, kept up to date draw by draw, equal a full rebuild.

``harness._run_single`` lets ``RmedState`` rewrite only the drawn pairs'
divergences and weights and drop only the cached pieces that read them,
or replace the ``GroupCache`` when the Copeland sets move;
``oracles.run_rebuilt`` rebuilds every cache from the tallies before each
guard scan and plan.  Their rows and terminal states must match exactly.
The full rebuild runs once per run, when the state is made.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duelbench import (
    AlgorithmConfig,
    PreferenceMatrix,
    RmedState,
    builtin_dataset,
    simulate_batch,
    update_and_plan,
)
from duelbench.constraints import GroupCache, iter_pairs, min_lhs_cw
from duelbench.core import _copeland_sets, gap_divergence, sample_submatrix
from duelbench import bandit
from duelbench.harness import _run_single
from duelbench.solvers import _ecw_plan
from conftest import random_matrix
from oracles import assert_caches_match_a_rebuild, ecw_plan_dense, run_rebuilt
from test_self_pairs import snapshot


def assert_same_as_rebuilt(matrix, config, horizon, seed):
    grid, row, state = _run_single(matrix, config, horizon, seed)
    ref_grid, ref_row, ref_state = run_rebuilt(matrix, config, horizon, seed)
    assert grid == ref_grid
    assert row == ref_row
    assert snapshot(state) == snapshot(ref_state)
    assert_caches_match_a_rebuild(state, config.variant)


class TestKeptEqualsRebuilt:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sushi_ecw(self, seed):
        assert_same_as_rebuilt(builtin_dataset("sushi"), AlgorithmConfig(), 3_000, seed)

    def test_mslr5_noncondorcet_ecw(self):
        matrix = builtin_dataset("mslr5_noncondorcet")
        assert_same_as_rebuilt(matrix, AlgorithmConfig(), 20_000, 0)

    def test_sushi_submatrix_cw(self):
        matrix = sample_submatrix(builtin_dataset("sushi"), 6, 0.02, 3)
        assert_same_as_rebuilt(matrix, AlgorithmConfig(variant="cw"), 1_000, 0)

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(2, 6),
        matrix_seed=st.integers(0, 2**32 - 1),
        run_seed=st.integers(0, 2**32 - 1),
        variant=st.sampled_from(["ecw", "cw"]),
        alpha=st.floats(0.5, 6.0),
        beta=st.floats(0.0, 0.2),
        horizon=st.integers(1, 4_000),
    )
    def test_random_matrices(self, k, matrix_seed, run_seed, variant, alpha, beta, horizon):
        matrix = random_matrix(np.random.default_rng(matrix_seed), k)
        if variant == "cw":
            horizon = min(horizon, 1_500)  # an exact LP per replan
        config = AlgorithmConfig(variant=variant, alpha=alpha, beta=beta)
        assert_same_as_rebuilt(matrix, config, horizon, run_seed)


def log_disagreements(max_n):
    """Estimates w/n (0 < w < n <= max_n, w/n != 1/2) where numpy's vector
    log (on its AVX-512 path, where the host has one) differs from
    math.log in the last bit: the values a change back to numpy's log
    would move."""
    ests = np.array([w / n for n in range(2, max_n + 1) for w in range(1, n) if 2 * w != n])
    vec_lo, vec_hi = np.log(2.0 * ests), np.log(2.0 * (1.0 - ests))
    return [
        float(p)
        for p, lo, hi in zip(ests, vec_lo, vec_hi)
        if math.log(2.0 * p) != lo or math.log(2.0 * (1.0 - p)) != hi
    ]


def fractions(p, max_n):
    """(wins, draws) of the first w/n equal to p."""
    for n in range(2, max_n + 1):
        w = round(p * n)
        if w / n == p:
            return w, n
    raise AssertionError(p)


class TestDivergenceBits:
    """The per-draw path and the rebuild both take libm's log, so the drawn
    divergences are the rebuilt bits; the estimates are chosen where
    numpy's AVX-512 log differs from libm's."""

    def test_drawn_divergences_are_the_rebuilt_bits(self):
        # on hosts whose math.log and numpy log agree everywhere these
        # estimates are ordinary ones, and the check still holds
        max_n, k = 120, 6
        chosen = (log_disagreements(max_n) or [w / 7 for w in range(1, 7)])[:60]
        cfg = AlgorithmConfig(variant="random")  # accepts any pair, never plans
        pairs = [(i, j) for i in range(k) for j in range(i)]
        for start in range(0, len(chosen), len(pairs)):
            state = RmedState(k)
            targets = [fractions(p, max_n) for p in chosen[start : start + len(pairs)]]
            # one draw puts each estimate on its final side of 1/2 ...
            for (i, j), (w, n) in zip(pairs, targets):
                update_and_plan(state, cfg, (i + 1, j + 1), int(2 * w > n))
            state._update()
            groups = state._groups
            # ... so the remaining draws take the per-draw path, not a rebuild
            for (i, j), (w, n) in zip(pairs, targets):
                won = int(2 * w > n)
                for outcome in [1] * (w - won) + [0] * (n - 1 - (w - won)):
                    update_and_plan(state, cfg, (i + 1, j + 1), outcome)
            state._update()
            assert state._groups is groups
            for (i, j), (w, n) in zip(pairs, targets):
                assert state.muhat[i][j] == w / n
            assert state._div == gap_divergence(state.muhat).tolist()
            counts = np.array(state.counts, dtype=float)
            assert state._weights == (counts * gap_divergence(state.muhat)).tolist()


def regular_tournament(k):
    """Odd K: arm i beats the next K // 2 arms (mod K), so every arm is a winner."""
    vals = np.full((k, k), 0.5)
    for i in range(k):
        for step in range(1, k // 2 + 1):
            j = (i + step) % k
            vals[i, j] = 0.5 + 0.05 * step + 0.01 * i
            vals[j, i] = 1.0 - vals[i, j]
    return PreferenceMatrix(vals)


def plan_bits(plan):
    entries, constant = plan
    return [(p, x.hex()) for p, x in entries], constant.hex()


class TestGroupCacheDrop:
    # (matrix, winner i1, pin partner j of i1, arm i2 that j beats, pieces kept)
    # sushi has a Condorcet winner, so no relaxed rival and no piece
    CASES = [(builtin_dataset("sushi"), 0, 3, 4, 0), (regular_tournament(7), 0, 1, 4, 4)]

    @pytest.mark.parametrize("matrix, i1, j, i2, kept", CASES, ids=["sushi", "tournament7"])
    def test_a_draw_drops_only_its_two_arms(self, matrix, i1, j, i2, kept):
        sets = _copeland_sets(matrix.values)
        div = gap_divergence(matrix.values).tolist()
        assert j in sets[1][i1] and j in sets[0][i2]
        groups = GroupCache(sets)
        for winner in groups.winners:
            min_lhs_cw(groups, winner, div)  # the column of every rival
            _ecw_plan(groups, div, winner)  # the pieces of every relaxed rival
        columns = dict(groups.columns)
        pieces = {a: dict(per_winner) for a, per_winner in groups.pieces.items()}
        before = plan_bits(_ecw_plan(groups, div, i1))
        for a, b in ((j, i1), (j, i2)):  # a pin pair, then a pair of i2's column
            div[a][b] *= 1.5
            div[b][a] *= 1.5
            groups.drop(a, b)
        gone = {j, i1, i2}
        assert groups.columns.keys() == columns.keys() - gone
        assert all(groups.columns[a] is columns[a] for a in groups.columns)
        assert groups.pieces.keys() == pieces.keys() - gone
        assert len(groups.pieces) == kept
        for a, per_winner in groups.pieces.items():
            assert per_winner.keys() == pieces[a].keys()
            assert all(per_winner[w] is pieces[a][w] for w in per_winner)
        assert plan_bits(_ecw_plan(groups, div, i1)) != before
        for winner in groups.winners:
            fresh = GroupCache(sets)
            assert plan_bits(_ecw_plan(groups, div, winner)) == plan_bits(_ecw_plan(fresh, div, winner))


class TestSparsePlan:
    """At every replan, _ecw_plan's entries are the nonzero rates of the dense plan, in order.

    The bandit keeps a plan as (pair index, rate) entries of its nonzero
    rates, in the order the constant sums them.  The reference sums one
    rate per pair with no cached piece (``oracles.ecw_plan_dense``).  The
    pair indices must not repeat: the pins touch the winner, and each
    rival's piece only the pairs it loses.
    """

    RUNS = [("sushi", lambda: builtin_dataset("sushi")), ("tournament7", lambda: regular_tournament(7))]

    @pytest.mark.parametrize("make", [run[1] for run in RUNS], ids=[run[0] for run in RUNS])
    def test_every_plan_is_the_dense_plans_nonzero_rates(self, monkeypatch, make):
        # both runs plan for relaxed rivals at some replans, so pieces follow the pins
        original = bandit._ecw_plan
        seen = {"calls": 0, "pieces": 0}

        def checked(groups, div, i1):
            entries, constant = original(groups, div, i1)
            sets = (groups.sup, groups.inf, groups.losses, groups.winners)
            q, order, expected = ecw_plan_dense(sets, div, i1)
            assert len(set(order)) == len(order)
            assert [p for p, x in enumerate(q) if x] == sorted(order)
            assert entries == [(p, q[p]) for p in order]
            assert constant.hex() == expected.hex()
            seen["calls"] += 1
            seen["pieces"] += len(entries) > len(groups.inf[i1])
            return entries, constant

        monkeypatch.setattr(bandit, "_ecw_plan", checked)
        simulate_batch(make(), AlgorithmConfig(variant="ecw"), 3_000, runs=1, master_seed=0)
        assert seen["calls"] > 100 and seen["pieces"] > 0


def bits(rows):
    return [[x.hex() for x in row] for row in rows]


class TestCopelandChange:
    def test_a_crossing_draw_replaces_only_the_group_cache(self, monkeypatch):
        cfg = AlgorithmConfig(variant="random")  # accepts any pair, never plans
        state = RmedState(4)
        for (i, j), outcome in zip(iter_pairs(4), [1, 0, 1, 1, 0, 1]):
            update_and_plan(state, cfg, (i + 1, j + 1), outcome)
        update_and_plan(state, cfg, (2, 1), 1)  # arm 2 beats arm 1 in 2 of 2
        state._update()
        groups = state._groups
        assert 0 in groups.inf[1]
        for i1 in groups.winners:
            state._budget(i1, "ecw")
        assert state._budgets and state._planned("ecw") is not None
        refreshes = []
        monkeypatch.setattr(RmedState, "_refresh", lambda self: refreshes.append(self))
        for _ in range(3):
            update_and_plan(state, cfg, (2, 1), 0)  # 2 of 5: arm 1 now beats arm 2
        state._update()
        assert state._groups is not groups
        assert state._budgets == {} and state._plan is None
        assert refreshes == []
        monkeypatch.undo()
        assert 0 in state._groups.sup[1]
        div = gap_divergence(state.muhat)
        assert bits(state._div) == bits(div.tolist())
        assert bits(state._weights) == bits((np.array(state.counts, dtype=float) * div).tolist())
        assert_caches_match_a_rebuild(state, "ecw")

    def test_one_full_rebuild_per_run(self, monkeypatch):
        # the exploring benchmark's call: sushi ecw T=5e3 moves the Copeland
        # sets 15 times, and each move replaces only the GroupCache
        refreshes, caches = [], []
        refresh, cache = RmedState._refresh, bandit.GroupCache
        monkeypatch.setattr(RmedState, "_refresh", lambda self: refreshes.append(1) or refresh(self))
        monkeypatch.setattr(bandit, "GroupCache", lambda sets: caches.append(1) or cache(sets))
        sushi = builtin_dataset("sushi")
        simulate_batch(sushi, AlgorithmConfig(variant="ecw"), 5_000, runs=1, master_seed=0)
        assert len(refreshes) == 1
        assert len(caches) == 16
