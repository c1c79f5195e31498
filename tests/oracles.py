"""Independent brute-force evaluators used as test oracles.

Everything here re-derives the constraint families directly from their
set-quantified definitions with plain itertools enumeration, without
touching the library's sorted fast paths or descriptor generators.
Intended for K <= 6.  ``run_per_round`` is the simulation loop stepped one
round at a time, the reference for the harness's stretch skipping.
"""

import itertools
import math

import numpy as np

from duelbench.bandit import RmedState, random_baseline_select, select_pair, update_and_plan
from duelbench.core import _copeland_sets, _regret_nums
from duelbench.harness import _check_preconditions, checkpoint_grid


def sign_sets(values):
    """(superiors, inferiors, losses), 0-based, ties in neither set."""
    k = len(values)
    sup = [
        sorted(j for j in range(k) if j != i and values[i][j] < 0.5) for i in range(k)
    ]
    inf_ = [
        sorted(j for j in range(k) if j != i and values[i][j] > 0.5) for i in range(k)
    ]
    losses = [len(s) for s in sup]
    return sup, inf_, losses


def _pair(a, b):
    return (a, b) if a > b else (b, a)


def cw_pair_sets(values, i1):
    """Every P_IS of the full family for 0-based winner candidate i1."""
    sup, inf_, losses = sign_sets(values)
    k = len(values)
    ordered = sorted(losses)
    if k < 2:
        return []
    out = []
    for i2 in range(k):
        if i2 == i1:
            continue
        source = [j for j in sup[i2] if j != i1]
        for level in range(max(0, ordered[0] - 1), ordered[1] + 1):
            need_i = level + 1 - losses[i1]
            if need_i < 0:
                continue
            for iset in itertools.combinations(inf_[i1], need_i):
                need_s = max(0, losses[i2] - level - (1 if i2 in iset else 0))
                if need_s > len(source):
                    continue
                for sset in itertools.combinations(source, need_s):
                    pairs = {_pair(i1, j) for j in iset} | {_pair(i2, j) for j in sset}
                    out.append(frozenset(pairs))
    return out


def ecw_pair_sets(values, i1):
    """(pin pairs, subset-constraint pair sets) of the relaxed family."""
    sup, inf_, losses = sign_sets(values)
    k = len(values)
    pins = [_pair(i1, j) for j in inf_[i1]]
    out = []
    for i2 in range(k):
        if i2 == i1:
            continue
        need = losses[i2] - losses[i1] + 1
        source = [j for j in sup[i2] if j != i1]
        if need > len(source):
            continue
        for sset in itertools.combinations(source, need):
            out.append(frozenset(_pair(i2, j) for j in sset))
    return pins, out


def min_lhs_brute(pair_sets, weights):
    """Minimum constraint left side over explicit pair sets, +inf if none."""
    best = math.inf
    for pairs in pair_sets:
        lhs = sum(weights[i][j] for i, j in pairs)
        if lhs < best:
            best = lhs
    return best


def feasible_brute(values, i1, weights, kind, tol=1e-12):
    """Brute-force membership test matching check_feasible's one-sided reading."""
    if kind == "cw":
        low = min_lhs_brute(cw_pair_sets(values, i1), weights)
    else:
        pins, sets = ecw_pair_sets(values, i1)
        low = min(
            min_lhs_brute(sets, weights),
            min((weights[i][j] for i, j in pins), default=math.inf),
        )
    return low >= 1.0 - tol


def subset_lp_rows(n, slack):
    """Constraint rows of the enumerated subset program: every (n-slack)-subset."""
    rows = []
    for subset in itertools.combinations(range(n), n - slack):
        row = [0.0] * n
        for j in subset:
            row[j] = 1.0
        rows.append(row)
    return rows


def subset_solution_feasible(y, slack, tol=1e-9):
    """Every (n - slack)-subset of y sums to at least 1."""
    n = len(y)
    return all(
        sum(y[j] for j in subset) >= 1.0 - tol
        for subset in itertools.combinations(range(n), n - slack)
    )


def run_per_round(matrix, config, horizon, seed):
    """Reference simulation loop: every round through select_pair/update_and_plan.

    Same contract as ``harness._run_single`` (checkpoints, regret row,
    terminal state), without applying any stretch of rounds in one step.
    """
    _check_preconditions(matrix, config, horizon)
    k = matrix.k
    vals = matrix.values.tolist()
    _, _, losses, _ = _copeland_sets(matrix.values)
    rnum = _regret_nums(losses)
    rng = np.random.default_rng(seed)
    state = RmedState(k)
    grid = checkpoint_grid(horizon)
    row = []
    cp_idx = 0
    acc = 0
    for t in range(1, horizon + 1):
        if config.variant == "random":
            l, m = random_baseline_select(rng, k)
        else:
            l, m = select_pair(state, config)
        outcome = None if l == m else (1 if rng.random() < vals[l - 1][m - 1] else 0)
        state._guard = None  # update_and_plan rescans the guards itself
        update_and_plan(state, config, (l, m), outcome)
        acc += rnum[l - 1][m - 1]
        if t == grid[cp_idx]:
            row.append(acc / (2.0 * (k - 1)))
            cp_idx += 1
    return grid, row, state
