"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The statistical criteria use fixed master seeds, so
the whole suite is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import random_matrix, random_rates, random_tied_winner_matrix
from duelbench import (
    AlgorithmConfig,
    SubproblemInstance,
    builtin_dataset,
    check_feasible,
    copeland_summary,
    cw_constraints,
    ecw_constant,
    ecw_constraints,
    ecw_optimal,
    gap_divergence,
    lp_cw_optimal,
    simplex_solve,
    simulate_batch,
    solve_subproblem,
)
from duelbench.cli import main as cli_main
from duelbench.core import _copeland_sets
from oracles import feasible_brute, subset_lp_rows

MASTER_SEED = 20240601


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def cyclic_matrix():
    return builtin_dataset("cyclic")


@pytest.fixture(scope="module")
def ecw_cyclic_1e5(cyclic_matrix):
    cfg = AlgorithmConfig(variant="ecw", alpha=3.0, beta=0.01)
    t0 = time.perf_counter()
    trace = simulate_batch(
        cyclic_matrix, cfg, 100_000, runs=50, master_seed=MASTER_SEED, parallelism=2
    )
    return trace, time.perf_counter() - t0


@pytest.fixture(scope="module")
def random_cyclic_1e5(cyclic_matrix):
    cfg = AlgorithmConfig(variant="random")
    t0 = time.perf_counter()
    trace = simulate_batch(
        cyclic_matrix, cfg, 100_000, runs=50, master_seed=MASTER_SEED + 1, parallelism=2
    )
    return trace, time.perf_counter() - t0


def test_criterion_1_golden_constants(capsys):
    t0 = time.perf_counter()
    code = cli_main(["bounds", "--dataset", "cyclic", "--json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    payload = json.loads(out)
    lam = payload["lambda"]
    tilde = payload["lambda_tilde"]
    ccb = payload["ccb_bound"]

    code2 = cli_main(["bounds", "--dataset", "cyclic"])
    display = capsys.readouterr().out

    ok = (
        code == 0
        and code2 == 0
        and abs(lam - 27.55) <= 0.2
        and abs(tilde - 49.66) <= 0.05
        and "1600" in display
        and abs(ccb - 1600.0) <= 1e-12 * 1600.0
        and elapsed < 1.0
    )
    with capsys.disabled():
        assert report(
            1,
            ok,
            f"lambda={lam:.4f} (27.55±0.2), lambda_tilde={tilde:.4f} (49.66±0.05), "
            f"ccb={ccb!r} (reported 1600), {elapsed:.2f}s < 1s",
        )


def test_criterion_2_subproblem_oracle_equivalence(capsys):
    rng = np.random.default_rng(MASTER_SEED + 2)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 8))
        slack = int(rng.integers(0, n))
        costs = tuple(rng.uniform(0.0, 10.0, n).tolist())
        _, fast_obj = solve_subproblem(SubproblemInstance(costs, slack))
        rows = subset_lp_rows(n, slack)
        _, lp_obj = simplex_solve(np.array(costs), rows, np.ones(n))
        denom = max(abs(lp_obj), 1e-12)
        worst = max(worst, abs(fast_obj - lp_obj) / denom)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 30.0
    with capsys.disabled():
        assert report(
            2, ok, f"500 instances, worst relative gap {worst:.2e} <= 1e-7, {elapsed:.1f}s < 30s"
        )


def test_criterion_3_relaxation_properties(capsys):
    rng = np.random.default_rng(MASTER_SEED + 3)
    t0 = time.perf_counter()
    inequality_ok = True
    for _ in range(200):
        k = int(rng.integers(3, 6))
        m = random_matrix(rng, k)
        _, _, losses, _ = _copeland_sets(m.values)
        low = min(losses)
        for i1 in range(1, k + 1):
            if losses[i1 - 1] != low:
                continue
            tilde = ecw_optimal(m, i1).constant
            exact = lp_cw_optimal(m, i1).constant
            if tilde < exact - 1e-9:
                inequality_ok = False

    equality_ok = True
    tied = [builtin_dataset("multisol")] + [
        random_tied_winner_matrix(rng, int(rng.integers(4, 6))) for _ in range(20)
    ]
    for m in tied:
        _, _, losses, _ = _copeland_sets(m.values)
        low = min(losses)
        for i1 in range(1, m.k + 1):
            if losses[i1 - 1] != low:
                continue
            tilde = ecw_optimal(m, i1).constant
            exact = lp_cw_optimal(m, i1).constant
            if abs(tilde - exact) > 1e-6 * max(exact, 1e-12):
                equality_ok = False
    elapsed = time.perf_counter() - t0
    ok = inequality_ok and equality_ok and elapsed < 300.0
    with capsys.disabled():
        assert report(
            3,
            ok,
            f"inequality on 200 matrices: {inequality_ok}, equality on multisol+20 tied: "
            f"{equality_ok}, {elapsed:.1f}s < 300s",
        )


def test_criterion_4_feasibility_cross_check(capsys):
    rng = np.random.default_rng(MASTER_SEED + 4)
    agree = True
    for _ in range(100):
        k = int(rng.integers(2, 7))
        m = random_matrix(rng, k)
        vals = m.values.tolist()
        _, _, losses, _ = _copeland_sets(m.values)
        i1 = losses.index(min(losses)) + 1
        rv = random_rates(rng, k, scale=float(rng.uniform(5, 150)))
        weights = (rv.as_matrix() * gap_divergence(m.values)).tolist()
        fast_cw = check_feasible(cw_constraints(m, i1), rv, m)
        fast_ecw = check_feasible(ecw_constraints(m, i1), rv, m)
        if fast_cw != feasible_brute(vals, i1 - 1, weights, "cw"):
            agree = False
        if fast_ecw != feasible_brute(vals, i1 - 1, weights, "ecw"):
            agree = False
    with capsys.disabled():
        assert report(4, agree, "sorted fast path == brute force on 100 instances (cw and ecw)")


def test_criterion_5_copeland_summaries(capsys):
    losses_ok = (
        copeland_summary(builtin_dataset("cyclic")).losses == (0, 2, 2, 2)
        and copeland_summary(builtin_dataset("gap")).losses == (1, 2, 2, 3, 2)
        and copeland_summary(builtin_dataset("multisol")).losses == (1, 1, 1, 3, 4)
    )
    sushi = copeland_summary(builtin_dataset("sushi"))
    sushi_ok = sushi.losses[0] == 0 and sushi.winners == frozenset({1})
    ok = losses_ok and sushi_ok
    with capsys.disabled():
        assert report(
            5, ok, "L vectors for cyclic/gap/multisol and sushi Condorcet winner at arm 1"
        )


def test_criterion_6_statistical_regret(capsys, cyclic_matrix, ecw_cyclic_1e5, random_cyclic_1e5):
    ecw_trace, ecw_secs = ecw_cyclic_1e5
    rnd_trace, rnd_secs = random_cyclic_1e5
    tilde = ecw_constant(cyclic_matrix)
    horizon = 100_000

    final_mean = ecw_trace.mean[-1]
    budget = 2.5 * tilde * math.log(horizon)
    bound_ok = final_mean <= budget

    random_final = rnd_trace.mean[-1]
    ratio_ok = final_mean <= random_final / 5.0

    idx4 = ecw_trace.checkpoints.index(10_000)
    u = np.array([row[idx4] for row in ecw_trace.runs]) / math.log(10_000)
    v = np.array([row[-1] for row in ecw_trace.runs]) / math.log(100_000)
    diff = v - u
    se = float(np.std(diff, ddof=1) / math.sqrt(len(diff)))
    slope_ok = float(np.mean(v)) <= float(np.mean(u)) + se

    elapsed = ecw_secs + rnd_secs
    time_ok = elapsed < 120.0
    ok = bound_ok and ratio_ok and slope_ok and time_ok
    with capsys.disabled():
        assert report(
            6,
            ok,
            f"ECW mean R(1e5)={final_mean:.1f} <= {budget:.0f}, "
            f"<= random/5 ({random_final:.0f}/5), slope non-increasing "
            f"({np.mean(u):.2f} -> {np.mean(v):.2f}, se={se:.2f}), "
            f"{elapsed:.0f}s < 120s",
        )


def test_criterion_7_cw_desk_scale(capsys, cyclic_matrix, ecw_cyclic_1e5):
    cfg = AlgorithmConfig(variant="cw", alpha=3.0, beta=0.01)
    trace = simulate_batch(
        cyclic_matrix, cfg, 10_000, runs=20, master_seed=MASTER_SEED + 7, parallelism=2
    )
    cw_mean = trace.mean[-1]
    ecw_trace, _ = ecw_cyclic_1e5
    idx4 = ecw_trace.checkpoints.index(10_000)
    ecw_mean = ecw_trace.mean[idx4]
    ok = cw_mean <= 2.0 * ecw_mean
    with capsys.disabled():
        assert report(
            7, ok, f"CW mean R(1e4)={cw_mean:.1f} <= 2 x ECW mean ({ecw_mean:.1f}) at 1e4"
        )


def test_criterion_8_run_determinism(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = [
        "run", "--dataset", "cyclic", "--algo", "ecw",
        "--T", "3000", "--runs", "8", "--seed", "11",
    ]
    codes = [
        cli_main(base + ["--output", "a.json"]),
        cli_main(base + ["--output", "b.json"]),
        cli_main(base + ["--output", "c.json", "--jobs", "8"]),
    ]
    capsys.readouterr()
    blobs = [(tmp_path / name).read_bytes() for name in ("a.json", "b.json", "c.json")]
    ok = codes == [0, 0, 0] and blobs[0] == blobs[1] == blobs[2]
    with capsys.disabled():
        assert report(8, ok, "repeated runs and jobs 1 vs 8 give byte-identical traces")


def test_criterion_9_random_baseline_calibration(capsys, cyclic_matrix):
    cfg = AlgorithmConfig(variant="random")
    trace = simulate_batch(
        cyclic_matrix, cfg, 10_000, runs=100, master_seed=MASTER_SEED + 9, parallelism=2
    )
    mean = trace.mean[-1]
    ok = abs(mean - 5000.0) <= 150.0
    with capsys.disabled():
        assert report(9, ok, f"random mean R(1e4)={mean:.1f} within 5000 +/- 150")
