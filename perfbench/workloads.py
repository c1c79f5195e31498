"""The four benchmark workloads: their inputs, their calls and the checks on
every output.

A workload is a fixed list of CLI calls, its *items*.  A run makes the whole
list several times over (passes) and keeps, for each item, its fastest time:

* simulation workloads: one call, ``duelbench run --runs 1 --seed 0``;
* ``bounds-k8``: one ``duelbench bounds --json`` call for each of
  ``MATRICES`` K=8 matrices drawn from ``BOUNDS_SEED``.

No input depends on the workload seed.  Cost varies with the inputs far
more than any bound allows: up to 2x per run seed on sushi (more under cw),
and the large LPs of bounds-k8 change their pivot counts with the gap
magnitudes.  So every input is fixed and every output is pinned.

Why these four, and what each one should move, is in README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

#: Master seed of the simulation workloads' run.
SIM_MASTER_SEED = 0

#: Seed of the bounds-k8 matrices: gap signs, then gap magnitudes.
BOUNDS_SEED = 1605
MATRICES = 25
BOUNDS_K = 8
GAP_RANGE = (0.02, 0.45)

#: The K=6 sushi submatrix of cw-replan (fixed, so the LP sizes are fixed).
SUBMATRIX_SEED = 3


@dataclass(frozen=True)
class SimWorkload:
    name: str
    dataset: str  # built-in dataset the input CSV is made from
    algo: str
    horizon: int
    why: str

    kind = "sim"
    reference = "interp"  # run.py's reference kernel for this kind of work

    def items(self) -> int:
        return 1


@dataclass(frozen=True)
class BoundsWorkload:
    name: str
    why: str

    kind = "bounds"
    reference = "pivot"

    def items(self) -> int:
        return MATRICES


WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload(
            "converged", "cyclic", "ecw", horizon=100_000,
            why="cyclic K=4 ecw T=1e5: ~98% self-pair rounds, cost is the bandit guard scan, no LP",
        ),
        SimWorkload(
            "exploring", "sushi", "ecw", horizon=5_000,
            why="sushi K=16 ecw T=5e3: not converged, about half the rounds replan via min_lhs_ecw and _ecw_plan",
        ),
        SimWorkload(
            "cw-replan", "sushi-sub6", "cw", horizon=1_000,
            why="cw on a K=6 sushi submatrix T=1e3: an exact LP in the loop, cost is _cw_lp and the simplex",
        ),
        BoundsWorkload(
            "bounds-k8",
            why="bounds --json on K=8 matrices: few large LPs with a heavy tail, no bandit code",
        ),
    )
}


# ---------------------------------------------------------------------------
# inputs


def sim_input_argv(workload: SimWorkload, work_dir: str):
    """(argv, path): the program's own CLI call that writes the input CSV."""
    if workload.dataset == "sushi-sub6":
        path = os.path.join(work_dir, "sushi_sub6.csv")
        return ["submatrix", "--dataset", "sushi", "--k", "6", "--min-gap", "0.02",
                "--seed", str(SUBMATRIX_SEED), "--output", path], path
    path = os.path.join(work_dir, f"{workload.dataset}.csv")
    # a submatrix with every arm is the whole table
    k = {"cyclic": 4, "sushi": 16}[workload.dataset]
    return ["submatrix", "--dataset", workload.dataset, "--k", str(k), "--output", path], path


def bounds_matrix_csv(signs: np.ndarray, rng: np.random.Generator) -> str:
    """One strict-gap K=8 matrix as CSV; |mu - 1/2| uniform in GAP_RANGE."""
    k = signs.shape[0]
    vals = [[0.5] * k for _ in range(k)]
    for i in range(k):
        for j in range(i):
            gap = float(rng.uniform(*GAP_RANGE))
            mu = 0.5 + gap if signs[i, j] else 0.5 - gap
            vals[i][j] = mu
            vals[j][i] = 1.0 - mu
    return "".join(",".join(repr(v) for v in row) + "\n" for row in vals)


def write_bounds_inputs(work_dir: str) -> list:
    """Write the workload's matrices; return their paths."""
    rng = np.random.default_rng(BOUNDS_SEED)
    # True where the lower-triangle arm wins
    structures = rng.random((MATRICES, BOUNDS_K, BOUNDS_K)) < 0.5
    paths = []
    for i, signs in enumerate(structures):
        path = os.path.join(work_dir, f"m{i:03d}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(bounds_matrix_csv(signs, rng))
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# calls


def sim_argv(workload: SimWorkload, csv_path: str, master_seed: int, out_path: str,
             runs=1, jobs=1):
    return ["run", "--input", csv_path, "--algo", workload.algo,
            "--T", str(workload.horizon), "--runs", str(runs),
            "--seed", str(master_seed), "--jobs", str(jobs), "--output", out_path]


def bounds_argv(csv_path: str):
    return ["bounds", "--input", csv_path, "--json"]


# ---------------------------------------------------------------------------
# checks: each returns None when the output is right, else a reason


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def checkpoint_grid(horizon: int) -> list:
    """Log-spaced checkpoints ceil(10^(k/10)) <= horizon, plus the horizon."""
    grid = {horizon}
    k = 0
    while True:
        v = math.ceil(10.0 ** (k / 10.0))
        if v > horizon:
            break
        grid.add(v)
        k += 1
    return sorted(grid)


def check_trace(data: bytes, workload: SimWorkload, k: int, master_seed: int, pin=None):
    """Check one trace file: against its pinned sha256 when given, else its content."""
    if pin is not None:
        digest = sha256_hex(data)
        return None if digest == pin else f"sha256 {digest[:12]} != pinned {pin[:12]}"
    try:
        trace = json.loads(data)
    except ValueError as exc:
        return f"trace is not JSON: {exc}"
    meta = trace.get("meta", {})
    if (meta.get("horizon"), meta.get("runs"), meta.get("master_seed"), meta.get("variant")) != (
        workload.horizon, 1, master_seed, workload.algo
    ):
        return f"trace meta {meta} does not describe the call"
    grid = checkpoint_grid(workload.horizon)
    if trace.get("checkpoints") != grid:
        return "checkpoints are not the log grid"
    regret = np.asarray(trace.get("runs"), dtype=float)
    if regret.shape != (1, len(grid)):
        return f"runs have shape {regret.shape}"
    # regret is accumulated in integer units of 1/(2(K-1)), never decreases,
    # and grows by at most 1 per round
    units = regret * (2.0 * (k - 1))
    if (np.abs(units - np.round(units)) > 1e-6 * np.maximum(1.0, units)).any():
        return "regret is not a multiple of 1/(2(K-1))"
    if (regret < 0).any() or (np.diff(regret, axis=1) < 0).any():
        return "regret is negative or decreasing"
    if (regret > np.asarray(grid, dtype=float)).any():
        return "regret exceeds one per round"
    if not np.allclose(trace["mean"], regret.mean(axis=0), rtol=1e-12, atol=0.0):
        return "mean does not match the runs"
    if not np.allclose(trace["std"], regret.std(axis=0), rtol=1e-9, atol=1e-12):
        return "std does not match the runs"
    return None


def check_bounds(stdout: str, pin=None):
    """Check one ``bounds --json`` output; ``pin`` is (lambda, lambda_tilde)."""
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        return f"bounds output is not JSON: {exc}"
    lam, tilde = out.get("lambda"), out.get("lambda_tilde")
    if out.get("k") != BOUNDS_K or not all(isinstance(v, (int, float)) for v in (lam, tilde)):
        return f"missing fields in {sorted(out)}"
    if not (0.0 < lam <= tilde * (1.0 + 1e-9)) or not math.isfinite(tilde):
        return f"lambda {lam!r} > lambda_tilde {tilde!r}"
    if out.get("lambda_winner") not in out.get("winners", ()):
        return "lambda_winner is not a Copeland winner"
    if pin is not None:
        for got, want, label in ((lam, pin[0], "lambda"), (tilde, pin[1], "lambda_tilde")):
            if abs(got - want) > 1e-9 * abs(want):
                return f"{label} {got!r} != pinned {want!r}"
    return None


# ---------------------------------------------------------------------------
# pins


def pins_path() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def load_pins() -> dict:
    with open(pins_path(), "r", encoding="utf-8") as fh:
        return json.load(fh)
