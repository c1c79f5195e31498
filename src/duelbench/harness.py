"""Monte-Carlo simulation driver with reproducible seeding.

Each run owns an independent RNG stream derived from (master seed, run
index), so a batch aggregates to the same bytes no matter how many
worker processes execute it.  The bandit's draw counts N_ij are the
run's only tally: at each checkpoint the regret is read from them as the
exact integer sum_{i>=j} (L_i + L_j - 2 L_min) N_ij, divided once by
2(K-1).  Stretches of identical exploit rounds are applied in one step
(``advance_self_pairs``); they draw no random numbers, so the bytes
equal those of stepping each round.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bandit import (
    AlgorithmConfig,
    RmedState,
    advance_self_pairs,
    check_size,
    random_baseline_select,
    select_pair,
    update_and_plan,
)
from .core import (
    PreferenceMatrix,
    _check_integer,
    _check_real,
    _copeland_sets,
    _regret_nums,
    _strict_sets,
    _write_atomic,
)
from .errors import ParseError, TraceIOError, ValidationError


@dataclass(frozen=True)
class RegretTrace:
    """Cumulative regret sampled at checkpoints, per run plus aggregate."""

    checkpoints: tuple
    runs: tuple
    mean: tuple
    std: tuple
    meta: dict

    def to_json_dict(self) -> dict:
        return {
            "meta": self.meta,
            "checkpoints": list(self.checkpoints),
            "mean": list(self.mean),
            "std": list(self.std),
            "runs": [list(r) for r in self.runs],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "RegretTrace":
        if not isinstance(payload["meta"], dict):
            raise TypeError("meta must be an object")
        return cls(
            checkpoints=tuple(_check_integer(c, "checkpoint") for c in payload["checkpoints"]),
            runs=tuple(tuple(_check_real(v, "run entry") for v in row) for row in payload["runs"]),
            mean=tuple(_check_real(v, "mean entry") for v in payload["mean"]),
            std=tuple(_check_real(v, "std entry") for v in payload["std"]),
            meta=dict(payload["meta"]),
        )


def checkpoint_grid(horizon: int):
    """Log-spaced rounds ceil(10^(k/10)) up to the horizon, horizon included."""
    horizon = _check_integer(horizon, "horizon", 1)
    grid = {horizon}
    k = 0
    while True:
        v = math.ceil(10.0 ** (k / 10.0))
        if v > horizon:
            break
        grid.add(int(v))
        k += 1
    return tuple(sorted(grid))


def split_seed(master_seed: int, run_index: int) -> int:
    """Deterministic per-run seed, independent across run indices."""
    master_seed = _check_integer(master_seed, "master_seed")
    entropy = [master_seed & 0xFFFFFFFFFFFFFFFF, _check_integer(run_index, "run_index", 0)]
    return int(np.random.SeedSequence(entropy).generate_state(2, np.uint64)[0])


def _check_preconditions(matrix: PreferenceMatrix, config: AlgorithmConfig, horizon: int):
    """The checkpoint grid of a run of ``horizon`` rounds, once the run's inputs are checked."""
    _strict_sets(matrix)
    if matrix.k < 2:
        raise ValidationError("simulation needs at least two arms")
    grid = checkpoint_grid(horizon)
    check_size(config, matrix.k)
    return grid


def _run_single(matrix: PreferenceMatrix, config: AlgorithmConfig, horizon: int, seed: int):
    """One run on checked inputs; returns (checkpoints, regret row, terminal state)."""
    k = matrix.k
    vals = matrix.values.tolist()
    # not matrix._sets: tests/test_benchmark_hooks.py::LIVE requires this call for the tracer
    rnum = _regret_nums(_copeland_sets(vals)[2])
    lower = [(i, j) for i in range(k) for j in range(i + 1)]
    denom = 2.0 * (k - 1)
    rng = np.random.default_rng(seed)
    state = RmedState(k)
    grid = checkpoint_grid(horizon)
    row = []
    is_random = config.variant == "random"
    for last in grid:
        while state.t <= last:
            if is_random:
                l, m = random_baseline_select(rng, k)
            elif advance_self_pairs(state, config, last):
                continue
            else:
                l, m = select_pair(state, config)
            outcome = None if l == m else (1 if rng.random() < vals[l - 1][m - 1] else 0)
            update_and_plan(state, config, (l, m), outcome)
        row.append(sum(rnum[i][j] * state.counts[i][j] for i, j in lower) / denom)
    return grid, row, state


def _batch_worker(args):
    return _run_single(*args)[1]


def _simulate_seeds(matrix, config, horizon, seeds, parallelism, label, master_seed) -> RegretTrace:
    """Check the inputs, make one run per seed and aggregate the rows into a trace."""
    parallelism = _check_integer(parallelism, "parallelism", 1)
    grid = _check_preconditions(matrix, config, horizon)
    jobs = [(matrix, config, grid[-1], s) for s in seeds]
    if parallelism > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(parallelism, len(jobs))) as pool:
            rows = list(pool.map(_batch_worker, jobs))
    else:
        rows = [_batch_worker(job) for job in jobs]
    arr = np.asarray(rows)
    return RegretTrace(
        checkpoints=grid,
        runs=tuple(tuple(r) for r in rows),
        mean=tuple(float(v) for v in arr.mean(axis=0)),
        std=tuple(float(v) for v in arr.std(axis=0)),
        meta={
            "dataset": label or "",
            "variant": config.variant,
            "alpha": config.alpha,
            "beta": config.beta,
            "horizon": grid[-1],
            "runs": len(rows),
            "master_seed": master_seed,
        },
    )


def simulate(
    matrix: PreferenceMatrix,
    config: AlgorithmConfig,
    horizon: int,
    run_seed: int,
    label: str | None = None,
) -> RegretTrace:
    """Single run; bit-reproducible for a fixed seed and config."""
    run_seed = _check_integer(run_seed, "seed", 0)
    return _simulate_seeds(matrix, config, horizon, [run_seed], 1, label, run_seed)


def simulate_batch(
    matrix: PreferenceMatrix,
    config: AlgorithmConfig,
    horizon: int,
    runs: int,
    master_seed: int,
    parallelism: int = 1,
    label: str | None = None,
) -> RegretTrace:
    """Aggregate over independent runs; output is identical for any parallelism."""
    runs = _check_integer(runs, "runs", 1)
    master_seed = _check_integer(master_seed, "master_seed")
    seeds = [split_seed(master_seed, r) for r in range(runs)]
    return _simulate_seeds(matrix, config, horizon, seeds, parallelism, label, master_seed)


# ---------------------------------------------------------------------------
# persistence

CSV_HEADER = "checkpoint,mean_regret,std_regret"


def _validate_trace(trace: RegretTrace):
    n = len(trace.checkpoints)
    if n == 0:
        raise ValidationError("trace has no checkpoints")
    if len(trace.mean) != n or len(trace.std) != n:
        raise ValidationError("aggregate length does not match checkpoints")
    if not trace.runs or any(len(r) != n for r in trace.runs):
        raise ValidationError("per-run rows do not match checkpoints")
    if list(trace.checkpoints) != sorted(set(trace.checkpoints)):
        raise ValidationError("checkpoints must be strictly increasing")
    if trace.checkpoints[0] < 1:
        raise ValidationError(f"checkpoints must be at least 1, got {trace.checkpoints[0]}")


def trace_filename(dataset: str, variant: str, horizon: int, runs: int, seed: int, fmt: str) -> str:
    return f"{dataset}_{variant}_T{horizon}_r{runs}_s{seed}.{fmt}"


def write_trace(trace: RegretTrace, sink, format: str = "json", include_runs: bool = False) -> None:
    """Serialize a trace; JSON round-trips losslessly, CSV is aggregate-only.

    ``sink`` is a writable text stream, or a path that is written atomically.
    """
    _validate_trace(trace)
    if format == "json":
        text = json.dumps(trace.to_json_dict(), indent=2) + "\n"
    elif format == "csv":
        header = CSV_HEADER
        if include_runs:
            header += "".join(f",run_{r + 1}" for r in range(len(trace.runs)))
        lines = [header]
        for idx, cp in enumerate(trace.checkpoints):
            cells = [str(cp), repr(trace.mean[idx]), repr(trace.std[idx])]
            if include_runs:
                cells.extend(repr(run[idx]) for run in trace.runs)
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    else:
        raise ValidationError(f"unsupported trace format: {format!r}")
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        _write_atomic(text, sink)


def read_trace(source) -> RegretTrace:
    """Read a JSON trace back (the lossless format).

    Raises TraceIOError if the source cannot be read and ParseError if it
    is not a JSON trace, including one whose arrays do not line up.
    """
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            # bytes: json.loads decodes them, so bad UTF-8 is a parse error
            with open(source, "rb") as fh:
                text = fh.read()
    except OSError as exc:
        raise TraceIOError(f"cannot read trace from {source}: {exc}") from exc
    try:
        trace = RegretTrace.from_json_dict(json.loads(text))
        _validate_trace(trace)  # its ValidationError is a ValueError
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ParseError(f"malformed trace ({type(exc).__name__}: {exc})") from None
    return trace
