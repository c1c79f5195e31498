"""Monte-Carlo simulation driver with reproducible seeding.

Each run owns an independent RNG stream derived from (master seed, run
index), so a batch aggregates to the same bytes no matter how many
worker processes execute it.  Regret is accumulated in integer units of
1/(2(K-1)) and divided only at checkpoints, which keeps the ledger
exactly equal to sum_pairs r(i,j) * N_ij(T).  Stretches of identical
exploit rounds are applied in one step (``advance_self_pairs``); they
draw no random numbers, so the bytes equal those of stepping each round.
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
from .core import PreferenceMatrix, _copeland_sets, _regret_nums, _write_atomic
from .errors import ParseError, TiedPreferenceError, TraceIOError, ValidationError


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
        return cls(
            checkpoints=tuple(int(c) for c in payload["checkpoints"]),
            runs=tuple(tuple(float(v) for v in row) for row in payload["runs"]),
            mean=tuple(float(v) for v in payload["mean"]),
            std=tuple(float(v) for v in payload["std"]),
            meta=dict(payload["meta"]),
        )


def checkpoint_grid(horizon: int):
    """Log-spaced rounds ceil(10^(k/10)) up to the horizon, horizon included."""
    if horizon < 1:
        raise ValidationError(f"horizon must be at least 1, got {horizon}")
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
    entropy = [int(master_seed) & 0xFFFFFFFFFFFFFFFF, int(run_index)]
    return int(np.random.SeedSequence(entropy).generate_state(2, np.uint64)[0])


def _check_preconditions(matrix: PreferenceMatrix, config: AlgorithmConfig, horizon: int):
    if matrix.has_ties:
        raise TiedPreferenceError("strict gaps required")
    if matrix.k < 2:
        raise ValidationError("simulation needs at least two arms")
    if horizon < 1:
        raise ValidationError(f"horizon must be at least 1, got {horizon}")
    check_size(config, matrix.k)


def _run_single(matrix: PreferenceMatrix, config: AlgorithmConfig, horizon: int, seed: int):
    """One run; returns (checkpoints, regret row, terminal state)."""
    _check_preconditions(matrix, config, horizon)
    k = matrix.k
    vals = matrix.values.tolist()
    _, _, losses, _ = _copeland_sets(matrix.values)
    rnum = _regret_nums(losses)
    denom = 2.0 * (k - 1)
    rng = np.random.default_rng(seed)
    state = RmedState(k)
    grid = checkpoint_grid(horizon)
    row = []
    acc = 0
    is_random = config.variant == "random"
    for last in grid:
        while state.t <= last:
            if is_random:
                l, m = random_baseline_select(rng, k)
            else:
                n = advance_self_pairs(state, config, last)
                if n:
                    h = state.ihat - 1
                    acc += n * rnum[h][h]
                    continue
                l, m = select_pair(state, config)
            if l == m:
                outcome = None
            else:
                outcome = 1 if rng.random() < vals[l - 1][m - 1] else 0
            update_and_plan(state, config, (l, m), outcome)
            acc += rnum[l - 1][m - 1]
        row.append(acc / denom)
    return grid, row, state


def _meta(label, config, horizon, runs, master_seed):
    return {
        "dataset": label or "",
        "variant": config.variant,
        "alpha": config.alpha,
        "beta": config.beta,
        "horizon": horizon,
        "runs": runs,
        "master_seed": master_seed,
    }


def simulate(
    matrix: PreferenceMatrix,
    config: AlgorithmConfig,
    horizon: int,
    run_seed: int,
    label: str | None = None,
) -> RegretTrace:
    """Single run; bit-reproducible for a fixed seed and config."""
    grid, row, _ = _run_single(matrix, config, horizon, run_seed)
    return RegretTrace(
        checkpoints=grid,
        runs=(tuple(row),),
        mean=tuple(row),
        std=tuple(0.0 for _ in row),
        meta=_meta(label, config, horizon, 1, run_seed),
    )


def _batch_worker(args):
    matrix, config, horizon, seed = args
    _, row, _ = _run_single(matrix, config, horizon, seed)
    return row


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
    if runs < 1:
        raise ValidationError(f"need at least one run, got {runs}")
    if parallelism < 1:
        raise ValidationError(f"parallelism must be at least 1, got {parallelism}")
    _check_preconditions(matrix, config, horizon)
    seeds = [split_seed(master_seed, r) for r in range(runs)]
    jobs = [(matrix, config, horizon, s) for s in seeds]
    if parallelism > 1 and runs > 1:
        with ProcessPoolExecutor(max_workers=min(parallelism, runs)) as pool:
            rows = list(pool.map(_batch_worker, jobs))
    else:
        rows = [_batch_worker(job) for job in jobs]
    arr = np.asarray(rows)
    return RegretTrace(
        checkpoints=checkpoint_grid(horizon),
        runs=tuple(tuple(r) for r in rows),
        mean=tuple(float(v) for v in arr.mean(axis=0)),
        std=tuple(float(v) for v in arr.std(axis=0)),
        meta=_meta(label, config, horizon, runs, master_seed),
    )


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


def read_trace(source, format: str = "json") -> RegretTrace:
    """Read a JSON trace back (the lossless format).

    Raises TraceIOError if the source cannot be read and ParseError if it
    is not a JSON trace.
    """
    if format != "json":
        raise ValidationError("only JSON traces can be read back")
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
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"malformed trace ({type(exc).__name__}: {exc})") from None
    _validate_trace(trace)
    return trace
