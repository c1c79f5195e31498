"""Command-line entry point: bounds, run, datasets, submatrix.

Exit codes: 0 success, 2 validation error, 3 size gate, 4 I/O error.
Numbers are displayed at 3 significant figures; JSON output keeps full
precision.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import core, harness, solvers
from .bandit import DEFAULT_ALPHA, DEFAULT_BETA, AlgorithmConfig
from .errors import DuelbenchError


def _sig3(x: float) -> str:
    if x == 0:
        return "0"
    if not math.isfinite(x):
        return str(x)
    rounded = round(x, 2 - math.floor(math.log10(abs(x))))
    # decimals follow the rounded value, which may have carried into the next power of ten
    decimals = max(0, 2 - math.floor(math.log10(abs(rounded))))
    return f"{rounded:.{decimals}f}"


def _load(args) -> tuple:
    """(matrix, label) from --dataset or --input."""
    if getattr(args, "dataset", None):
        return core.builtin_dataset(args.dataset), args.dataset
    # bytes: load_matrix decodes them, so bad UTF-8 is a parse error
    with open(args.input, "rb") as fh:
        matrix = core.load_matrix(fh, allow_ties=getattr(args, "allow_ties", False))
    label = os.path.splitext(os.path.basename(args.input))[0]
    return matrix, label


def cmd_bounds(args) -> int:
    matrix, label = _load(args)
    summary = core.copeland_summary(matrix)
    winners = sorted(summary.winners)
    gate = solvers.lp_gate(args.k_max)

    lam = lam_winner = None
    if matrix.k <= gate:
        lam, lam_winner = solvers.lower_bound(matrix, k_max=gate)

    best = solvers.ecw_optimal(matrix)
    explicit = solvers.ecw_explicit_bound(matrix, best.winner)
    worstcase = solvers.ecw_worstcase_bound(matrix)
    ccb = solvers.ccb_bound(matrix)
    equal = summary.winner_count >= 2

    if args.json:
        payload = {
            "dataset": label,
            "k": matrix.k,
            "copeland_losses": list(summary.losses),
            "winners": winners,
            "lambda": lam,
            "lambda_winner": lam_winner,
            "lambda_tilde": best.constant,
            "lambda_tilde_winner": best.winner,
            "equal_cw_ecw": equal,
            "ecw_explicit_bound": explicit,
            "ecw_worstcase_bound": worstcase,
            "ccb_bound": ccb,
        }
        if args.rates:
            payload["lambda_tilde_rates"] = best.rates.to_map()
        print(json.dumps(payload, indent=2))
        return 0

    condorcet = "yes" if summary.has_condorcet_winner else "no"
    print(f"dataset: {label}  K={matrix.k}  C={summary.winner_count}  "
          f"L={list(summary.losses)}  Condorcet={condorcet}")
    if lam is None:
        print(f"lambda (exact lower bound)    skipped (K > K_max={gate})")
    else:
        print(f"lambda (exact lower bound)    {_sig3(lam)}   winner {lam_winner}")
    tag = "   equal (C >= 2)" if equal else ""
    print(f"lambda_tilde (ECW constant)   {_sig3(best.constant)}   winner {best.winner}{tag}")
    print(f"ecw_explicit_bound            {_sig3(explicit)}")
    print(f"ecw_worstcase_bound           {_sig3(worstcase)}")
    print(f"ccb_bound                     {_sig3(ccb)}")
    return 0


def cmd_run(args) -> int:
    matrix, label = _load(args)
    config = AlgorithmConfig(
        variant=args.algo,
        alpha=args.alpha,
        beta=args.beta,
        k_max=args.k_max,
    )
    trace = harness.simulate_batch(
        matrix,
        config,
        horizon=args.horizon,
        runs=args.runs,
        master_seed=args.seed,
        parallelism=args.jobs,
        label=label,
    )
    path = args.output or harness.trace_filename(
        label, args.algo, args.horizon, args.runs, args.seed, args.format
    )
    harness.write_trace(trace, path, format=args.format, include_runs=args.include_runs)

    final = trace.mean[-1]
    ecw_const = solvers.ecw_constant(matrix)
    ratio = final / (ecw_const * math.log(args.horizon)) if args.horizon > 1 else float("nan")
    print(f"final mean regret: {_sig3(final)}")
    print(f"ratio to ecw_constant * ln T: {_sig3(ratio)}")
    print(f"trace written: {path}")
    return 0


def cmd_datasets(args) -> int:
    for name in core.BUILTIN_DATASETS:
        matrix = core.builtin_dataset(name)
        summary = core.copeland_summary(matrix, tie_tolerant=matrix.has_ties)
        condorcet = "yes" if summary.has_condorcet_winner else "no"
        ties = "  ties=yes" if matrix.has_ties else ""
        print(
            f"{name} K={matrix.k} C={summary.winner_count} "
            f"L_min={summary.min_loss} Condorcet={condorcet}{ties}"
        )
    return 0


def cmd_submatrix(args) -> int:
    matrix, label = _load(args)
    rng = np.random.default_rng(args.seed)
    sub = core.sample_submatrix(matrix, args.k, args.min_gap, rng)
    path = args.output or f"{label}_sub{args.k}_s{args.seed}.csv"
    core.save_matrix(sub, path)
    print(f"submatrix written: {path}")
    return 0


def _add_source_flags(sub, required: bool = True):
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--dataset", help="built-in dataset name")
    group.add_argument("--input", help="path to a CSV preference matrix")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duelbench",
        description="Copeland dueling bandit workbench",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_bounds = subs.add_parser("bounds", help="regret constants and closed-form bounds")
    _add_source_flags(p_bounds)
    p_bounds.add_argument("--json", action="store_true", help="machine-readable output")
    p_bounds.add_argument("--rates", action="store_true", help="include optimal rates in JSON")
    p_bounds.add_argument("--k-max", type=int, default=None, help="exact-LP size gate override")
    p_bounds.set_defaults(func=cmd_bounds)

    p_run = subs.add_parser("run", help="Monte-Carlo regret simulation")
    _add_source_flags(p_run)
    p_run.add_argument("--algo", required=True, choices=("cw", "ecw", "random"))
    p_run.add_argument("--T", dest="horizon", type=int, required=True, help="number of rounds")
    p_run.add_argument("--runs", type=int, default=100)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p_run.add_argument("--beta", type=float, default=DEFAULT_BETA)
    p_run.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_run.add_argument("--output", help="trace file path (default: derived name in cwd)")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--include-runs", action="store_true", help="per-run columns in CSV")
    p_run.add_argument("--k-max", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_data = subs.add_parser("datasets", help="list built-in preference matrices")
    p_data.set_defaults(func=cmd_datasets)

    p_sub = subs.add_parser("submatrix", help="sample a gap-filtered random submatrix")
    _add_source_flags(p_sub)
    p_sub.add_argument("--k", type=int, required=True, help="arms to keep")
    p_sub.add_argument("--min-gap", type=float, default=0.0)
    p_sub.add_argument("--seed", type=int, default=0)
    p_sub.add_argument("--output", help="output CSV path")
    p_sub.add_argument("--allow-ties", action="store_true", help="tie-tolerant input loading")
    p_sub.set_defaults(func=cmd_submatrix)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DuelbenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a plain OSError is an I/O failure like TraceIOError
        return getattr(exc, "exit_code", 4)


if __name__ == "__main__":
    sys.exit(main())
