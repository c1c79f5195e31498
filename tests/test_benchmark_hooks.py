"""The names the benchmark's tracer wraps must exist in the program.

``perfbench/tracer.py`` replaces module attributes such as
``duelbench.harness.select_pair`` with timing wrappers.  A refactor that
renames or drops one of them would otherwise fail only the benchmark's
own suite, which is run separately from this one.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BOUNDARIES


BOUNDARIES = _boundaries()


def test_boundaries_listed():
    assert len(BOUNDARIES) > 0


@pytest.mark.parametrize(
    "module,attr", [(module, attr) for module, attr, _ in BOUNDARIES]
)
def test_boundary_names_a_callable(module, attr):
    target = importlib.import_module(f"duelbench.{module}")
    assert callable(getattr(target, attr, None)), f"duelbench.{module}.{attr}"


LIVE = [
    ("harness", "select_pair"),
    ("harness", "update_and_plan"),
    ("harness", "_copeland_sets"),
    ("harness", "_regret_nums"),
    ("bandit", "gap_divergence"),  # construction's; a draw takes gap_divergences
    ("bandit", "min_lhs_ecw"),
    ("bandit", "min_lhs_cw"),
    ("bandit", "_ecw_plan"),
    ("bandit", "_cw_lp"),
    ("solvers", "_iter_cw_descriptors"),
    ("solvers", "simplex_solve"),
]


def test_boundaries_are_called_through_module_globals(monkeypatch, cyclic):
    # a caller that captured one of these names at import time would bypass
    # the tracer's wrapper, and that layer's spans would read zero
    assert set(LIVE) <= {(module, attr) for module, attr, _ in BOUNDARIES}
    calls = dict.fromkeys(LIVE, 0)

    def counting(key, original):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        return wrapper

    for module, attr in LIVE:
        target = importlib.import_module(f"duelbench.{module}")
        monkeypatch.setattr(target, attr, counting((module, attr), getattr(target, attr)))
    from duelbench import AlgorithmConfig, lower_bound, simulate

    for variant in ("cw", "ecw"):
        simulate(cyclic, AlgorithmConfig(variant=variant), 200, 0)
    lower_bound(cyclic)
    assert all(calls.values()), calls


#: The names ``cli`` calls in the layers below it.
CLI_LIVE = [
    ("core", "load_matrix"),
    ("core", "copeland_summary"),
    ("solvers", "lower_bound"),
    ("solvers", "ecw_optimal"),
    ("solvers", "ecw_explicit_bound"),
    ("solvers", "ecw_worstcase_bound"),
    ("solvers", "ccb_bound"),
    ("solvers", "ecw_constant"),
    ("harness", "simulate_batch"),
    ("harness", "write_trace"),
]


def test_cli_boundaries_are_called_through_module_globals(monkeypatch, tmp_path, cyclic):
    # the benchmark drives cli.main; a cli that bound one of these names at
    # import time would empty that name's spans
    from duelbench.cli import main
    from duelbench.core import save_matrix

    assert set(CLI_LIVE) <= {(module, attr) for module, attr, _ in BOUNDARIES}
    calls = dict.fromkeys(CLI_LIVE, 0)

    def counting(key, original):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        return wrapper

    path = tmp_path / "cyclic.csv"
    save_matrix(cyclic, path)
    for module, attr in CLI_LIVE:
        target = importlib.import_module(f"duelbench.{module}")
        monkeypatch.setattr(target, attr, counting((module, attr), getattr(target, attr)))
    assert main(["bounds", "--input", str(path), "--json"]) == 0
    assert main([
        "run", "--input", str(path), "--algo", "ecw", "--T", "200", "--runs", "1",
        "--output", str(tmp_path / "trace.json"),
    ]) == 0
    assert all(calls.values()), calls
