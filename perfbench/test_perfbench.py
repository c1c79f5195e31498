"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

@pytest.fixture()
def tiny(monkeypatch):
    """Shrink every workload: runs of T=300, three matrices; no pins."""
    monkeypatch.setattr(wl, "MATRICES", 3)
    monkeypatch.setattr(run.Context, "pin", lambda self, item: None)
    shrunk = {}
    for name, w in wl.WORKLOADS.items():
        if w.kind == "sim":
            shrunk[name] = dataclasses.replace(w, horizon=300)
        else:
            shrunk[name] = w
    monkeypatch.setattr(wl, "WORKLOADS", shrunk)
    return shrunk


def tiny_context(workload, tmp_path):
    ctx = run.Context(workload, str(tmp_path / workload.name))
    ctx.setup()
    return ctx


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"]), m["name"]


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_every_workload_runs_and_traces_at_a_tiny_size(tiny, tmp_path, name):
    ctx = tiny_context(tiny[name], tmp_path)
    setups, passes, refs = run.measure(ctx, seconds=0.01)
    assert len(setups) == len(passes) == run.MIN_PASSES
    assert len(refs) == 1 + run.MIN_PASSES * (1 + tiny[name].items())
    assert all(c.error is None and c.scaled > 0 for calls in passes for c in calls)
    metrics = run.end_to_end(setups, passes)
    assert all(metrics[n] > 0 for n in run.END_TO_END)
    tracer, traced, plain_wall, calls, passes = run.trace(ctx, seconds=0.01)
    assert passes == 1 and len(calls) == 2 * len(traced) == 2 * tiny[name].items()
    assert all(c.error is None for c in calls) and plain_wall > 0
    metrics = run.layer_metrics(tracer, traced, plain_wall, trace_bytes=1)
    assert sorted(metrics) == sorted(run.per_layer_names())
    if tiny[name].kind == "sim":
        assert metrics["bandit.rounds"] == tiny[name].horizon
    else:
        assert metrics["bandit.calls"] == 0 and metrics["solvers.simplex_calls"] > 0


def test_times_are_scaled_by_the_reference_kernel_around_them():
    # the kernel ran at half the reference speed around the call
    assert run.scaled(1.0, 1.5 * run.REFERENCE_S, 2.5 * run.REFERENCE_S) == pytest.approx(0.5)
    for w in wl.WORKLOADS.values():
        assert run.reference_time(run.KERNELS[w.reference]) > 0


def test_traced_pass_alternates_which_call_goes_first(tiny, tmp_path, monkeypatch):
    ctx = tiny_context(tiny["converged"], tmp_path)
    order = []

    def fake_call(ctx, item, tracer=None):
        order.append(tracer is not None)
        return run.Call(1.0, 1, b"", None)

    monkeypatch.setattr(run, "run_call", fake_call)
    for index in range(2):
        run.traced_pass(ctx, index)
    # one call a pass: traced first in pass 0, plain first in pass 1
    assert order == [True, False, False, True]


@pytest.mark.parametrize("name", ["converged", "bounds-k8"])
def test_main_prints_the_result_line_last(tiny, name, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK_ROOT", str(tmp_path))
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "0.01"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_PASSES
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_flipped_byte_fails_the_fingerprint(tiny, tmp_path):
    w = tiny["converged"]
    ctx = tiny_context(w, tmp_path)
    call = run.run_call(ctx, 0)
    assert call.error is None
    pin = wl.sha256_hex(call.output)
    assert wl.check_trace(call.output, w, ctx.k, 0, pin=pin) is None
    flipped = bytearray(call.output)
    flipped[len(flipped) // 2] ^= 0x01
    assert wl.check_trace(bytes(flipped), w, ctx.k, 0, pin=pin) is not None


def test_unpinned_trace_checks_catch_a_changed_regret(tiny, tmp_path):
    w = tiny["exploring"]
    ctx = tiny_context(w, tmp_path)
    call = run.run_call(ctx, 0)
    assert wl.check_trace(call.output, w, ctx.k, 0) is None
    trace = json.loads(call.output)
    trace["runs"][0][-1] += 1.0 / (2 * (ctx.k - 1))
    assert wl.check_trace(json.dumps(trace).encode(), w, ctx.k, 0) is not None


def test_bounds_checks():
    good = json.dumps({"k": 8, "lambda": 10.0, "lambda_tilde": 12.0,
                       "lambda_winner": 2, "winners": [2]})
    assert wl.check_bounds(good) is None
    assert wl.check_bounds(good, pin=(10.0, 12.0)) is None
    assert wl.check_bounds(good, pin=(10.0 * (1 + 1e-8), 12.0)) is not None
    inverted = good.replace('"lambda": 10.0', '"lambda": 13.0')
    assert wl.check_bounds(inverted) is not None


def test_jobs_2_gives_the_same_fingerprint_as_jobs_1(tiny, tmp_path):
    w = tiny["converged"]
    ctx = tiny_context(w, tmp_path)
    digests = []
    for jobs in (1, 2):
        path = str(tmp_path / f"jobs{jobs}.json")
        argv = wl.sim_argv(w, ctx.inputs, 7, path, runs=4, jobs=jobs)
        rc, _, err = run.call_cli(ctx.modules["cli"], argv)
        assert rc == 0, err
        with open(path, "rb") as fh:
            digests.append(wl.sha256_hex(fh.read()))
    assert digests[0] == digests[1]


def test_self_time_is_span_time_minus_child_spans():
    tr = tracing.Tracer()

    def leaf():
        return sum(range(2000))

    inner = tr.wrap("solvers.closed_form", leaf)

    def plan():
        return inner() + inner()

    outer = tr.wrap("solvers.plan", plan)
    for _ in range(2):
        outer()
    plan_calls, plan_total, plan_self = tr.stat("solvers.plan")
    leaf_calls, leaf_total, leaf_self = tr.stat("solvers.closed_form")
    assert (plan_calls, leaf_calls) == (2, 4)
    assert leaf_self == pytest.approx(leaf_total, rel=1e-12)
    # the children's wrapper cost is taken out of the caller's self time too
    assert 0 < plan_self < plan_total - leaf_total
    assert plan_total - leaf_total - plan_self < tr.overhead
    calls, busy, self_s = tr.layer_stats()["solvers"]
    # nested spans of one layer count once towards its busy time
    assert (calls, busy) == (6, pytest.approx(plan_total, rel=1e-12))
    assert self_s == pytest.approx(plan_self + leaf_self, rel=1e-12)
    assert tr.group_busy["planning"] == pytest.approx(plan_total, rel=1e-12)


def test_spans_are_written_with_their_parents(tmp_path):
    tr = tracing.Tracer()
    inner = tr.wrap("core.gap_divergence", lambda: 1)
    outer = tr.wrap("bandit.update_and_plan", lambda: inner())
    outer()
    outer()
    tr.write(str(tmp_path / "spans.npz"))
    spans = np.load(tmp_path / "spans.npz")
    names = list(spans["names"])
    # spans are stored in the order they were entered: outer, inner, outer, inner
    assert [names[i] for i in spans["name"]] == ["bandit.update_and_plan", "core.gap_divergence"] * 2
    assert list(spans["parent"]) == [-1, 0, -1, 2]
    assert (spans["end"] >= spans["start"]).all()
    # each child lies inside its parent
    assert spans["start"][1] >= spans["start"][0] and spans["end"][1] <= spans["end"][0]


def test_a_round_replans_when_it_calls_into_constraints_or_solvers():
    tr = tracing.Tracer()
    budget = tr.wrap("constraints.min_lhs", lambda: 1)
    divergence = tr.wrap("core.gap_divergence", lambda: 1)
    tr.wrap("bandit.update_and_plan", lambda: divergence())()
    tr.wrap("bandit.update_and_plan", lambda: divergence() + budget())()
    assert tr.rounds_replanned == 1


def test_install_and_uninstall_restore_every_name():
    modules = run.import_program()
    before = {(m, a): getattr(modules[m], a) for m, a, _ in tracing.BOUNDARIES}
    tr = tracing.Tracer()
    tr.install(modules)
    assert all(getattr(modules[m], a) is not f for (m, a), f in before.items())
    tr.uninstall()
    assert all(getattr(modules[m], a) is f for (m, a), f in before.items())


def test_pins_cover_every_workload():
    pins = wl.load_pins()
    for name, w in wl.WORKLOADS.items():
        assert len(pins[name]) == w.items()
        if w.kind == "sim":
            assert all(len(h) == 64 for h in pins[name])
        else:
            assert all(lam <= tilde * (1 + 1e-9) for lam, tilde in pins[name])


def test_fails_without_the_program_sources(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "converged", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_pins_match_the_program_at_full_size(tmp_path, name):
    ctx = tiny_context(wl.WORKLOADS[name], tmp_path)
    call = run.run_call(ctx, 0)
    assert call.error is None
