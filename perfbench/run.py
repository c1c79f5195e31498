"""duelbench benchmark: one workload per run, end-to-end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload converged --seed 0 --seconds 30 --trace 0

``--trace 0`` makes whole passes over the workload's calls for about
``--seconds`` seconds, setting up afresh before each pass, and reports the
end-to-end metrics.  Every set-up and every call is bracketed by a fixed
reference kernel of the workload's kind of work, and its wall time is
scaled to the speed at which that kernel takes ``REFERENCE_S`` (see
``scaled``): the shared host this was built on runs up to 1.5x slower for
seconds at a time, and the kernel timed next to a call slows down with it.  Each call's time is the median
of its scaled times over the passes.
``--trace 1`` makes passes in which every call is made twice, once plain and
once with every layer boundary wrapped (see tracer.py), and reports the
per-layer metrics of the fastest traced pass and the tracing overhead.

Every output is checked (see workloads.py); the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program is imported from ``src/`` of the
checkout the script sits in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

sys.path.insert(0, HERE)
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

#: Passes a run makes at least, so each call has this many times to take a median of.
MIN_PASSES = 3
#: Seconds each reference kernel takes, about its time in the development
#: host's fast state; scaled times are wall times at that speed.
REFERENCE_S = 0.040
LAYER_MODULES = ("cli", "harness", "bandit", "constraints", "solvers", "core")

END_TO_END = ("setup_s", "work_per_s", "call_p50_s", "peak_rss_mb")


def per_layer_names():
    names = []
    for layer in tracing.LAYERS:
        names += [f"{layer}.calls", f"{layer}.busy_s", f"{layer}.self_s"]
    return names + [
        "bandit.busy_share", "planning.busy_share", "below_bandit.busy_share",
        "bandit.rounds", "bandit.select_pair_s", "bandit.update_and_plan_s",
        "bandit.self_us_per_round", "bandit.rounds_self_pair",
        "bandit.rounds_replanned", "bandit.replan_ratio",
        "core.gap_divergence_calls", "core.gap_divergence_s", "core.load_matrix_s",
        "constraints.min_lhs_calls", "constraints.min_lhs_s", "constraints.cw_descriptors_s",
        "solvers.plan_calls", "solvers.plan_s", "solvers.simplex_calls", "solvers.simplex_s",
        "solvers.lp_rows_p50", "solvers.lp_rows_max", "solvers.lower_bound_s",
        "solvers.closed_form_s",
        "harness.write_trace_s", "harness.trace_bytes",
        "untraced_wall_s", "traced_wall_s", "trace.wrapper_s", "trace_overhead_frac",
    ]


#: Unit by name suffix, longest suffixes first.
UNITS = (("_us_per_round", "us"), ("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"),
         ("_bytes", "bytes"), ("_ratio", "ratio"), ("_frac", "ratio"), ("_share", "ratio"))


def unit_of(name: str) -> str:
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# set-up


def import_program():
    """Import duelbench afresh from src/ and return its layer modules."""
    if not os.path.isfile(os.path.join(SRC, "duelbench", "__init__.py")):
        raise SystemExit(f"error: no duelbench sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "duelbench" or n.startswith("duelbench.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"duelbench.{name}") for name in LAYER_MODULES}
    if not modules["cli"].__file__.startswith(SRC):
        raise SystemExit(f"error: duelbench imported from {modules['cli'].__file__}")
    return modules


class Context:
    """Everything a pass needs: the program's modules and the written inputs."""

    def __init__(self, workload, work_dir):
        self.workload = workload
        self.work_dir = work_dir
        self.modules = None
        self.inputs = None
        self.k = None
        self.pins = None

    def setup(self):
        """Import, write the inputs, warm up.  Timed as setup_s."""
        self.modules = import_program()
        cli = self.modules["cli"]
        os.makedirs(self.work_dir, exist_ok=True)
        if self.workload.kind == "sim":
            argv, self.inputs = wl.sim_input_argv(self.workload, self.work_dir)
            rc, _, err = call_cli(cli, argv)
            if rc != 0:
                raise RuntimeError(f"writing the input failed ({rc}): {err.strip()}")
            with open(self.inputs, "r", encoding="utf-8") as fh:
                self.k = self.modules["core"].load_matrix(fh).k
            warm = ["run", "--input", self.inputs, "--algo", self.workload.algo,
                    "--T", "200", "--runs", "1", "--output",
                    os.path.join(self.work_dir, "warmup.json")]
        else:
            self.inputs = wl.write_bounds_inputs(self.work_dir)
            warm = ["bounds", "--dataset", "cyclic", "--json"]
        rc, _, err = call_cli(cli, warm)
        if rc != 0:
            raise RuntimeError(f"warm-up failed ({rc}): {err.strip()}")

    def pin(self, item):
        """The pinned output of one call."""
        if self.pins is None:
            self.pins = wl.load_pins()
        return self.pins[self.workload.name][item]


def call_cli(cli, argv, tracer=None):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            rc = cli.main(argv)
        else:
            rc = tracer.span("cli.main", cli.main, argv)
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# the reference kernels
#
# A workload's kernel does the kind of work its calls spend their time on, so
# that the host slows the two down alike: interpreted code for the
# simulation workloads, dense simplex pivots for bounds-k8.  Neither kernel
# ever changes with the program.


def interp_kernel() -> float:
    """Interpreted arithmetic, dict updates and small numpy calls."""
    a = np.arange(16, dtype=float)
    counts = {}
    s = 0.0
    for i in range(120_000):
        counts[i & 255] = counts.get(i & 255, 0) + i
        s += (i * 0.5) % 7.0
        if i % 50 == 0:
            s += float(np.sum(a * 1.0001))
    return s


_TABLEAU = []


def pivot_kernel() -> float:
    """Eight rank-one pivot updates of a dense 1000 x 1200 tableau."""
    if not _TABLEAU:
        _TABLEAU.append(np.random.default_rng(0).random((1000, 1200)))
    tab = _TABLEAU[0].copy()
    for j in range(8):
        row = tab[j] / (tab[j, j] + 1.0)
        col = tab[:, j].copy()
        tab -= np.outer(col, row) * 1e-3
    return float(tab[0, 0])


KERNELS = {"interp": interp_kernel, "pivot": pivot_kernel}


def reference_time(kernel) -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scaled(seconds, ref_before, ref_after):
    """``seconds`` at the speed at which the reference kernel takes REFERENCE_S,
    judged by the kernel's mean time just before and just after."""
    return seconds * REFERENCE_S / (0.5 * (ref_before + ref_after))


# ---------------------------------------------------------------------------
# passes


class Call:
    """One timed CLI call: wall seconds, work units, output, failure reason,
    and (in a timed pass) its wall seconds scaled to the reference speed."""

    __slots__ = ("seconds", "units", "output", "error", "scaled")

    def __init__(self, seconds, units, output, error):
        self.seconds = seconds
        self.units = units
        self.output = output
        self.error = error
        self.scaled = None


def timed_call(ctx, argv, tracer=None):
    """(wall seconds, stdout, failure reason or None) of one CLI call."""
    cli = ctx.modules["cli"]
    try:
        t0 = time.perf_counter()
        rc, out, err = call_cli(cli, argv, tracer)
        seconds = time.perf_counter() - t0
    except Exception:  # a crash is a failed operation, not the end of the run
        return 0.0, "", traceback.format_exc(limit=3)
    if rc != 0:
        return seconds, out, f"exit code {rc}: {err.strip()[:200]}"
    return seconds, out, None


def run_call(ctx, item, tracer=None):
    """Make the workload's ``item``-th call and check its output."""
    w = ctx.workload
    if w.kind == "sim":
        path = os.path.join(ctx.work_dir, "trace.json" if tracer is None else "trace_traced.json")
        argv = wl.sim_argv(w, ctx.inputs, wl.SIM_MASTER_SEED, path)
    else:
        argv = wl.bounds_argv(ctx.inputs[item])
    seconds, out, error = timed_call(ctx, argv, tracer)
    if error is not None:
        return Call(seconds, 0, "", error)
    if w.kind == "bounds":
        return Call(seconds, 1, out, wl.check_bounds(out, ctx.pin(item)))
    with open(path, "rb") as fh:
        data = fh.read()
    error = wl.check_trace(data, w, ctx.k, wl.SIM_MASTER_SEED, pin=ctx.pin(item))
    return Call(seconds, w.horizon, data, error)


# ---------------------------------------------------------------------------
# the two kinds of run


def measure(ctx, seconds):
    """Set up and make every call, pass after pass, for about ``seconds``.

    The workload's reference kernel runs before the first set-up and after
    every set-up and call, so each one lies between two reference times.  Returns (scaled
    set-up times, one list of Calls per pass, every reference time).
    """
    kernel = KERNELS[ctx.workload.reference]
    setups, passes, refs = [], [], [reference_time(kernel)]
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ctx.setup()
        setup_s = time.perf_counter() - t0
        refs.append(reference_time(kernel))
        setups.append(scaled(setup_s, refs[-2], refs[-1]))
        calls = []
        for item in range(ctx.workload.items()):
            call = run_call(ctx, item)
            refs.append(reference_time(kernel))
            call.scaled = scaled(call.seconds, refs[-2], refs[-1])
            calls.append(call)
        passes.append(calls)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return setups, passes, refs


def median_times(passes, attr="scaled"):
    """Each call's median time (``attr``) over the passes in which it succeeded."""
    times = []
    for calls in zip(*passes):
        ok = [getattr(c, attr) for c in calls if c.error is None]
        times.append(statistics.median(ok) if ok else None)
    return times


def end_to_end(setups, passes, attr="scaled"):
    """The end-to-end metrics from scaled times, or from wall times with
    ``attr="seconds"``; the set-up times given are taken as they are.

    The rate is over each call's median time; the call quantiles are over
    every successful call of every pass, so that on bounds-k8 the calls
    near the median, each short and noisy, all count.
    """
    times = [t for t in median_times(passes, attr) if t is not None]
    pooled = [getattr(c, attr) for calls in passes for c in calls if c.error is None]
    units = sum(c.units for c in passes[0] if c.error is None)
    return {
        "setup_s": statistics.median(setups),
        "work_per_s": units / sum(times) if times else 0.0,
        "call_p50_s": statistics.median(pooled) if pooled else 0.0,
        "call_p90_s": float(np.quantile(pooled, 0.9)) if pooled else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_pass(ctx, index):
    """Pass ``index``; each call is made plain and traced, alternating which
    goes first from call to call and from pass to pass."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    for item in range(ctx.workload.items()):
        traced_first = (index + item) % 2 == 0
        for with_trace in (traced_first, not traced_first):
            if not with_trace:
                plain.append(run_call(ctx, item))
                continue
            tracer.install(ctx.modules)
            try:
                traced.append(run_call(ctx, item, tracer))
            finally:
                tracer.uninstall()
    for a, b in zip(plain, traced):
        if a.error is None and b.error is None and a.output != b.output:
            b.error = "traced output differs from the plain output"
    return tracer, plain, traced


def trace(ctx, seconds):
    """Traced passes for about ``seconds`` (at least one).

    Returns (tracer of the fastest traced pass, its traced calls, the
    fastest plain pass wall time, every call made, passes).  Taking the
    fastest of each side keeps the two in the same state of the machine.
    """
    best, plain_wall, calls, passes = None, math.inf, [], 0
    start = time.perf_counter()
    while True:
        ctx.setup()
        tracer, plain, traced = traced_pass(ctx, passes)
        calls += plain + traced
        plain_wall = min(plain_wall, sum(c.seconds for c in plain))
        traced_wall = sum(c.seconds for c in traced)
        if best is None or traced_wall < best[0]:
            best = (traced_wall, tracer, traced)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            return best[1], best[2], plain_wall, calls, passes


def layer_metrics(tracer, traced, untraced_wall, trace_bytes):
    m = {}
    for layer, (calls, busy, self_s) in tracer.layer_stats().items():
        m[f"{layer}.calls"] = calls
        m[f"{layer}.busy_s"] = busy
        m[f"{layer}.self_s"] = self_s
    rounds = tracer.rounds
    m["bandit.rounds"] = rounds
    m["bandit.select_pair_s"] = tracer.stat("bandit.select_pair")[1]
    m["bandit.update_and_plan_s"] = tracer.stat("bandit.update_and_plan")[1]
    m["bandit.self_us_per_round"] = 1e6 * m["bandit.self_s"] / rounds if rounds else 0.0
    m["bandit.rounds_self_pair"] = tracer.rounds_self_pair
    m["bandit.rounds_replanned"] = tracer.rounds_replanned
    m["bandit.replan_ratio"] = tracer.rounds_replanned / rounds if rounds else 0.0
    for key, name in (("core.gap_divergence", "core.gap_divergence"),
                      ("constraints.min_lhs", "constraints.min_lhs"),
                      ("solvers.plan", "solvers.plan"),
                      ("solvers.simplex", "solvers.simplex")):
        calls, total, _ = tracer.stat(name)
        m[f"{key}_calls"] = calls
        m[f"{key}_s"] = total
    m["core.load_matrix_s"] = tracer.stat("core.load_matrix")[1]
    m["constraints.cw_descriptors_s"] = tracer.stat("constraints.cw_descriptors")[1]
    rows = np.frombuffer(tracer.lp_rows, dtype=np.int32)
    m["solvers.lp_rows_p50"] = float(np.median(rows)) if rows.size else 0.0
    m["solvers.lp_rows_max"] = int(rows.max()) if rows.size else 0
    m["solvers.lower_bound_s"] = tracer.stat("solvers.lower_bound")[1]
    m["solvers.closed_form_s"] = tracer.stat("solvers.closed_form")[1]
    m["harness.write_trace_s"] = tracer.stat("harness.write_trace")[1]
    m["harness.trace_bytes"] = trace_bytes
    traced_wall = sum(c.seconds for c in traced)
    m["untraced_wall_s"] = untraced_wall
    m["traced_wall_s"] = traced_wall
    # shares of the traced wall time less the wrappers' own cost
    m["trace.wrapper_s"] = tracer.overhead
    base = traced_wall - tracer.overhead
    m["bandit.busy_share"] = m["bandit.busy_s"] / base if base > 0 else 0.0
    for group, busy in tracer.group_busy.items():
        m[f"{group}.busy_share"] = busy / base if base > 0 else 0.0
    m["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
    return m


# ---------------------------------------------------------------------------
# machine record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout; 'unknown' when it is not a git repository."""
    # the ceiling keeps git from taking a repository above the checkout for it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    # recorded only: no workload's inputs depend on it (see workloads.py)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def report(name, value, samples):
    print(f"metric {name} = {value!r} {unit_of(name)} ({samples})")


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    load_before = os.getloadavg()
    ctx = Context(workload, os.path.join(WORK_ROOT, workload.name))

    if args.trace:
        tracer, traced, plain_wall, calls, n_passes = trace(ctx, args.seconds)
        trace_bytes = sum(len(c.output) for c in traced) if workload.kind == "sim" else 0
        metrics = layer_metrics(tracer, traced, plain_wall, trace_bytes)
        tracer.write(os.path.join(ctx.work_dir, "spans.npz"))
    else:
        setups, passes, refs = measure(ctx, args.seconds)
        calls = [c for calls in passes for c in calls]
        metrics = end_to_end(setups, passes)
        wall = end_to_end(setups, passes, attr="seconds")
        n_passes = len(passes)
    failed = sum(1 for c in calls if c.error is not None)

    import duelbench  # the copy import_program loaded

    print(f"machine nproc={os.cpu_count()} cpu={cpu_model()!r} "
          f"python={platform.python_version()} numpy={np.__version__} "
          f"duelbench={duelbench.__version__} commit={git_commit()}")
    print(f"run workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={n_passes} calls={len(calls)} "
          f"load_before={load_before} load_after={os.getloadavg()}")
    for c in calls:
        if c.error is not None:
            print(f"FAILED: {c.error}")
    if args.trace:
        for name in per_layer_names():
            report(name, metrics[name], f"fastest of n={n_passes} traced passes")
    else:
        ok = sum(1 for c in calls if c.error is None)
        each = f"n={workload.items()} calls, each the median of {n_passes} passes"
        pooled = f"n={ok} calls over {n_passes} passes"
        report("setup_s", metrics["setup_s"], f"median of n={n_passes} set-ups")
        if workload.kind == "sim":
            report("rounds_per_s", metrics["work_per_s"], each)
            report("call_p50_s", metrics["call_p50_s"], pooled)
        else:
            report("matrices_per_s", metrics["work_per_s"], each)
            report("bounds_p50_s", metrics["call_p50_s"], pooled)
            report("bounds_p90_s", metrics["call_p90_s"], pooled)
        print(f"wall (not scaled) work_per_s={wall['work_per_s']!r} "
              f"call_p50_s={wall['call_p50_s']!r}; reference kernel "
              f"median={statistics.median(refs)!r} s min={min(refs)!r} s "
              f"max={max(refs)!r} s (n={len(refs)})")
        report("peak_rss_mb", metrics["peak_rss_mb"], "n=1 process")
    report("failed_frac", failed / len(calls), f"n={len(calls)} calls")

    names = per_layer_names() if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": unit_of(n)} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
