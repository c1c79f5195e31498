"""Span tracer that wraps the names each duelbench layer calls in the next.

The program under test is never edited: ``install`` replaces module
attributes such as ``duelbench.harness.select_pair`` (the name the harness
calls) with timing wrappers, and ``uninstall`` puts the originals back.
Every wrapped call becomes a span (name, start, end, parent).  Aggregates
(calls, total time, self time, per-layer busy time) are kept online, so
their cost does not grow with the run; the raw spans are appended to
growable arrays and all of them are written out when the run ends.

Self time of a span is its duration minus the time its direct child
spans took, each child counted with its wrapper's own cost, which is not
the caller's work.  That wrapper cost outside the span intervals is summed
as ``overhead``.  A layer's busy time is the time covered by its outermost
spans (a span nested in a span of the same layer adds nothing).
"""

from __future__ import annotations

import time
from array import array

import numpy as np

LAYERS = ("cli", "harness", "bandit", "constraints", "solvers", "core")
_BIT = {layer: 1 << i for i, layer in enumerate(LAYERS)}
_PLANNING = _BIT["constraints"] | _BIT["solvers"]

#: Layer groups whose combined busy time is reported: the time covered by
#: spans of any of their layers.
GROUPS = {
    "planning": ("constraints", "solvers"),
    "below_bandit": ("constraints", "solvers", "core"),
}

#: (module, attribute, span name).  The attribute is the name the caller
#: looks up at call time: its own global for a ``from .x import y`` name, the
#: callee module's attribute for a ``module.y`` call.  The span name's prefix
#: is the callee's layer.
BOUNDARIES = (
    # cli -> harness / core / solvers
    ("harness", "simulate_batch", "harness.simulate_batch"),
    ("harness", "write_trace", "harness.write_trace"),
    ("core", "load_matrix", "core.load_matrix"),
    ("core", "copeland_summary", "core.copeland_summary"),
    ("solvers", "lower_bound", "solvers.lower_bound"),
    ("solvers", "ecw_optimal", "solvers.closed_form"),
    ("solvers", "ecw_explicit_bound", "solvers.closed_form"),
    ("solvers", "ecw_worstcase_bound", "solvers.closed_form"),
    ("solvers", "ccb_bound", "solvers.closed_form"),
    ("solvers", "ecw_constant", "solvers.closed_form"),
    # harness -> bandit / core / solvers
    ("harness", "select_pair", "bandit.select_pair"),
    ("harness", "update_and_plan", "bandit.update_and_plan"),
    ("harness", "_copeland_sets", "core.copeland_sets"),
    ("harness", "_regret_nums", "solvers.regret_nums"),
    # bandit -> constraints / core / solvers
    ("bandit", "min_lhs_ecw", "constraints.min_lhs"),
    ("bandit", "min_lhs_cw", "constraints.min_lhs"),
    ("bandit", "gap_divergence", "core.gap_divergence"),
    ("bandit", "_ecw_plan", "solvers.plan"),
    ("bandit", "_cw_lp", "solvers.plan"),
    # solvers -> solvers / constraints / core
    ("solvers", "_ecw_plan", "solvers.plan"),
    ("solvers", "_cw_lp", "solvers.plan"),
    ("solvers", "simplex_solve", "solvers.simplex"),
    ("solvers", "_iter_cw_descriptors", "constraints.cw_descriptors"),
    ("solvers", "_copeland_sets", "core.copeland_sets"),
    ("solvers", "gap_divergence", "core.gap_divergence"),
    ("solvers", "kl_bernoulli", "core.kl_bernoulli"),
)


class Tracer:
    """Span recorder with online aggregates; one per traced pass."""

    def __init__(self):
        self.names = []
        self._aggs = {}  # span name -> [calls, total seconds, self seconds]
        self._layers = {layer: [0, 0.0] for layer in LAYERS}  # [active spans, busy]
        self._groups = {group: [0, 0.0] for group in GROUPS}
        # frame: [span id, child time, descendant layer mask]
        self._stack = [[-1, 0.0, 0]]
        self._overhead = [0.0]
        # one entry per span, in the order the spans were entered
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        # counters the per-layer report needs beyond times
        self.rounds = 0
        self.rounds_self_pair = 0
        self.rounds_replanned = 0
        self.lp_rows = array("i")
        self._saved = []

    @property
    def overhead(self) -> float:
        """Seconds the wrappers spent outside the spans they recorded."""
        return self._overhead[0]

    @property
    def group_busy(self) -> dict:
        return {group: state[1] for group, state in self._groups.items()}

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``; return its result."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn):
        """``fn`` wrapped so that each call records a span called ``name``."""
        layer = name.split(".", 1)[0]
        bit = _BIT[layer]
        if name not in self._aggs:
            self.names.append(name)
            self._aggs[name] = [0, 0.0, 0.0]
        nid = self.names.index(name)
        agg = self._aggs[name]
        lay = self._layers[layer]
        groups = tuple(self._groups[g] for g, members in GROUPS.items() if layer in members)
        stack, overhead = self._stack, self._overhead
        names, starts, ends, parents = self._name, self._start, self._end, self._parent
        clock = time.perf_counter
        counts_replans = name == "bandit.update_and_plan"

        def traced(*args, **kwargs):
            entered = clock()
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1][0])
            starts.append(0.0)
            ends.append(0.0)
            frame = [sid, 0.0, 0]
            stack.append(frame)
            lay[0] += 1
            for g in groups:
                g[0] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                parent = stack[-1]
                parent[2] |= frame[2] | bit
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                lay[0] -= 1
                if not lay[0]:
                    lay[1] += dur
                for g in groups:
                    g[0] -= 1
                    if not g[0]:
                        g[1] += dur
                starts[sid] = start
                ends[sid] = end
                if counts_replans and frame[2] & _PLANNING:
                    self.rounds_replanned += 1
                left = clock()
                parent[1] += left - entered
                overhead[0] += left - entered - dur

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every boundary name; ``modules`` maps short names to modules."""
        for mod_name, attr, span_name in BOUNDARIES:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._boundary(span_name, original))

    def _boundary(self, span_name, original):
        if span_name == "constraints.cw_descriptors":
            # a generator does its work while iterated: drain it in the span
            drain = self.wrap(span_name, lambda *a: list(original(*a)))
            return lambda *a: iter(drain(*a))
        traced = self.wrap(span_name, original)
        if span_name == "bandit.select_pair":
            def select_pair(state, config):
                pair = traced(state, config)
                self.rounds += 1
                self.rounds_self_pair += pair[0] == pair[1]
                return pair
            return select_pair
        if span_name == "solvers.simplex":
            def simplex_solve(costs, constraints, upper_bounds):
                self.lp_rows.append(len(constraints))
                return traced(costs, constraints, upper_bounds)
            return simplex_solve
        return traced

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- results ------------------------------------------------------------

    def stat(self, name: str):
        """(calls, total seconds, self seconds) of one span name."""
        return tuple(self._aggs.get(name, (0, 0.0, 0.0)))

    def layer_stats(self) -> dict:
        """Per layer: calls, busy seconds, self seconds."""
        out = {layer: [0, state[1], 0.0] for layer, state in self._layers.items()}
        for name, (calls, _, self_s) in self._aggs.items():
            row = out[name.split(".", 1)[0]]
            row[0] += calls
            row[2] += self_s
        return out

    def write(self, path) -> None:
        """Write every span (name, start, end, parent) as a .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.uint16),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
            parent=np.frombuffer(self._parent, dtype=np.int32),
        )
