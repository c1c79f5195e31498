"""One table of malformed arguments, and integral floats as the same run as ints.

Every count, size, seed, gate and 1-based arm index goes through
``core._check_integer``, and every real number through ``core._check_real``.
``ERRORS`` holds one bad call per argument and the typed error it must
raise; ``SAME`` holds calls whose integral floats (or ints, for real
numbers) must give exactly what the plain value gives.  ``TestCoverage``
walks the public API, so a new int or float parameter without a row fails.
"""

import dataclasses
import inspect
import io

import numpy as np
import pytest

import duelbench
from duelbench import (
    AlgorithmConfig,
    DomainError,
    DuelbenchError,
    ParseError,
    PreferenceMatrix,
    RateVector,
    RmedState,
    SubproblemInstance,
    TiedPreferenceError,
    ValidationError,
    builtin_dataset,
    ccb_bound,
    check_feasible,
    checkpoint_grid,
    copeland_summary,
    cw_constraints,
    ecw_constant,
    ecw_constraints,
    ecw_explicit_bound,
    ecw_optimal,
    ecw_worstcase_bound,
    gap_divergence,
    kl_bernoulli,
    load_matrix,
    lower_bound,
    lp_cw_optimal,
    matrix_to_csv,
    random_baseline_select,
    regret_per_pair,
    regret_table,
    sample_submatrix,
    simulate,
    simulate_batch,
    split_seed,
    update_and_plan,
    write_trace,
)
from duelbench.cli import main

M = builtin_dataset("cyclic")
S = copeland_summary(M)
CFG = AlgorithmConfig()


def _draw(pair):
    return update_and_plan(RmedState(4), CFG, pair, 1)


# (owner, parameter, bad call, typed error)
ERRORS = [
    ("PreferenceMatrix", "rows", lambda: PreferenceMatrix([[0.5, 0.6], [0.4]]), ValidationError),
    ("PreferenceMatrix", "rows", lambda: PreferenceMatrix([[0.5, "a"], [0.5, 0.5]]), ValidationError),
    ("PreferenceMatrix.take", "arms0=[0, 0]", lambda: M.take([0, 0]), ValidationError),
    ("PreferenceMatrix.take", "arms0=[-1, 0]", lambda: M.take([-1, 0]), ValidationError),
    ("PreferenceMatrix.take", "arms0=[0, 9]", lambda: M.take([0, 9]), ValidationError),
    ("PreferenceMatrix.take", "arms0=[0.5, 1]", lambda: M.take([0.5, 1]), ValidationError),
    ("PreferenceMatrix.take", "arms0=[]", lambda: M.take([]), ValidationError),
    ("PreferenceMatrix.take", "arms0=[[0, 1]]", lambda: M.take([[0, 1]]), ValidationError),
    ("PreferenceMatrix.take", "arms0=None", lambda: M.take(None), ValidationError),
    ("gap_divergence", "values='x'", lambda: gap_divergence("x"), ValidationError),
    ("regret_table", "losses=[]", lambda: regret_table([]), ValidationError),
    ("PreferenceMatrix.mu", "i", lambda: M.mu(1.5, 2), ValidationError),
    ("PreferenceMatrix.mu", "j", lambda: M.mu(2, 1.5), ValidationError),
    ("regret_per_pair", "i", lambda: regret_per_pair(S, 1.5, 2), ValidationError),
    ("regret_per_pair", "j", lambda: regret_per_pair(S, 2, 1.5), ValidationError),
    ("kl_bernoulli", "p", lambda: kl_bernoulli("a", 0.5), DomainError),
    ("kl_bernoulli", "q", lambda: kl_bernoulli(0.5, "a"), DomainError),
    ("sample_submatrix", "k", lambda: sample_submatrix(M, 2.5, 0.0, 0), ValidationError),
    ("sample_submatrix", "min_gap", lambda: sample_submatrix(M, 2, "a", 0), ValidationError),
    ("sample_submatrix", "rng", lambda: sample_submatrix(M, 2, 0.0, 3.5), ValidationError),
    (
        "sample_submatrix",
        "max_attempts",
        lambda: sample_submatrix(M, 2, 0.0, 0, max_attempts=2.5),
        ValidationError,
    ),
    ("RateVector", "k", lambda: RateVector(2.5, [0.0]), ValidationError),
    ("RateVector", "values", lambda: RateVector(2, ["a"]), ValidationError),
    ("RateVector.zeros", "k", lambda: RateVector.zeros(2.5), ValidationError),
    ("RateVector.from_map", "k", lambda: RateVector.from_map(2.5, {}), ValidationError),
    ("RateVector.from_map", "rate=True", lambda: RateVector.from_map(2, {"2-1": True}), ValidationError),
    ("RateVector.from_map", "rate='0.5'", lambda: RateVector.from_map(2, {"2-1": "0.5"}), ValidationError),
    (
        "RateVector.from_map",
        "mapping=[('2-1', 1.0)]",
        lambda: RateVector.from_map(3, [("2-1", 1.0)]),
        ValidationError,
    ),
    ("RateVector.get", "i", lambda: RateVector.zeros(4).get(2.5, 1), ValidationError),
    ("RateVector.get", "j", lambda: RateVector.zeros(4).get(1, 2.5), ValidationError),
    ("cw_constraints", "i1", lambda: cw_constraints(M, 1.5), ValidationError),
    ("ecw_constraints", "i1", lambda: ecw_constraints(M, 1.5), ValidationError),
    ("ecw_optimal", "i1", lambda: ecw_optimal(M, 1.5), ValidationError),
    ("lp_cw_optimal", "i1", lambda: lp_cw_optimal(M, 1.5), ValidationError),
    ("lp_cw_optimal", "k_max", lambda: lp_cw_optimal(M, 1, k_max=8.5), ValidationError),
    ("lower_bound", "k_max", lambda: lower_bound(M, k_max=8.5), ValidationError),
    ("ecw_explicit_bound", "i1", lambda: ecw_explicit_bound(M, 1.5), ValidationError),
    # a winner argument is required; only ecw_optimal reads None as "every winner"
    ("cw_constraints", "i1=None", lambda: cw_constraints(M, None), ValidationError),
    ("ecw_constraints", "i1=None", lambda: ecw_constraints(M, None), ValidationError),
    ("lp_cw_optimal", "i1=None", lambda: lp_cw_optimal(M, None), ValidationError),
    (
        "ecw_explicit_bound",
        "i1=None",
        lambda: ecw_explicit_bound(builtin_dataset("multisol"), None),
        ValidationError,
    ),
    ("SubproblemInstance", "costs", lambda: SubproblemInstance(("a",), 0), ValidationError),
    ("SubproblemInstance", "costs=5", lambda: SubproblemInstance(5, 0), ValidationError),
    ("SubproblemInstance", "slack", lambda: SubproblemInstance((1.0,), 0.5), ValidationError),
    ("AlgorithmConfig", "alpha", lambda: AlgorithmConfig(alpha="a"), ValidationError),
    ("AlgorithmConfig", "beta", lambda: AlgorithmConfig(beta=True), ValidationError),
    ("AlgorithmConfig", "k_max", lambda: AlgorithmConfig(k_max=8.5), ValidationError),
    (
        "check_feasible",
        "matrix=reversed cyclic",
        lambda: check_feasible(cw_constraints(M, 1), RateVector.zeros(4), PreferenceMatrix(1 - M.values)),
        ValidationError,
    ),
    ("RmedState", "k", lambda: RmedState(2.5), ValidationError),
    ("random_baseline_select", "k", lambda: random_baseline_select(np.random.default_rng(0), 2.5), ValidationError),
    ("random_baseline_select", "rng=5", lambda: random_baseline_select(5, 4), ValidationError),
    (
        "update_and_plan",
        "pair",
        lambda: _draw((2.5, 1)),
        ValidationError,
    ),
    ("update_and_plan", "pair=5", lambda: _draw(5), ValidationError),
    ("update_and_plan", "pair=None", lambda: _draw(None), ValidationError),
    ("update_and_plan", "pair=(1,)", lambda: _draw((1,)), ValidationError),
    ("update_and_plan", "pair=(1, 2, 3)", lambda: _draw((1, 2, 3)), ValidationError),
    ("update_and_plan", "pair={1, 2}", lambda: _draw({1, 2}), ValidationError),
    ("checkpoint_grid", "horizon", lambda: checkpoint_grid(10.5), ValidationError),
    ("simulate", "horizon", lambda: simulate(M, CFG, 10.5, 0), ValidationError),
    ("simulate", "run_seed", lambda: simulate(M, CFG, 10, 0.5), ValidationError),
    ("simulate_batch", "horizon", lambda: simulate_batch(M, CFG, 10.5, 1, 0), ValidationError),
    ("simulate_batch", "runs", lambda: simulate_batch(M, CFG, 10, 1.5, 0), ValidationError),
    ("simulate_batch", "master_seed", lambda: simulate_batch(M, CFG, 10, 1, 7.5), ValidationError),
    (
        "simulate_batch",
        "parallelism",
        lambda: simulate_batch(M, CFG, 10, 1, 0, parallelism=1.5),
        ValidationError,
    ),
    ("split_seed", "master_seed", lambda: split_seed(7.5, 0), ValidationError),
    ("split_seed", "master_seed", lambda: split_seed("7", 0), ValidationError),
    ("split_seed", "run_index", lambda: split_seed(7, 0.5), ValidationError),
]


def _trace_bytes(*args, batch=False, **kwargs):
    trace = (simulate_batch if batch else simulate)(*args, **kwargs)
    buf = io.StringIO()
    write_trace(trace, buf)
    return buf.getvalue()


def _state_after(pair):
    state = RmedState(4)
    update_and_plan(state, CFG, pair, 1)
    return state.counts, state.wins, state.muhat, state.t


def _family(build, i1):
    family = build(M, i1)
    return family.kind, family.i1, family.k, family._sets


# (owner, parameter, call with an integral float or an int, call with the plain value)
SAME = [
    ("PreferenceMatrix.mu", "i", lambda: M.mu(2.0, 1.0), lambda: M.mu(2, 1)),
    ("PreferenceMatrix.take", "arms0", lambda: M.take([0.0, 1.0]).values, lambda: M.take([0, 1]).values),
    (
        "sample_submatrix",
        "k",
        lambda: matrix_to_csv(sample_submatrix(M, 2.0, 0, 3.0)),
        lambda: matrix_to_csv(sample_submatrix(M, 2, 0.0, 3)),
    ),
    ("RateVector.zeros", "k", lambda: RateVector.zeros(4.0).k, lambda: RateVector.zeros(4).k),
    ("cw_constraints", "i1", lambda: _family(cw_constraints, 1.0), lambda: _family(cw_constraints, 1)),
    ("ecw_constraints", "i1", lambda: _family(ecw_constraints, 1.0), lambda: _family(ecw_constraints, 1)),
    ("ecw_optimal", "i1", lambda: ecw_optimal(M, 1.0).winner, lambda: ecw_optimal(M, 1).winner),
    ("lp_cw_optimal", "i1", lambda: lp_cw_optimal(M, 1.0).winner, lambda: lp_cw_optimal(M, 1).winner),
    ("ecw_explicit_bound", "i1", lambda: ecw_explicit_bound(M, 1.0), lambda: ecw_explicit_bound(M, 1)),
    ("update_and_plan", "pair", lambda: _state_after((2.0, 1.0)), lambda: _state_after((2, 1))),
    ("checkpoint_grid", "horizon", lambda: checkpoint_grid(1e3), lambda: checkpoint_grid(1000)),
    (
        "simulate",
        "horizon",
        lambda: _trace_bytes(M, CFG, 1e3, 3.0),
        lambda: _trace_bytes(M, CFG, 1000, 3),
    ),
    (
        "simulate_batch",
        "runs",
        lambda: _trace_bytes(M, CFG, 200, runs=2.0, master_seed=7.0, parallelism=2.0, batch=True),
        lambda: _trace_bytes(M, CFG, 200, runs=2, master_seed=7, parallelism=2, batch=True),
    ),
    (
        "AlgorithmConfig",
        "alpha",
        lambda: _trace_bytes(M, AlgorithmConfig(alpha=3, beta=0), 300, 1),
        lambda: _trace_bytes(M, AlgorithmConfig(alpha=3.0, beta=0.0), 300, 1),
    ),
]

#: Integer and real parameters that take no user input to check: they only
#: format a name, or are fields of a result the library builds itself.
EXEMPT = {
    ("trace_filename", "horizon"),
    ("trace_filename", "runs"),
    ("trace_filename", "seed"),
    ("CopelandSummary", "k"),
    ("CopelandSummary", "winner_count"),
    ("ConstraintFamily", "i1"),
    ("ConstraintFamily", "k"),
    ("OptimalExploration", "winner"),
    ("OptimalExploration", "constant"),
}

#: Parameters without an annotation that the rule covers all the same.
UNANNOTATED = {("update_and_plan", "pair"), ("sample_submatrix", "rng")}


def _row_id(row):
    return f"{row[0]}-{row[1]}"


class TestErrors:
    @pytest.mark.parametrize("owner, param, call, error", ERRORS, ids=[_row_id(r) for r in ERRORS])
    def test_typed_error(self, owner, param, call, error):
        with pytest.raises(DuelbenchError) as info:
            call()
        assert type(info.value) is error

    @pytest.mark.parametrize(
        "pair",
        [(2.5, 1), (1, 2.5), (0, 1), (1, 5), (True, 1), ("2", 1), 5, None, (1,), (1, 2, 3), {1, 2}],
        ids=str,
    )
    def test_rejected_pair_leaves_state_unchanged(self, pair):
        state = RmedState(4)
        rng = np.random.default_rng(5)
        for _ in range(40):
            l, m = duelbench.select_pair(state, CFG)
            update_and_plan(state, CFG, (l, m), int(rng.random() < M.mu(l, m)))
        duelbench.select_pair(state, CFG)
        names = ("counts", "wins", "muhat", "_n", "_gap", "_stop", "_level", "_near", "_budgets", "_plan", "t")
        before = [repr(getattr(state, name)) for name in names]
        with pytest.raises(ValidationError):
            update_and_plan(state, CFG, pair, 1)
        assert [repr(getattr(state, name)) for name in names] == before

    def test_alpha_and_beta_are_stored_as_floats(self):
        cfg = AlgorithmConfig(alpha=3, beta=0, k_max=8.0)
        assert (type(cfg.alpha), type(cfg.beta), type(cfg.k_max)) == (float, float, int)


class TestSameRun:
    @pytest.mark.parametrize("owner, param, given, plain", SAME, ids=[_row_id(r) for r in SAME])
    def test_integral_float_is_the_plain_value(self, owner, param, given, plain):
        # repr tells 1000.0 from 1000
        assert repr(given()) == repr(plain())

    def test_trace_meta_holds_ints(self):
        trace = simulate_batch(M, CFG, 1e2, runs=1.0, master_seed=7.0)
        assert [type(trace.meta[key]) for key in ("horizon", "runs", "master_seed")] == [int] * 3
        assert all(type(c) is int for c in trace.checkpoints)


class TestByteOrderMark:
    TEXT = "0.5,0.6\n0.4,0.5\n"

    def test_bytes_and_stream(self):
        want = load_matrix(self.TEXT)
        data = b"\xef\xbb\xbf" + self.TEXT.encode()
        assert load_matrix(data) == want
        assert load_matrix(io.BytesIO(data)) == want

    def test_text_and_text_stream(self):
        want = load_matrix(self.TEXT)
        assert load_matrix("\ufeff" + self.TEXT) == want
        assert load_matrix(io.StringIO("\ufeff" + self.TEXT)) == want

    def test_non_utf8_after_a_mark(self):
        with pytest.raises(ParseError, match="UTF-8"):
            load_matrix(b"\xef\xbb\xbf\xff" + self.TEXT.encode())

    def test_cli(self, capsys, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(self.TEXT)
        marked.write_bytes(b"\xef\xbb\xbf" + self.TEXT.encode())
        outputs = []
        for path in (plain, marked):
            code = main(["bounds", "--json", "--input", str(path)])
            captured = capsys.readouterr()
            assert (code, captured.err) == (0, "")
            outputs.append(captured.out.replace(path.stem, "NAME"))
        assert outputs[0] == outputs[1]


ARXIV = builtin_dataset("arxiv")  # one pair at exactly 1/2

# (entry point, call on a matrix with a tied pair)
STRICT = [
    ("copeland_summary", lambda: copeland_summary(ARXIV)),
    ("cw_constraints", lambda: cw_constraints(ARXIV, 1)),
    ("ecw_constraints", lambda: ecw_constraints(ARXIV, 1)),
    ("ecw_optimal", lambda: ecw_optimal(ARXIV)),
    ("ecw_optimal-i1", lambda: ecw_optimal(ARXIV, 1)),
    ("lp_cw_optimal", lambda: lp_cw_optimal(ARXIV, 1)),
    ("lower_bound", lambda: lower_bound(ARXIV)),
    ("ecw_constant", lambda: ecw_constant(ARXIV)),
    ("ecw_explicit_bound", lambda: ecw_explicit_bound(ARXIV, 1)),
    ("ecw_worstcase_bound", lambda: ecw_worstcase_bound(ARXIV)),
    ("ccb_bound", lambda: ccb_bound(ARXIV)),
    ("simulate", lambda: simulate(ARXIV, CFG, 10, 0)),
    ("simulate_batch", lambda: simulate_batch(ARXIV, CFG, 10, 1, 0)),
]


@pytest.mark.parametrize("call", [c for _, c in STRICT], ids=[name for name, _ in STRICT])
def test_strict_gaps_required(call):
    with pytest.raises(TiedPreferenceError) as info:
        call()
    assert str(info.value) == "strict gaps required"


def _checked_parameters():
    """(owner, parameter) of every int, int | None or float parameter of the public API."""
    wanted = {"int", "int | None", "float"}
    found = set()

    def scan(owner, fn, skip_self):
        params = list(inspect.signature(fn).parameters.values())[1 if skip_self else 0 :]
        found.update((owner, p.name) for p in params if p.annotation in wanted)

    for name in dir(duelbench):
        obj = getattr(duelbench, name)
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        if inspect.isfunction(obj):
            scan(name, obj, False)
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            if dataclasses.is_dataclass(obj):
                found.update((name, f.name) for f in dataclasses.fields(obj) if f.type in wanted)
            elif "__init__" in vars(obj):
                scan(name, obj.__init__, True)
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, classmethod):
                    scan(f"{name}.{attr}", member.__func__, True)
                elif inspect.isfunction(member):
                    scan(f"{name}.{attr}", member, True)
    return found


class TestCoverage:
    def test_every_numeric_parameter_has_a_row(self):
        rows = {(owner, param) for owner, param, *_ in ERRORS + SAME}
        missing = _checked_parameters() - rows - EXEMPT
        assert not missing, f"no row for {sorted(missing)}"

    def test_unannotated_parameters_have_rows(self):
        assert UNANNOTATED <= {(owner, param) for owner, param, *_ in ERRORS}

    def test_exemptions_are_live(self):
        assert EXEMPT <= _checked_parameters()
