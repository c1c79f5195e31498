import io
import json
import math
import os
import stat

import numpy as np
import pytest

from duelbench import (
    AlgorithmConfig,
    ParseError,
    TiedPreferenceError,
    TooLargeError,
    TraceIOError,
    ValidationError,
    builtin_dataset,
    checkpoint_grid,
    lower_bound,
    read_trace,
    save_matrix,
    simulate,
    simulate_batch,
    split_seed,
    trace_filename,
    write_trace,
)
from duelbench.harness import CSV_HEADER, RegretTrace, _run_single
from oracles import run_per_round


class TestCheckpointGrid:
    def test_basic_properties(self):
        grid = checkpoint_grid(10_000)
        assert grid[0] == 1
        assert grid[-1] == 10_000
        assert list(grid) == sorted(set(grid))
        assert 10 in grid and 100 in grid and 1000 in grid

    def test_small_horizons(self):
        assert checkpoint_grid(1) == (1,)
        assert checkpoint_grid(2) == (1, 2)
        # ten steps per decade: ceil(10^(k/10)) for k = 0..8, plus the horizon
        expected = sorted({math.ceil(10 ** (k / 10)) for k in range(9)} | {7})
        assert checkpoint_grid(7) == tuple(v for v in expected if v <= 7)

    def test_log_density(self):
        grid = checkpoint_grid(100_000)
        # ten points per decade plus the horizon
        assert len(grid) < 60
        assert grid[-1] == 100_000

    def test_invalid(self):
        with pytest.raises(ValidationError):
            checkpoint_grid(0)


class TestSimulate:
    def test_single_round(self, cyclic):
        trace = simulate(cyclic, AlgorithmConfig(), 1, run_seed=0, label="cyclic")
        assert trace.checkpoints == (1,)
        # fresh state draws (2,1); r(2,1) = (2+0-0)/6
        assert trace.mean == (pytest.approx(1 / 3),)
        assert trace.runs[0] == trace.mean
        assert trace.meta["dataset"] == "cyclic"
        assert trace.meta["runs"] == 1

    def test_seed_determinism(self, cyclic):
        cfg = AlgorithmConfig()
        a = simulate(cyclic, cfg, 3000, run_seed=5)
        b = simulate(cyclic, cfg, 3000, run_seed=5)
        c = simulate(cyclic, cfg, 3000, run_seed=6)
        assert a == b
        assert a != c

    def test_monotone_regret(self, cyclic):
        trace = simulate(cyclic, AlgorithmConfig(), 5000, run_seed=1)
        row = trace.runs[0]
        assert all(row[i] <= row[i + 1] + 1e-12 for i in range(len(row) - 1))

    def test_preconditions(self, cyclic):
        with pytest.raises(TiedPreferenceError):
            simulate(builtin_dataset("arxiv"), AlgorithmConfig(), 10, run_seed=0)
        with pytest.raises(ValidationError):
            simulate(cyclic, AlgorithmConfig(), 0, run_seed=0)
        with pytest.raises(TooLargeError):
            simulate(builtin_dataset("sushi"), AlgorithmConfig(variant="cw"), 10, run_seed=0)

    def test_negative_seed_rejected(self, cyclic):
        # numpy raises a bare ValueError for a negative seed
        with pytest.raises(ValidationError, match="seed"):
            simulate(cyclic, AlgorithmConfig(), 10, run_seed=-1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: simulate(m, AlgorithmConfig(), 100.5, run_seed=0),
            lambda m: simulate(m, AlgorithmConfig(), "100", run_seed=0),
            lambda m: simulate(m, AlgorithmConfig(), 100, run_seed=1.5),
            lambda m: simulate_batch(m, AlgorithmConfig(), 100, runs=2.5, master_seed=0),
            lambda m: simulate_batch(m, AlgorithmConfig(), 100, runs=True, master_seed=0),
            lambda m: simulate_batch(m, AlgorithmConfig(), 100, runs=2, master_seed=0.5),
            lambda m: simulate_batch(m, AlgorithmConfig(), 100, 2, 0, parallelism=1.5),
            lambda m: AlgorithmConfig(k_max=2.5),
            lambda m: lower_bound(m, k_max=2.5),
            lambda m: AlgorithmConfig(alpha="3"),
            lambda m: AlgorithmConfig(beta=None),
        ],
        ids=[
            "fractional-horizon",
            "string-horizon",
            "fractional-run-seed",
            "fractional-runs",
            "bool-runs",
            "fractional-master-seed",
            "fractional-parallelism",
            "fractional-config-k-max",
            "fractional-lower-bound-k-max",
            "string-alpha",
            "null-beta",
        ],
    )
    def test_numeric_arguments_are_type_checked(self, cyclic, call):
        with pytest.raises(ValidationError) as exc:
            call(cyclic)
        assert exc.value.exit_code == 2

    def test_integral_float_horizon_runs(self, cyclic):
        assert simulate(cyclic, AlgorithmConfig(), 1e2, run_seed=0).checkpoints[-1] == 100

    def test_regret_ledger_matches_counts_exactly(self, cyclic):
        # the harness reads regret from the counts at each checkpoint; the
        # reference loop adds each round's regret to its own ledger
        for variant in ("ecw", "random"):
            cfg = AlgorithmConfig(variant=variant)
            grid, row, state = _run_single(cyclic, cfg, 2500, 17)
            ref_grid, ref_row, ref_state = run_per_round(cyclic, cfg, 2500, 17)
            assert grid == ref_grid
            assert row == ref_row  # exact float identity at every checkpoint
            assert state.counts == ref_state.counts

    def test_min_count_guard_growth(self, cyclic):
        cfg = AlgorithmConfig(alpha=3.0, beta=0.01)
        _, _, state = _run_single(cyclic, cfg, 20_000, 3)
        floor = 3.0 * math.sqrt(math.log(20_000)) - 1.0
        low = min(state.counts[i][j] for i in range(4) for j in range(i))
        assert low >= floor

    def test_multisol_exploits_tied_winners(self, multisol):
        # three winners: any pair among them accrues zero regret, so the
        # trace should sit far below the uniform-sampling expectation
        from duelbench import regret_table
        from duelbench.core import _copeland_sets

        _, _, losses, _ = _copeland_sets(multisol.values)
        table = regret_table(losses)
        off = ~np.eye(5, dtype=bool)
        uniform_rate = float(table[off].mean())
        horizon = 4000
        trace = simulate(multisol, AlgorithmConfig(), horizon, run_seed=2)
        assert trace.mean[-1] < uniform_rate * horizon / 2

    def test_gap_dataset_runs(self):
        gap = builtin_dataset("gap")
        trace = simulate(gap, AlgorithmConfig(), 4000, run_seed=3)
        row = trace.runs[0]
        assert all(b >= a for a, b in zip(row, row[1:]))

    def test_cw_variant_on_five_arms(self, multisol):
        trace = simulate(multisol, AlgorithmConfig(variant="cw"), 3000, run_seed=4)
        assert trace.checkpoints[-1] == 3000

    def test_ecw_has_no_size_limit(self):
        # the closed-form planner runs at any K; a short sushi run suffices
        sushi = builtin_dataset("sushi")
        trace = simulate(sushi, AlgorithmConfig(variant="ecw"), 2000, run_seed=1)
        assert trace.checkpoints[-1] == 2000
        assert trace.mean[-1] > 0

    def test_random_expected_rate(self, cyclic):
        # uniform sampling over cyclic pairs has mean regret 1/2 per round
        cfg = AlgorithmConfig(variant="random")
        trace = simulate_batch(cyclic, cfg, 2000, runs=20, master_seed=9)
        per_run_final = [row[-1] for row in trace.runs]
        mean = float(np.mean(per_run_final))
        se = float(np.std(per_run_final, ddof=1) / math.sqrt(len(per_run_final)))
        assert abs(mean - 1000.0) <= 3 * se + 1e-9


class TestBatch:
    def test_single_run_aggregate(self, cyclic):
        trace = simulate_batch(cyclic, AlgorithmConfig(), 500, runs=1, master_seed=4)
        assert trace.mean == trace.runs[0]
        assert all(s == 0.0 for s in trace.std)

    def test_split_seed_stability(self):
        assert split_seed(123, 0) == split_seed(123, 0)
        assert split_seed(123, 0) != split_seed(123, 1)
        assert split_seed(122, 0) != split_seed(123, 0)

    def test_parallelism_invariance(self, cyclic):
        cfg = AlgorithmConfig()
        seq = simulate_batch(cyclic, cfg, 1200, runs=6, master_seed=7, parallelism=1)
        par = simulate_batch(cyclic, cfg, 1200, runs=6, master_seed=7, parallelism=2)
        assert seq == par
        assert json.dumps(seq.to_json_dict()) == json.dumps(par.to_json_dict())

    def test_aggregate_recomputation(self, cyclic):
        trace = simulate_batch(cyclic, AlgorithmConfig(), 800, runs=5, master_seed=2)
        arr = np.array(trace.runs)
        assert list(trace.mean) == [float(v) for v in arr.mean(axis=0)]
        assert list(trace.std) == [float(v) for v in arr.std(axis=0)]

    def test_validation(self, cyclic):
        with pytest.raises(ValidationError):
            simulate_batch(cyclic, AlgorithmConfig(), 100, runs=0, master_seed=0)

    @pytest.mark.parametrize("parallelism", [0, -3])
    def test_parallelism_below_one(self, cyclic, parallelism):
        with pytest.raises(ValidationError, match="parallelism"):
            simulate_batch(
                cyclic, AlgorithmConfig(), 100, runs=2, master_seed=0, parallelism=parallelism
            )


def _trace_text(**fields):
    """A valid two-checkpoint JSON trace with ``fields`` replaced."""
    payload = {
        "meta": {},
        "checkpoints": [1, 2],
        "mean": [0.0, 1.0],
        "std": [0.0, 0.0],
        "runs": [[0.0, 1.0]],
    }
    payload.update(fields)
    return json.dumps(payload)


class TestPersistence:
    def test_json_round_trip(self, cyclic, tmp_path):
        trace = simulate_batch(cyclic, AlgorithmConfig(), 300, runs=3, master_seed=1, label="cyclic")
        path = tmp_path / "t.json"
        write_trace(trace, path)
        again = read_trace(path)
        assert again == trace

    def test_json_stream_round_trip(self, cyclic):
        trace = simulate(cyclic, AlgorithmConfig(), 100, run_seed=0)
        buf = io.StringIO()
        write_trace(trace, buf)
        assert read_trace(io.StringIO(buf.getvalue())) == trace

    def test_csv_header_and_shape(self, cyclic, tmp_path):
        trace = simulate_batch(cyclic, AlgorithmConfig(), 100, runs=2, master_seed=1)
        path = tmp_path / "t.csv"
        write_trace(trace, path, format="csv")
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER == "checkpoint,mean_regret,std_regret"
        assert len(lines) == 1 + len(trace.checkpoints)

    def test_csv_run_columns(self, cyclic, tmp_path):
        trace = simulate_batch(cyclic, AlgorithmConfig(), 50, runs=3, master_seed=1)
        path = tmp_path / "t.csv"
        write_trace(trace, path, format="csv", include_runs=True)
        header = path.read_text().splitlines()[0]
        assert header == CSV_HEADER + ",run_1,run_2,run_3"

    def test_empty_trace_rejected(self):
        empty = RegretTrace(checkpoints=(), runs=((),), mean=(), std=(), meta={})
        with pytest.raises(ValidationError):
            write_trace(empty, io.StringIO())

    def test_bad_path(self, cyclic):
        trace = simulate(cyclic, AlgorithmConfig(), 10, run_seed=0)
        from duelbench import TraceIOError

        with pytest.raises(TraceIOError):
            write_trace(trace, "/nonexistent-dir/x.json")
        with pytest.raises(TraceIOError):
            read_trace("/nonexistent-dir/x.json")

    @pytest.mark.parametrize(
        "text",
        [
            '{"checkpoints": [1, 2',  # not JSON
            '{"runs": [[0.0]], "mean": [0.0], "std": [0.0], "meta": {}}',  # no checkpoints
            "[1, 2, 3]",  # not an object
            _trace_text(checkpoints=[1, True]),
            _trace_text(checkpoints=[1, "2"]),
            _trace_text(checkpoints=[1, 2.7]),
            _trace_text(runs=[[0.0, "1e3"]]),
            _trace_text(mean=[0.0, "1e3"]),
            _trace_text(std=[0.0, None]),
            _trace_text(meta=[]),
            _trace_text(mean=[0.0]),
            _trace_text(checkpoints=[2, 1]),
            _trace_text(checkpoints=[], mean=[], std=[], runs=[[]]),
            _trace_text(checkpoints=[-5, 2]),
            _trace_text(checkpoints=[0, 2]),
            _trace_text(mean=[0.0, math.nan]),
            _trace_text(runs=[[0.0, math.inf]]),
        ],
        ids=[
            "bad-json",
            "missing-field",
            "top-level-list",
            "bool-checkpoint",
            "string-checkpoint",
            "fractional-checkpoint",
            "string-run-entry",
            "string-mean-entry",
            "null-std-entry",
            "meta-not-an-object",
            "length-mismatch",
            "unsorted-checkpoints",
            "empty-checkpoints",
            "negative-checkpoint",
            "zero-checkpoint",
            "nan-mean-entry",
            "infinite-run-entry",
        ],
    )
    def test_malformed_trace_is_a_parse_error(self, text, tmp_path):
        with pytest.raises(ParseError):
            read_trace(io.StringIO(text))
        path = tmp_path / "t.json"
        path.write_text(text)
        with pytest.raises(ParseError):
            read_trace(path)

    def test_integral_float_checkpoints_are_read(self):
        # a float horizon writes its checkpoint as 100000.0
        trace = read_trace(io.StringIO(_trace_text(checkpoints=[1, 100000.0])))
        assert trace.checkpoints == (1, 100000)
        assert all(type(c) is int for c in trace.checkpoints)
        assert read_trace(io.StringIO(_trace_text())).runs == ((0.0, 1.0),)

    def test_undecodable_trace_is_a_parse_error(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_bytes(b'\xff{"checkpoints": []}')
        with pytest.raises(ParseError):
            read_trace(path)

    def test_filename_convention(self):
        assert (
            trace_filename("cyclic", "ecw", 100000, 50, 7, "json")
            == "cyclic_ecw_T100000_r50_s7.json"
        )


class TestAtomicWrite:
    """Trace and matrix files are written whole or not at all."""

    @pytest.fixture(params=["trace", "matrix"])
    def write(self, request, cyclic):
        if request.param == "trace":
            trace = simulate(cyclic, AlgorithmConfig(), 10, run_seed=0)
            return lambda path: write_trace(trace, path)
        return lambda path: save_matrix(cyclic, path)

    def test_writes_target_only(self, write, tmp_path):
        path = tmp_path / "out.txt"
        write(path)
        assert sorted(os.listdir(tmp_path)) == ["out.txt"]

    def test_missing_directory(self, write, tmp_path):
        path = tmp_path / "missing" / "out.txt"
        with pytest.raises(TraceIOError):
            write(path)
        assert os.listdir(tmp_path) == []

    def test_failed_rename(self, write, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(TraceIOError):
            write(tmp_path / "out.txt")
        assert os.listdir(tmp_path) == []

    def test_existing_tmp_name_untouched(self, write, tmp_path):
        # the temporary file is unique: a file called <path>.tmp is someone else's
        (tmp_path / "out.txt.tmp").write_text("keep me")
        write(tmp_path / "out.txt")
        write(tmp_path / "out.txt")  # replacing an existing target too
        assert sorted(os.listdir(tmp_path)) == ["out.txt", "out.txt.tmp"]
        assert (tmp_path / "out.txt.tmp").read_text() == "keep me"

    def test_mode_follows_umask(self, write, tmp_path):
        old = os.umask(0o027)
        try:
            write(tmp_path / "out.txt")
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "out.txt").st_mode) == 0o640
