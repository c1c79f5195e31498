import json

import numpy as np
import pytest

from duelbench import (
    DuelbenchError,
    TiedPreferenceError,
    TooLargeError,
    TraceIOError,
    ValidationError,
    builtin_dataset,
    load_matrix,
    matrix_to_csv,
)
from duelbench.cli import _sig3, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSig3:
    @pytest.mark.parametrize(
        "value,text",
        [
            (27.5487, "27.5"),
            (49.6635, "49.7"),
            (1600.0000000001, "1600"),
            (248.317, "248"),
            (0.0201355, "0.0201"),
            (5032.0, "5030"),
            (0.0, "0"),
            (9.996, "10.0"),
            (0.09996, "0.100"),
            (99.96, "100"),
        ],
    )
    def test_rounding(self, value, text):
        assert _sig3(value) == text


class TestBounds:
    def test_cyclic_display(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--dataset", "cyclic")
        assert code == 0
        assert "27.5" in out
        assert "49.7" in out
        assert "1600" in out
        assert "K=4" in out and "C=1" in out

    def test_cyclic_json_full_precision(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--dataset", "cyclic", "--json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["lambda"] - 27.55) <= 0.2
        assert abs(payload["lambda_tilde"] - 49.66) <= 0.05
        assert abs(payload["ccb_bound"] - 1600.0) <= 1e-12 * 1600
        assert payload["winners"] == [1]
        assert payload["lambda_winner"] == 1
        assert not payload["equal_cw_ecw"]

    def test_rates_in_json(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--dataset", "cyclic", "--json", "--rates")
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda_tilde_rates"]["2-1"] == pytest.approx(49.6635, abs=1e-3)

    def test_multisol_flags_equality(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--dataset", "multisol")
        assert code == 0
        assert "equal (C >= 2)" in out

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.5,0.6\n0.4,0.5\n")
        code, out, _ = run_cli(capsys, "bounds", "--input", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda"] == pytest.approx(24.83, abs=0.05)
        assert payload["lambda_tilde"] == pytest.approx(payload["lambda"], rel=1e-9)

    def test_k_max_degrades_gracefully(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--dataset", "sushi")
        assert code == 0
        assert "skipped (K > K_max" in out
        assert "lambda_tilde" in out

    def test_missing_input(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--input", "/no/such/file.csv")
        assert code == 4

    def test_non_integer_k_max_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DUELBENCH_KMAX", "abc")
        code, out, err = run_cli(capsys, "bounds", "--dataset", "cyclic")
        assert code == 2
        assert out == ""
        assert "DUELBENCH_KMAX" in err

    def test_bad_matrix(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.7\n0.4,0.5\n")
        code, _, err = run_cli(capsys, "bounds", "--input", str(path))
        assert code == 2
        assert "asymmetric" in err


    @pytest.mark.parametrize("command", ["bounds", "run", "submatrix"])
    def test_non_utf8_input(self, capsys, tmp_path, command):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xff0.5,0.6\n0.4,0.5\n")
        extra = {"bounds": [], "run": ["--algo", "ecw", "--T", "10"], "submatrix": ["--k", "2"]}[command]
        code, out, err = run_cli(capsys, command, "--input", str(path), *extra)
        assert code == 2
        assert "UTF-8" in err

    def test_crlf_input(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"0.5,0.6\r\n0.4,0.5\r\n")
        code, out, _ = run_cli(capsys, "bounds", "--input", str(path), "--json")
        assert code == 0
        assert json.loads(out)["k"] == 2


class TestRun:
    def test_writes_trace_and_summary(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(
            capsys,
            "run", "--dataset", "cyclic", "--algo", "ecw",
            "--T", "1500", "--runs", "3", "--seed", "7",
        )
        assert code == 0
        assert "final mean regret" in out
        assert "ratio to ecw_constant * ln T" in out
        path = tmp_path / "cyclic_ecw_T1500_r3_s7.json"
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["meta"]["dataset"] == "cyclic"
        assert payload["checkpoints"][-1] == 1500
        assert len(payload["runs"]) == 3

    def test_repeat_invocations_identical(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = [
            "run", "--dataset", "cyclic", "--algo", "random",
            "--T", "800", "--runs", "4", "--seed", "3",
        ]
        run_cli(capsys, *args, "--output", "a.json")
        run_cli(capsys, *args, "--output", "b.json", "--jobs", "2")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_csv_format(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(
            capsys,
            "run", "--dataset", "cyclic", "--algo", "random",
            "--T", "100", "--runs", "2", "--seed", "1", "--format", "csv",
        )
        assert code == 0
        lines = (tmp_path / "cyclic_random_T100_r2_s1.csv").read_text().splitlines()
        assert lines[0] == "checkpoint,mean_regret,std_regret"

    def test_cw_size_gate_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--dataset", "sushi", "--algo", "cw", "--T", "10", "--runs", "1"
        )
        assert code == 3
        assert "K_max" in err

    @pytest.mark.parametrize("flag,value", [("--alpha", "inf"), ("--beta", "nan")])
    def test_non_finite_hyperparameter(self, capsys, tmp_path, flag, value):
        code, _, err = run_cli(
            capsys, "run", "--dataset", "cyclic", "--algo", "ecw", "--T", "10",
            "--runs", "1", "--output", str(tmp_path / "t.json"), flag, value,
        )
        assert code == 2
        assert "finite" in err
        assert not (tmp_path / "t.json").exists()

    def test_tied_dataset_rejected(self, capsys):
        code, _, _ = run_cli(
            capsys, "run", "--dataset", "arxiv", "--algo", "ecw", "--T", "10", "--runs", "1"
        )
        assert code == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, capsys, tmp_path, jobs):
        code, _, err = run_cli(
            capsys, "run", "--dataset", "cyclic", "--algo", "ecw", "--T", "10",
            "--runs", "2", "--jobs", jobs, "--output", str(tmp_path / "t.json"),
        )
        assert code == 2
        assert "parallelism" in err
        assert not (tmp_path / "t.json").exists()


class TestDatasets:
    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "datasets")
        assert code == 0
        lines = out.splitlines()
        assert any(line.startswith("cyclic K=4 C=1") and "Condorcet=yes" in line for line in lines)
        assert any(line.startswith("multisol K=5 C=3") and "Condorcet=no" in line for line in lines)
        assert any(line.startswith("sushi K=16") for line in lines)
        assert len(lines) == 7


class TestSubmatrix:
    def test_from_input_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        src = tmp_path / "sushi.csv"
        src.write_text(matrix_to_csv(builtin_dataset("sushi")))
        code, out, _ = run_cli(
            capsys,
            "submatrix", "--input", str(src), "--k", "8",
            "--min-gap", "0.005", "--seed", "1", "--output", "sub.csv",
        )
        assert code == 0
        sub = load_matrix((tmp_path / "sub.csv").read_text())
        assert sub.k == 8
        off = ~np.eye(8, dtype=bool)
        assert (np.abs(sub.values[off] - 0.5) >= 0.005).all()

    def test_exhausted_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys,
            "submatrix", "--dataset", "cyclic", "--k", "3",
            "--min-gap", "0.45", "--seed", "0",
        )
        assert code == 2
        assert "attempts" in err

    def test_non_finite_min_gap(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "submatrix", "--dataset", "cyclic", "--k", "3", "--min-gap", "nan",
            "--output", str(tmp_path / "sub.csv"),
        )
        assert code == 2
        assert "min_gap" in err
        assert not (tmp_path / "sub.csv").exists()


class TestParsing:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_algo(self, capsys):
        code, _, _ = run_cli(
            capsys, "run", "--dataset", "cyclic", "--algo", "zzz", "--T", "10"
        )
        assert code == 2

    def test_dataset_and_input_conflict(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.5,0.6\n0.4,0.5\n")
        code, _, _ = run_cli(
            capsys, "bounds", "--dataset", "cyclic", "--input", str(path)
        )
        assert code == 2


class TestErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "--dataset", "arxiv"),
            ("bounds", "--dataset", "arxiv", "--json"),
            ("run", "--dataset", "arxiv", "--algo", "cw", "--T", "10", "--runs", "1"),
        ],
    )
    def test_tied_matrix_message(self, capsys, argv):
        # the message speaks of the matrix, not of a library keyword
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: strict gaps required\n"

    def test_exit_code_of_each_error_type(self):
        assert DuelbenchError.exit_code == 2
        assert ValidationError.exit_code == 2
        assert TiedPreferenceError.exit_code == 2
        assert TooLargeError.exit_code == 3
        assert TraceIOError.exit_code == 4

    def test_trace_write_failure_exits_4(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "--dataset", "cyclic", "--algo", "ecw", "--T", "10",
            "--runs", "1", "--output", str(tmp_path / "missing" / "t.json"),
        )
        assert code == 4
        assert "cannot write" in err
