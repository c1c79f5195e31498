import copy
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import duelbench
from conftest import random_matrix
from duelbench import (
    BUILTIN_DATASETS,
    AlgorithmConfig,
    ExhaustedRejectionsError,
    ParseError,
    PreferenceMatrix,
    TiedPreferenceError,
    UnknownDatasetError,
    ValidationError,
    builtin_dataset,
    check_feasible,
    copeland_summary,
    cw_constraints,
    ecw_explicit_bound,
    ecw_optimal,
    gap_divergence,
    kl_bernoulli,
    load_matrix,
    lower_bound,
    matrix_to_csv,
    regret_per_pair,
    regret_table,
    sample_submatrix,
    save_matrix,
    simulate,
)
from duelbench.cli import main
from duelbench.core import _copeland_sets, gap_divergences
from duelbench.errors import DomainError
from oracles import gap_divergence_libm, sign_sets


def direct_kl(p, q):
    total = 0.0
    if p > 0:
        total += p * math.log(p / q)
    if p < 1:
        total += (1 - p) * math.log((1 - p) / (1 - q))
    return total


class TestKl:
    def test_identical(self):
        assert kl_bernoulli(0.5, 0.5) == 0.0

    @pytest.mark.parametrize("p,expected", [(0.6, 0.0201355), (0.9, 0.3680642)])
    def test_reference_values(self, p, expected):
        assert kl_bernoulli(p, 0.5) == pytest.approx(direct_kl(p, 0.5), abs=1e-15)
        assert kl_bernoulli(p, 0.5) == pytest.approx(expected, abs=1e-6)

    def test_boundary_p(self):
        assert kl_bernoulli(0.0, 0.5) == pytest.approx(math.log(2))
        assert kl_bernoulli(1.0, 0.5) == pytest.approx(math.log(2))

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_domain(self, q):
        with pytest.raises(DomainError):
            kl_bernoulli(0.5, q)
        with pytest.raises(DomainError):
            kl_bernoulli(1.5, 0.5)

    @settings(max_examples=1000, derandomize=True)
    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_pinsker(self, p, q):
        assert kl_bernoulli(p, q) >= 2.0 * (p - q) ** 2 - 1e-12

    def test_gap_divergence_matches_scalar(self, cyclic):
        d = gap_divergence(cyclic.values)
        for i in range(4):
            for j in range(4):
                assert d[i, j] == pytest.approx(
                    kl_bernoulli(cyclic.values[i, j], 0.5), abs=1e-15
                )


def bits(values):
    return [float(v).hex() for v in values]


# every estimate w/n a pair can take in its first 399 draws, each value once
ESTIMATES = sorted({w / n for n in range(1, 400) for w in range(n + 1)})


class TestDivergenceKernel:
    """``gap_divergences`` gives the bits of the per-value libm formula.

    The logs are libm's, so the bits do not follow numpy's CPU dispatch:
    numpy's AVX-512 log differs from libm's in the last bit on some of
    these estimates.  The products and the sum are IEEE operations
    either way.
    """

    def test_every_estimate_as_one_vector(self):
        assert bits(gap_divergences(ESTIMATES)) == bits(gap_divergence_libm(ESTIMATES))

    def test_every_estimate_as_a_drawn_pair(self):
        # the per-draw update passes (muhat_ij, muhat_ji)
        mismatched = [
            p
            for p in ESTIMATES
            if bits(gap_divergences([p, 1.0 - p])) != bits(gap_divergence_libm([p, 1.0 - p]))
        ]
        assert mismatched == []

    def test_bits_do_not_follow_numpy_dispatch(self):
        # one child process with numpy's AVX-512 paths off; on a host
        # without AVX-512 both sides take the same paths
        code = (
            "import sys\n"
            "from duelbench.core import gap_divergences\n"
            "est = [float.fromhex(v) for v in sys.stdin.read().split()]\n"
            "print(' '.join(d.hex() for d in gap_divergences(est)))\n"
        )
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(duelbench.__file__).resolve().parents[1]),
            NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            input=" ".join(bits(ESTIMATES)), env=env, capture_output=True, text=True, check=True,
        )
        assert proc.stdout.split() == bits(gap_divergences(ESTIMATES))

    def test_edge_values(self):
        tiny = 5e-324
        ends = [0.0, 1.0, 0.5, -0.0]
        outside = [-tiny, 1.0 + 2**-52, -1.0, 2.0, math.inf, -math.inf, math.nan]
        values = ends + outside + [tiny, 1.0 - 2**-53, math.nextafter(0.5, 0.0)]
        got = gap_divergences(values)
        assert bits(got) == bits(gap_divergence_libm(values))
        ln2 = math.log(2.0)
        assert got[:11] == [ln2, ln2, 0.0, ln2] + [0.0] * 7
        assert all(d >= 0.0 for d in got)
        assert gap_divergences([]) == []

    @pytest.mark.parametrize("shape", [(), (3,), (5, 5), (2, 3, 4)])
    def test_array_keeps_shape_and_bits(self, shape):
        values = np.random.default_rng(len(shape)).uniform(-0.1, 1.1, size=shape)
        got = gap_divergence(values)
        assert isinstance(got, np.ndarray) and got.shape == shape and got.dtype == float
        assert bits(got.ravel()) == bits(gap_divergence_libm(values.ravel()))


class TestCopeland:
    def test_cyclic(self, cyclic):
        s = copeland_summary(cyclic)
        assert s.losses == (0, 2, 2, 2)
        assert s.winners == frozenset({1})
        assert s.winner_count == 1
        assert s.has_condorcet_winner
        assert s.superiors[0] == frozenset()
        assert s.inferiors[0] == frozenset({2, 3, 4})

    def test_multisol(self, multisol):
        s = copeland_summary(multisol)
        assert s.losses == (1, 1, 1, 3, 4)
        assert s.winners == frozenset({1, 2, 3})
        assert s.winner_count == 3
        assert not s.has_condorcet_winner

    def test_gap(self, gap):
        assert copeland_summary(gap).losses == (1, 2, 2, 3, 2)

    def test_single_arm(self):
        s = copeland_summary(PreferenceMatrix([[0.5]]))
        assert s.losses == (0,)
        assert s.winners == frozenset({1})
        assert s.winner_count == 1

    def test_matches_sign_reading(self, cyclic, gap, multisol):
        for m in (cyclic, gap, multisol):
            sup, inf_, losses = sign_sets(m.values.tolist())
            s = copeland_summary(m)
            assert list(s.losses) == losses
            assert [sorted(x) for x in s.superiors] == [
                [j + 1 for j in row] for row in sup
            ]

    def test_loss_sum_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            k = int(rng.integers(2, 8))
            m = random_matrix(rng, k)
            s = copeland_summary(m)
            assert sum(s.losses) == k * (k - 1) // 2

    def test_condorcet_unique(self):
        rng = np.random.default_rng(12)
        hits = 0
        for _ in range(60):
            m = random_matrix(rng, int(rng.integers(2, 7)))
            s = copeland_summary(m)
            if s.min_loss == 0:
                hits += 1
                assert s.winner_count == 1
        assert hits > 0

    def test_strict_mode_rejects_ties(self):
        m = builtin_dataset("arxiv")
        with pytest.raises(TiedPreferenceError):
            copeland_summary(m)
        s = copeland_summary(m, tie_tolerant=True)
        assert 1 in s.winners

    @pytest.mark.parametrize(
        "m",
        [builtin_dataset("arxiv")]
        + [
            random_matrix(np.random.default_rng(seed), k, tie_rate=0.4)
            for seed, k in ((1, 4), (2, 5), (3, 6))
        ],
        ids=["arxiv", "random-k4", "random-k5", "random-k6"],
    )
    @pytest.mark.parametrize("as_rows", [np.asarray, np.ndarray.tolist], ids=["array", "lists"])
    def test_sets_count_ties_in_neither_and_list_winners(self, m, as_rows):
        assert m.has_ties
        sup, inf_, losses, winners = _copeland_sets(as_rows(m.values))
        for i in range(m.k):
            for j in range(m.k):
                tied = i != j and m.values[i, j] == 0.5
                assert (j in sup[i]) == (m.values[i, j] < 0.5)
                assert (j in inf_[i]) == (m.values[i, j] > 0.5)
                if tied:
                    assert j not in sup[i] and j not in inf_[i]
        assert losses == [len(s) for s in sup]
        assert winners == [i for i in range(m.k) if losses[i] == min(losses)]
        s = copeland_summary(m, tie_tolerant=True)
        assert s.winners == frozenset(i + 1 for i in winners)
        assert s.winner_count == len(winners)

    def test_mirror_rounding_to_half_is_a_tie(self):
        # 1 - (1/2 - 2**-54) rounds to exactly 1/2, so the pair is tied
        low = 0.5 - 2.0**-54
        rows = [[0.5, 1.0 - low], [low, 0.5]]
        with pytest.raises(TiedPreferenceError):
            PreferenceMatrix(rows)
        m = PreferenceMatrix(rows, allow_ties=True)
        assert m.has_ties
        with pytest.raises(TiedPreferenceError):
            copeland_summary(m)


class TestMatrixOwnsSets:
    """A matrix derives its Copeland sets once; every strict-gap caller reads them."""

    @pytest.mark.parametrize("name", BUILTIN_DATASETS)
    def test_sets_match_the_derivation(self, name):
        m = builtin_dataset(name)
        assert m._sets == _copeland_sets(m.values)
        sub = m.take([2, 0, 1])
        assert sub._sets == _copeland_sets(sub.values)

    def test_bounds_derives_the_sets_once(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "multisol.csv"
        save_matrix(builtin_dataset("multisol"), path)
        calls = []
        for name in ("core", "constraints", "solvers", "harness", "bandit"):
            module = importlib.import_module(f"duelbench.{name}")
            original = getattr(module, "_copeland_sets", None)
            if original is not None:
                def counting(rows, original=original, name=name):
                    calls.append(name)
                    return original(rows)

                monkeypatch.setattr(module, "_copeland_sets", counting)
        assert main(["bounds", "--input", str(path), "--json"]) == 0
        capsys.readouterr()
        assert calls == ["core"]

    @pytest.mark.parametrize("name", ["cyclic", "multisol"])
    def test_callers_leave_the_sets_alone(self, name):
        m = builtin_dataset(name)
        before = copy.deepcopy(m._sets)
        copeland_summary(m)
        lower_bound(m)
        opt = ecw_optimal(m)
        ecw_explicit_bound(m, opt.winner)
        check_feasible(cw_constraints(m, opt.winner), opt.rates, m)
        for variant in ("ecw", "cw"):
            simulate(m, AlgorithmConfig(variant=variant), 300, 0)
        assert m._sets == before


class TestRegret:
    def test_examples(self, cyclic):
        s = copeland_summary(cyclic)
        assert regret_per_pair(s, 1, 1) == 0.0
        assert regret_per_pair(s, 1, 2) == pytest.approx((0 + 2 - 0) / 6)
        assert regret_per_pair(s, 2, 3) == pytest.approx((2 + 2 - 0) / 6)

    def test_symmetry_zero_iff_winners_and_cap(self, multisol):
        s = copeland_summary(multisol)
        for i in range(1, 6):
            for j in range(1, 6):
                r = regret_per_pair(s, i, j)
                assert r == regret_per_pair(s, j, i)
                assert 0.0 <= r <= 1.0
                both_winners = i in s.winners and j in s.winners
                assert (r == 0.0) == both_winners

    def test_single_arm(self):
        s = copeland_summary(PreferenceMatrix([[0.5]]))
        assert regret_per_pair(s, 1, 1) == 0.0

    def test_table_matches_pairwise(self, cyclic):
        s = copeland_summary(cyclic)
        table = regret_table(s.losses)
        for i in range(1, 5):
            for j in range(1, 5):
                assert table[i - 1, j - 1] == regret_per_pair(s, i, j)


class TestLoadMatrix:
    def test_minimal(self):
        m = load_matrix("0.5,0.7\n0.3,0.5")
        assert m.k == 2
        assert copeland_summary(m).losses == (0, 1)

    def test_symmetry_violation(self):
        with pytest.raises(ValidationError, match="asymmetric"):
            load_matrix("0.5,0.7\n0.4,0.5")

    def test_non_square(self):
        with pytest.raises(ParseError, match="non-square"):
            load_matrix("0.5,0.7\n0.3,0.5\n0.1,0.9")
        with pytest.raises(ParseError):
            load_matrix("0.5,0.7,0.1\n0.3,0.5\n")

    def test_bad_field(self):
        with pytest.raises(ParseError, match="line 2"):
            load_matrix("0.5,0.7\nmuffin,0.5")

    def test_empty(self):
        with pytest.raises(ParseError):
            load_matrix("# just a comment\n")

    def test_bad_diagonal(self):
        with pytest.raises(ValidationError, match="diagonal"):
            load_matrix("0.6,0.7\n0.3,0.5")

    def test_out_of_range(self):
        with pytest.raises(ValidationError, match="outside"):
            load_matrix("0.5,1.7\n-0.7,0.5")

    def test_comments_blank_lines_bytes_and_stream(self):
        text = "# header\n\n0.5,0.7\n0.3,0.5\n"
        expected = load_matrix(text)
        assert load_matrix(text.encode()) == expected
        import io

        assert load_matrix(io.StringIO(text)) == expected

    def test_non_utf8_bytes(self):
        with pytest.raises(ParseError, match="UTF-8"):
            load_matrix(b"\xff0.5,0.6\n0.4,0.5\n")
        import io

        with pytest.raises(ParseError, match="UTF-8"):
            load_matrix(io.BytesIO(b"0.5,0.6\n0.4,\xff0.5\n"))

    def test_strict_rejects_tie(self):
        with pytest.raises(TiedPreferenceError):
            load_matrix("0.5,0.5\n0.5,0.5")
        with pytest.raises(TiedPreferenceError) as info:
            load_matrix("0.5,0.6,0.7\n0.4,0.5,0.5\n0.3,0.5,0.5")
        assert str(info.value) == "strict gaps required: mu(3,2) = 1/2"
        m = load_matrix("0.5,0.5\n0.5,0.5", allow_ties=True)
        assert m.has_ties and not m.strict_gaps

    def test_cyclic_csv_equals_builtin(self, cyclic):
        text = "0.5,0.6,0.6,0.6\n0.4,0.5,0.9,0.1\n0.4,0.1,0.5,0.9\n0.4,0.9,0.1,0.5"
        assert load_matrix(text) == cyclic

    def test_round_trip_all_builtins(self):
        for name in BUILTIN_DATASETS:
            m = builtin_dataset(name)
            assert load_matrix(matrix_to_csv(m), allow_ties=True) == m


class TestBuiltinDatasets:
    def test_gap_entries(self, gap):
        assert gap.mu(1, 4) == 0.51
        assert gap.mu(4, 1) == 0.49

    def test_sushi_condorcet(self):
        s = copeland_summary(builtin_dataset("sushi"))
        assert s.losses[0] == 0
        assert s.winners == frozenset({1})

    def test_arxiv_tie(self):
        m = builtin_dataset("arxiv")
        assert m.has_ties
        assert m.mu(4, 6) == 0.5
        assert [n for n in BUILTIN_DATASETS if builtin_dataset(n).has_ties] == ["arxiv"]

    def test_unknown(self):
        with pytest.raises(UnknownDatasetError):
            builtin_dataset("nope")

    def test_mirror_identity_exact(self):
        for name in BUILTIN_DATASETS:
            v = builtin_dataset(name).values
            assert (v + v.T == 1.0).all()


class TestSampleSubmatrix:
    def test_full_selection_is_identity(self, cyclic):
        sub = sample_submatrix(cyclic, 4, 0.0, np.random.default_rng(0))
        assert sub == cyclic

    def test_sushi_gap_filter(self):
        sushi = builtin_dataset("sushi")
        sub = sample_submatrix(sushi, 4, 0.005, np.random.default_rng(5))
        assert sub.k == 4
        off = ~np.eye(4, dtype=bool)
        assert (np.abs(sub.values[off] - 0.5) >= 0.005).all()

    def test_cyclic_forced_failure(self, cyclic):
        with pytest.raises(ExhaustedRejectionsError):
            sample_submatrix(cyclic, 3, 0.45, np.random.default_rng(1), max_attempts=2000)

    def test_cyclic_only_valid_triple(self, cyclic):
        # with min_gap 0.3 every triple containing arm 1 has a 0.1 gap pair
        expected = cyclic.take(np.array([1, 2, 3]))
        for seed in range(6):
            sub = sample_submatrix(cyclic, 3, 0.3, np.random.default_rng(seed))
            assert sub == expected

    def test_deterministic(self):
        sushi = builtin_dataset("sushi")
        a = sample_submatrix(sushi, 6, 0.005, np.random.default_rng(9))
        b = sample_submatrix(sushi, 6, 0.005, np.random.default_rng(9))
        assert a == b

    def test_bad_args(self, cyclic):
        with pytest.raises(ValidationError):
            sample_submatrix(cyclic, 9, 0.0, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            sample_submatrix(cyclic, 2, -0.1, np.random.default_rng(0))

    def test_int_seed(self, cyclic):
        sushi = builtin_dataset("sushi")
        want = sample_submatrix(sushi, 6, 0.005, np.random.default_rng(9))
        assert sample_submatrix(sushi, 6, 0.005, 9) == want
        with pytest.raises(ValidationError, match="seed"):
            sample_submatrix(cyclic, 2, 0.0, -1)

    @pytest.mark.parametrize("min_gap", [math.nan, math.inf])
    def test_non_finite_min_gap(self, cyclic, min_gap):
        with pytest.raises(ValidationError, match="min_gap"):
            sample_submatrix(cyclic, 3, min_gap, np.random.default_rng(0))
