"""Golden CLI output: sha256 pins of the exact bytes the CLI writes.

A refactor or speed-up must leave every pin unchanged.  Re-pin only when
an output is meant to change, and say why in the change log.

Each pin covers the whole output of one call: the trace file of a ``run``
(plus its stdout, with the trace path replaced by ``<path>``), the stdout
of ``bounds`` in text and in ``--json --rates`` form, and the stdout of
``datasets``.  The exit code of every call must be 0.
"""

import hashlib

import pytest

from duelbench.cli import main

SEED = "11"

#: (dataset, algo, T) -> (sha256 of the trace file, sha256 of stdout)
RUN_PINS = {
    ("cyclic", "ecw", 20000): (
        "ff4d47cc4563e0038a0709bdb2de64be0532799880a7eaba1f9ca7d57a1a353a",
        "29a458f92969e7fbac3758c55ee9d8980f41c3e6b23d6efd38e16f994b4c4294",
    ),
    ("gap", "cw", 2000): (
        "bebd91c720be2a9c6c26bc28b7d05628af9422df2f79a24e0560ece010837573",
        "a9ab4710313171600601e1613d24cab54030b88fdb64b586540b0582d3c26386",
    ),
    ("multisol", "cw", 2000): (
        "ef8c0d37ec05e8fab1f7d2833376ef1fefe383994787cb670c7b123221a2aea4",
        "884df2d4988b2383e87cd6ddeadf74e90a9aabaa3f1abcb7fb09c156dc3563f9",
    ),
    ("sushi", "ecw", 2000): (
        "761fe0ccd7d742b0d9e8f30b37683eb9b1d5c93df83772eb5ef1246e56c60297",
        "4bad52338943b1a57091b9b36b18c109dc1cb7eee35b64c5305c8bf21d0f8cbb",
    ),
    ("mslr5_noncondorcet", "ecw", 5000): (
        "b1ab779391168d4fe56b7e82a26a40de2b3ed5bf31d8f28fe69f27c5d6900df8",
        "39b9cf040eaa52f0e4ee608bc3f9ebe062afecc20c631d6138b73f59e5ce095b",
    ),
    ("cyclic", "random", 10000): (
        "c2563487e7652f75601749667b31b46ee48d8801e76a0034a7c4528f435ed99a",
        "85717c4af91e5007167537b11f5238f78f9e967d3dd299a0e377717853cdde11",
    ),
}

#: dataset -> (sha256 of ``bounds`` stdout, sha256 of ``bounds --json --rates`` stdout)
BOUNDS_PINS = {
    "cyclic": (
        "89eb3d6c28b17a14496c9313c25594738529d05715f340645c29d52ec913085c",
        "49c973cb23a3ae824737709a54a0636237a6376cf431e1960af6e4e1f2b17f50",
    ),
    "gap": (
        "b89890e625f75827ca96c40635e7f2a730df9c470f9b3b575244d1e583a7a362",
        "bb2e40f7cfd35d9a9df963c4aa5b023de38a94acc77819d76e671ae98d6e3fd0",
    ),
    "multisol": (
        "2c887bf388308a6fbf1fd0e78b8e32839cd4a88c37faeab1ed85f73a4488a2cd",
        "5afa80c7eb03767234cf14a3946f7d871f4c2a0e95e287389e61469005d64133",
    ),
    "mslr5_condorcet": (
        "76974909da659ad8d8b692431528af23320c793a34c7368334c07a3631fde4af",
        "b11ddc9cd2eeddf2a453880fb772b3c07d45e7eba50e7f400b2e2629c1aae600",
    ),
    "mslr5_noncondorcet": (
        "e94a80c995b72b8bbfd0aecda9e838bc2f59ced5d57f5feeda17caa609f722e8",
        "f649ab29fa0e281c8b33d5029687a4d3a87df01cee78625d8f2dd7312880566d",
    ),
    "sushi": (
        "663682b24dcb6ea2c886f556a53fdc7bb1c038f0b439bd65f2555aa43d13494b",
        "2e53d4b218533948a98038beb45ae8117ca3b8db165820a6177e19d481739882",
    ),
}

DATASETS_PIN = "ad80cd9c6136b8391c02ce1e7dfb2af73d148ae18c2d0a297ea8ac78c5608f08"

#: sha256 of the trace of one cw run on the K=6 sushi submatrix: LPs of
#: 8 or 11 rows over 15 pairs, the shape of a bandit that replans often
SUSHI_SUB6_CW_PIN = "20bbe3bc914dde1b8b1b036274d9a0e7c11604d27a81e4ea556d4e5b8bccd8b4"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_stdout(capsys, *argv) -> bytes:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, f"{argv}: exit code {code}"
    return out.encode("utf-8")


def run_digests(capsys, tmp_path, dataset, algo, horizon):
    path = tmp_path / f"{dataset}_{algo}.json"
    out = cli_stdout(
        capsys,
        "run", "--dataset", dataset, "--algo", algo, "--T", str(horizon),
        "--runs", "2", "--seed", SEED, "--output", str(path),
    )
    out = out.replace(str(path).encode("utf-8"), b"<path>")
    return sha256(path.read_bytes()), sha256(out)


def bounds_digests(capsys, dataset):
    text = cli_stdout(capsys, "bounds", "--dataset", dataset)
    js = cli_stdout(capsys, "bounds", "--dataset", dataset, "--json", "--rates")
    return sha256(text), sha256(js)


@pytest.mark.parametrize("case", sorted(RUN_PINS), ids=lambda c: "-".join(map(str, c)))
def test_run_trace_bytes(capsys, tmp_path, case):
    dataset, algo, horizon = case
    assert run_digests(capsys, tmp_path, dataset, algo, horizon) == RUN_PINS[case]


@pytest.mark.parametrize("dataset", sorted(BOUNDS_PINS))
def test_bounds_output_bytes(capsys, dataset):
    assert bounds_digests(capsys, dataset) == BOUNDS_PINS[dataset]


def test_datasets_output_bytes(capsys):
    assert sha256(cli_stdout(capsys, "datasets")) == DATASETS_PIN


def test_cw_run_on_sushi_submatrix_bytes(capsys, tmp_path):
    csv = tmp_path / "sushi_sub6.csv"
    cli_stdout(
        capsys,
        "submatrix", "--dataset", "sushi", "--k", "6", "--min-gap", "0.02",
        "--seed", "3", "--output", str(csv),
    )
    trace = tmp_path / "cw.json"
    cli_stdout(
        capsys,
        "run", "--input", str(csv), "--algo", "cw", "--T", "1000", "--runs", "1",
        "--seed", "0", "--output", str(trace),
    )
    assert sha256(trace.read_bytes()) == SUSHI_SUB6_CW_PIN
